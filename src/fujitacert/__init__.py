"""Exact-arithmetic analysis of cyclic covers of the line branched at 4 points.

Library layers, bottom up: residues (Z/n arithmetic), eigenspace (per-character
Hodge data), cyclotomic (exact field arithmetic), monodromy (irreducibility and
finiteness, criteria and matrix oracle), surfaces (family admissibility and
surface invariants), certify (splitting reports and counterexample
certificates), sweep (criterion/oracle equivalence), cli (JSON front end).
"""

from .certify import (
    Certificate,
    EnumerationMode,
    SplittingReport,
    enumerate_families,
    shimura_count,
    splitting,
)
from .cyclotomic import CyclotomicNumber, cyclotomic_polynomial, real_sign, zeta
from .eigenspace import (
    DegenerateCharacterError,
    EigenspaceReport,
    ResidueWeights,
    SplitClass,
    WeightTuple,
    eigenspace_table,
    mu,
    sigma_sum,
    sigma_table,
    signature,
)
from .monodromy import (
    FinitenessVerdict,
    MonodromyTriple,
    finiteness_by_signature,
    find_infinite_character,
    group_closure,
    has_common_eigenvector,
    invariant_hermitian_form,
    is_irreducible,
    levelt_exponents,
    levelt_triple,
    triple_from_weights,
)
from .residues import InternalInconsistencyError, is_unit, units
from .surfaces import (
    FamilyData,
    SurfaceInvariants,
    admissible_exists,
    branch_table,
    family,
    invariants,
    iter_admissible_families,
    iter_canonical_families,
    smoothness_check,
    standard_family,
)
from .sweep import run_sweep

__version__ = "0.1.0"

__all__ = [
    "Certificate",
    "CyclotomicNumber",
    "DegenerateCharacterError",
    "EigenspaceReport",
    "EnumerationMode",
    "FamilyData",
    "FinitenessVerdict",
    "InternalInconsistencyError",
    "MonodromyTriple",
    "ResidueWeights",
    "SplitClass",
    "SplittingReport",
    "SurfaceInvariants",
    "WeightTuple",
    "admissible_exists",
    "branch_table",
    "cyclotomic_polynomial",
    "eigenspace_table",
    "enumerate_families",
    "family",
    "find_infinite_character",
    "finiteness_by_signature",
    "group_closure",
    "has_common_eigenvector",
    "invariant_hermitian_form",
    "invariants",
    "is_irreducible",
    "is_unit",
    "iter_admissible_families",
    "iter_canonical_families",
    "levelt_exponents",
    "levelt_triple",
    "mu",
    "real_sign",
    "run_sweep",
    "shimura_count",
    "sigma_sum",
    "sigma_table",
    "signature",
    "smoothness_check",
    "splitting",
    "standard_family",
    "triple_from_weights",
    "units",
    "zeta",
]
