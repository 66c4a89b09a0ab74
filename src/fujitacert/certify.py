"""Assemble per-character analysis into splitting reports and certificates.

The direct image V of the relative dualizing sheaf splits over the deck
characters; each rank-2 eigenspace contributes its holomorphic part V_j.
A certificate for a family records, with every sub-claim independently
checkable: admissibility, combinatorial smoothness, exact invariants, the
splitting bookkeeping, irreducibility of all characters, and an explicit
unit conjugate carrying an indefinite form, which forces the flat summand's
monodromy to be infinite.  Admissibility is the one gate: every other claim
follows from it and is checked, so an admissible family is a counterexample
to the semiampleness question and an inadmissible one NOT_CERTIFIED.
The splitting and the Shimura count both read the sigma table the WeightTuple caches (one fused pass
over j <= n/2, degenerate j marked by divisibility, mirrored, each sigma checked), shared by one m's families.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

from .eigenspace import WeightTuple, sigma_sum
from .monodromy import (
    DEFAULT_CLOSURE_CAP,
    DEFAULT_MAX_WORD_LEN,
    Finiteness,
    agreement,
    finiteness_by_signature,
    find_infinite_character,
    group_closure,
    triple_from_weights,
)
from .residues import InternalInconsistencyError
from .surfaces import (
    FamilyData,
    SurfaceInvariants,
    admissibility_reason,
    invariants,
    smoothness_check,
)

CERTIFICATE_PROSE = (
    "This certificate records arithmetic facts only: admissibility of the "
    "covering datum, combinatorial smoothness of the branch configuration, "
    "exact numerical invariants, the character splitting of the direct image, "
    "irreducibility of every character, and a unit conjugate of the flat "
    "character carrying an indefinite invariant form, which makes the flat "
    "summand's monodromy group infinite.  The recorded implication 'a unitary "
    "flat summand with infinite monodromy is not semiample' is applied, not "
    "recomputed.  The analytic statements about the surfaces themselves - "
    "their existence as complex manifolds, the Albanese fibration, "
    "semiampleness, and rigidity - are not reproducible at desk scale and are "
    "represented solely by the arithmetic witnesses above."
)


@dataclass(frozen=True)
class SplittingReport:
    """Rank bookkeeping of V = sum of V_j; sigmas[j - 1] is sigma_j (0 if degenerate), dim V_j = dim_h10."""

    sigmas: tuple[int, ...]
    rank_V: int
    rank_flat: int
    rank_ample_candidate: int
    deg_V: int | None
    has_degenerate: bool


def splitting(w: WeightTuple) -> SplittingReport:
    """The sigma table with rank totals, from w.sigmas: one sigma_table pass per WeightTuple, every sigma checked.

    A degenerate character is carried as sigma 0; certify raises on it, as admissible data have none.
    """
    n = w.n
    table = w.sigmas
    ample, flat = table.count(2 * n), table.count(3 * n)
    deg_v = (n * n - 1) // 12 if (n * n - 1) % 12 == 0 else None
    return SplittingReport(
        sigmas=table,
        rank_V=ample + 2 * flat,  # dim V_j is 1 at an ample candidate and 2 at a flat character
        rank_flat=2 * flat,
        rank_ample_candidate=ample,
        deg_V=deg_v,
        has_degenerate=0 in table,
    )


@dataclass(frozen=True)
class InfiniteWitness:
    """j_star with sigma = 2n, and the unit h with [h*(n-1)] = j_star.

    The indefinite form at j_star plus Galois transport to the flat
    character n-1 is what certifies infinite monodromy of the flat summand.
    """

    j_star: int
    unit: int
    sigma: int


@dataclass(frozen=True)
class Certificate:
    """The facts certify established, each stored once; an inadmissible family has only its reason.

    Its other fields stay None; the verdict, admissibility and oracle
    agreement are read off the stored reason and verdicts.
    """

    family: FamilyData
    admissibility_reason: str | None = None
    smooth: bool | None = None
    invariants: SurfaceInvariants | None = None
    splitting: SplittingReport | None = None
    irreducible_all: bool | None = None
    infinite_witness: InfiniteWitness | None = None
    oracle_verdicts: tuple[Finiteness, Finiteness] | None = None  # (criterion kind, closure kind)
    prose: ClassVar[str] = CERTIFICATE_PROSE

    @property
    def admissible(self) -> bool:
        return self.admissibility_reason is None

    @property
    def not_certified_reason(self) -> str | None:
        return None if self.admissible else f"admissibility: {self.admissibility_reason}"

    @property
    def is_counterexample(self) -> bool:
        return self.admissible

    @property
    def verdict(self) -> str:
        return "COUNTEREXAMPLE" if self.is_counterexample else "NOT_CERTIFIED"

    @property
    def oracle_agreement(self) -> bool | None:
        """None without an oracle run or when the closure is INCONCLUSIVE."""
        return None if self.oracle_verdicts is None else agreement(*self.oracle_verdicts)


def weight_claims(w: WeightTuple) -> tuple[SplittingReport, bool, InfiniteWitness]:
    """splitting(w), all_units and the witness of w: checked once per instance and stored on it, as w.sigmas is."""
    claims = vars(w).get("weight_claims")
    if claims is None:
        split, irreducible = splitting(w), w.all_units()
        if split.has_degenerate or not irreducible or split.rank_flat < 2:
            raise InternalInconsistencyError(
                f"admissible n={w.n}, m={w.m} breaks an implication: has_degenerate={split.has_degenerate}, "
                f"irreducible_all={irreducible}, rank_flat={split.rank_flat}"
            )
        j_star = find_infinite_character(w)
        witness = InfiniteWitness(j_star, (-j_star) % w.n, sigma_sum(w, j_star))  # [unit * (n-1)] = j_star
        claims = vars(w)["weight_claims"] = (split, irreducible, witness)
    return claims


def certify(
    f: FamilyData,
    with_oracle: bool = False,
    cap: int = DEFAULT_CLOSURE_CAP,
    max_word_len: int = DEFAULT_MAX_WORD_LEN,
) -> Certificate:
    """One gate, admissibility; the other claims are its consequences, each computed and checked.

    An inadmissible datum is NOT_CERTIFIED with the reason "admissibility: ..." and no
    other field.  Admissibility (each m_i, n_i and m_i + m_3 a unit mod n) implies:
    - smooth: each inertia element has a unit coordinate, each crossing determinant is +- two units' product;
    - no degenerate character and every character irreducible: n divides no j*m_i for 0 < j < n;
    - rank_flat >= 2: sigma_{n-1} = sum of [-m_i] = sum of (n - m_i) = 4n - n = 3n;
    - a witness: m0 + m3 is a unit, so find_infinite_character's j exists.
    Smoothness is checked per family, the rest once per WeightTuple (weight_claims; one m's families share it, an
    equal one built apart makes its own).  A broken one raises InternalInconsistencyError, or NonUnitError from
    find_infinite_character; the CLI exits 2 on both.  with_oracle records the matrix oracle's verdict too.
    """
    reason = admissibility_reason(f.n, f.w.m, f.base_weights)
    if reason is not None:
        return Certificate(f, admissibility_reason=reason)
    w, smooth = f.w, smoothness_check(f)
    if not smooth:
        raise InternalInconsistencyError(f"admissible n={f.n}, m={w.m}, nw={f.base_weights} is not smooth: smooth=False")
    split, irreducible, witness = weight_claims(w)
    verdicts = None
    if with_oracle:
        criterion = finiteness_by_signature(w, witness.j_star)
        verdicts = (criterion.kind, group_closure(triple_from_weights(w, witness.j_star), cap, max_word_len).kind)
    return Certificate(
        f, smooth=smooth, invariants=invariants(f.n), splitting=split, irreducible_all=irreducible,
        infinite_witness=witness, oracle_verdicts=verdicts,
    )


def shimura_count(w: WeightTuple) -> tuple[int, bool]:
    """Number of character pairs {j, n-j} with sigma = 2n; candidate iff exactly one.

    One such pair means the symmetry-preserving deformations of the
    associated abelian varieties form a 1-dimensional space.
    """
    count = w.sigmas[: w.n // 2].count(2 * w.n)  # j = 1 .. n // 2
    return count, count == 1
