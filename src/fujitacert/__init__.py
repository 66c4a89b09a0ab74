"""Exact-arithmetic analysis of cyclic covers of the line branched at 4 points.

Library layers, bottom up: residues (Z/n arithmetic), eigenspace (per-character
Hodge data), cyclotomic (exact field arithmetic), monodromy (irreducibility and
finiteness, criteria and matrix oracle), surfaces (family admissibility and
surface invariants), certify (splitting reports and counterexample
certificates), sweep (criterion/oracle equivalence), cli (JSON front end).

Import each name from its module.  The package root holds `zeta` only because
the benchmark's per-level warm-up reads it from here.
"""

from .cyclotomic import zeta
