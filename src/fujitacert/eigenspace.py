"""Per-character Hodge numbers and Hermitian signatures for rank-2 eigenspaces.

A weight tuple (n; m0, m1, m2, m3) with sum(m) = n describes a cyclic cover
of the line branched over four points.  For each nontrivial character j of
the deck group, the corresponding rank-2 local system carries exact Hodge
data governed by the normalized residues mu_i = [m_i * j] / n:

    dim H^{1,0} = -1 + sum_i mu_i,     dim H^{0,1} = 2 - dim H^{1,0},

and the invariant Hermitian form has index (dim H^{1,0}, dim H^{0,1}).
All of it follows from sigma_j = sum_i [m_i * j], which is n, 2n or 3n; sigma_table
computes it for j <= n/2 in one integer pass, reads the rest off sigma_{n-j} = 4n - sigma_j
and checks each against that set.  EigenspaceReport, the one per-character record, holds
sigma_j and what hodge_rows reads off it: the Hodge numbers and the split class.  All of
it is integer/rational arithmetic; no periods are computed.
"""

from __future__ import annotations

import enum
import itertools
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from math import gcd
from operator import add, sub
from typing import NamedTuple

from .residues import InternalInconsistencyError, check_modulus, is_unit


class DegenerateCharacterError(ValueError):
    """Some m_i * j = 0 mod n: the rank-2 local system degenerates at j.

    Degenerate characters are surfaced explicitly (never skipped) because
    downstream certificates must prove none occur.
    """

    def __init__(self, n: int, branch: int, j: int):
        self.n = n
        self.branch = branch
        self.j = j
        super().__init__(f"character j={j} is degenerate: m_{branch} * j = 0 mod {n}")


class SplitClass(enum.Enum):
    """Trichotomy of the character summand V_j inside the direct image V.

    AMPLE_CANDIDATE (not AMPLE) reflects that the indefinite case can a
    priori split either way for the individual rank-1 piece; the certifier
    never claims more than it can check.  Members are in dim H^{1,0} order.
    """

    ZERO = "ZERO"
    AMPLE_CANDIDATE = "AMPLE_CANDIDATE"
    FLAT = "FLAT"


@dataclass(frozen=True)
class ResidueWeights:
    """Covering datum as four residues mod n with sum = 0 mod n.

    The per-character sigma and dimension formulas need only this much; the
    strict WeightTuple subclass is what the surface construction consumes.
    Residues equal to 0 are allowed here and simply degenerate at every
    character.
    """

    n: int
    m: tuple[int, int, int, int]

    def __post_init__(self):
        check_modulus(self.n)
        m = tuple(x % self.n for x in self.m)
        if len(m) != 4:
            raise ValueError("need exactly four branch residues")
        object.__setattr__(self, "m", m)
        if sum(m) % self.n != 0:
            raise ValueError(
                f"weights must sum to n (mod n): sum{m} = {sum(m)} is not 0 mod {self.n}"
            )

    def all_units(self) -> bool:
        return all(is_unit(mi, self.n) for mi in self.m)


@dataclass(frozen=True)
class WeightTuple(ResidueWeights):
    """Strict covering datum (n; m0, m1, m2, m3) with sum(m) = n.

    Invariants: 0 < m_i <= n - 3 for every i, and gcd(m0, ..., m3, n) = 1.
    They are checked on the exponents as given, before any reduction mod n.
    """

    def __post_init__(self):
        check_modulus(self.n)
        m = tuple(self.m)
        if len(m) != 4:
            raise ValueError("weight tuple needs exactly four branch exponents")
        if sum(m) != self.n:
            raise ValueError(f"weights must sum to n: sum{m} = {sum(m)} != {self.n}")
        for i, mi in enumerate(m):
            if not 0 < mi <= self.n - 3:
                raise ValueError(f"m_{i} = {mi} outside (0, n-3] for n = {self.n}")
        if gcd(gcd(gcd(gcd(m[0], m[1]), m[2]), m[3]), self.n) != 1:
            raise ValueError(f"gcd(m0,...,m3, n) != 1 for m = {m}, n = {self.n}")
        object.__setattr__(self, "m", m)  # 0 < m_i < n and sum n: the residue checks hold

    @cached_property
    def sigmas(self) -> tuple[int, ...]:
        """sigma_table(self), one pass per instance: the families of one m share their WeightTuple."""
        return tuple(sigma_table(self))


def compositions(n: int, k: int):
    """Tuples of k positive integers summing to n >= 1, in lexicographic order."""
    # cut points of [0, n] taken in lexicographic order give the parts in that order
    for cuts in itertools.combinations(range(1, n), k - 1):
        yield tuple(map(sub, (*cuts, n), (0, *cuts)))


def iter_weight_tuples(n: int):
    """All valid weight tuples for this n, lexicographically."""
    for m in compositions(n, 4):
        if gcd(*m, n) == 1:
            yield WeightTuple(n=n, m=m)


class EigenspaceReport(NamedTuple):
    """Exact data of one character eigenspace: sigma_j, Hodge numbers, split class.

    The Hodge numbers are also the signature of the invariant form.  A
    degenerate character (some m_i * j = 0 mod n) is a flagged entry with
    sigma 0 and None for its dims and class.
    """

    j: int
    sigma: int
    dim_h10: int | None
    dim_h01: int | None
    split_class: SplitClass | None
    degenerate: bool


def _check_character(w: ResidueWeights, j: int) -> int:
    j = j % w.n
    if j == 0:
        raise ValueError("character index j must be nonzero mod n")
    return j


def mu(w: ResidueWeights, i: int, j: int) -> Fraction:
    """The normalized residue mu_{i,j} = [m_i * j] / n, an exact rational in (0,1)."""
    if i not in (0, 1, 2, 3):
        raise ValueError(f"branch index must be 0..3, got {i}")
    j = _check_character(w, j)
    r = (w.m[i] * j) % w.n
    if r == 0:
        raise DegenerateCharacterError(w.n, i, j)
    return Fraction(r, w.n)


def sigma_sum(w: ResidueWeights, j: int) -> int:
    """sum_i [m_i * j]; always one of n, 2n, 3n for a non-degenerate character."""
    j = _check_character(w, j)
    total = 0
    for i in range(4):
        r = (w.m[i] * j) % w.n
        if r == 0:
            raise DegenerateCharacterError(w.n, i, j)
        total += r
    if total not in (w.n, 2 * w.n, 3 * w.n):
        raise InternalInconsistencyError(f"sigma({j}) = {total} for {w} is not n, 2n or 3n")
    return total


def signature(w: ResidueWeights, j: int) -> tuple[int, int]:
    """Index (p, q) of the invariant Hermitian form on the j-eigenspace.

    (2,0) and (0,2) are definite, (1,1) indefinite.  The index coincides with
    the Hodge numbers (dim H^{1,0}, dim H^{0,1}), which always sum to 2.
    """
    return hodge_rows(w.n)[sigma_sum(w, j)][1:3]


def sigma_table(w: ResidueWeights) -> list[int]:
    """sigma_j for j = 1 .. n-1 from one integer pass over j <= n/2; 0 marks a degenerate character.

    The pass sums the four [m_i * j] as it makes them; n | m_i * j iff n / gcd(m_i, n) divides j, so the
    degenerate characters of each m_i are one slice (step 1 at a residue 0).  If r = [m_i * j] != 0, then
    m_i * (n - j) = -r mod n and 0 < r < n give [m_i * (n - j)] = n - r; if r = 0, so is [m_i * (n - j)].
    Summed: sigma_{n-j} = 4n - sigma_j, 0 mirrors to 0, and at even n, j = n/2 is its own mirror.  Any m
    obeys this, so a bad sigma keeps its true value, at the least bad j <= n/2.  Any entry outside
    {0, n, 2n, 3n} raises InternalInconsistencyError.
    """
    n, half, (a, b, c, d) = w.n, w.n // 2, w.m
    table = [a * j % n + b * j % n + c * j % n + d * j % n for j in range(1, half + 1)]
    for mi in w.m:
        step = n // gcd(mi, n)
        table[step - 1 :: step] = [0] * (half // step)
    table += [4 * n - s if s else 0 for s in reversed(table[: (n - 1) // 2])]
    allowed = {0, n, 2 * n, 3 * n}
    if not allowed.issuperset(table):
        j = next(j for j, s in enumerate(table, 1) if s not in allowed)
        raise InternalInconsistencyError(f"sigma({j}) = {table[j - 1]} for {w} is not n, 2n or 3n")
    return table


@cache
def hodge_rows(n: int) -> dict[int, tuple]:
    """sigma -> the report fields after j: (sigma, dim_h10, dim_h01, split_class, degenerate).

    dim H^{1,0} = sigma / n - 1 is 0, 1 or 2, and names the class ZERO,
    AMPLE_CANDIDATE or FLAT in that order; sigma = 0 marks a degenerate
    character.  Built once per n; callers only read it.
    """
    rows = {(h10 + 1) * n: ((h10 + 1) * n, h10, 2 - h10, c, False) for h10, c in enumerate(SplitClass)}
    return {0: (0, None, None, None, True), **rows}


def character_reports(table: list[int], n: int) -> Iterator[EigenspaceReport]:
    """The report of each character j = 1 .. n-1, read off its sigma_table entry."""
    rows = hodge_rows(n)
    return map(EigenspaceReport._make, map(add, zip(range(1, n)), map(rows.__getitem__, table)))


def eigenspace_report(w: ResidueWeights, j: int) -> EigenspaceReport:
    """The report of character j, eigenspace_table(w)[j - 1], from one sigma_sum.

    A degenerate j gives the flagged entry (sigma 0, degenerate=True), as in the table.
    """
    try:
        sigma = sigma_sum(w, j)
    except DegenerateCharacterError:
        sigma = 0
    return EigenspaceReport(j % w.n, *hodge_rows(w.n)[sigma])


def eigenspace_table(w: ResidueWeights) -> list[EigenspaceReport]:
    """Reports for j = 1 .. n-1, read off one sigma_table pass.

    Degenerate characters are flagged entries, not silent omissions and not
    fatal: bulk sweeps must see them.
    """
    return list(character_reports(sigma_table(w), w.n))
