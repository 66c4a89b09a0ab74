"""Fibred surfaces from (Z/n)^2 covers of the degree-5 del Pezzo.

A family is the covering datum (n; m0..m3) together with base weights
(n0, n1, n2).  Admissibility (each m_j, each n_i and each m_i + m_3 a unit
mod n, sums equal to n, gcd(n,6) = 1) guarantees the total space is a smooth
minimal surface of general type fibred over a curve; every numerical
invariant is a closed form in n and is computed exactly here, with the
smoothness verification reduced to one verdict on its combinatorial content
(orders and pairwise spans of inertia elements in (Z/n)^2, Pardini 1991),
which admissibility already implies.  Families are walked in increasing
order from compositions of n; normalization keeps a family when it is least
in its symmetry orbit (m least among its images, base weights least
under m's stabilizer), since an image with a larger m-part is a larger pair.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .eigenspace import WeightTuple, compositions
from .residues import InternalInconsistencyError, units


class NotCoprimeTo6Error(ValueError):
    pass


class InadmissibleFamilyError(ValueError):
    pass


@dataclass(frozen=True)
class FamilyData:
    """Weight tuple plus base weights (n0, n1, n2) with n0 + n1 + n2 = n."""

    w: WeightTuple
    base_weights: tuple[int, int, int]

    def __post_init__(self):
        bw = tuple(self.base_weights)
        if len(bw) != 3:
            raise ValueError("base weights must be a triple")
        object.__setattr__(self, "base_weights", bw)
        n = self.w.n
        if sum(bw) != n:
            raise ValueError(f"base weights must sum to n: sum{bw} != {n}")
        for i, ni in enumerate(bw):
            if not 1 <= ni <= n - 1:
                raise ValueError(f"n_{i} = {ni} outside [1, n-1]")

    @property
    def n(self) -> int:
        return self.w.n


def family(n: int, m: tuple[int, int, int, int], base_weights: tuple[int, int, int]) -> FamilyData:
    return FamilyData(w=WeightTuple(n=n, m=tuple(m)), base_weights=tuple(base_weights))


# ---------------------------------------------------------------------------
# admissibility


def admissibility_reason(n: int, m, base_weights) -> str | None:
    """First violated constraint for raw integer data, None if admissible.

    Raw-level so that exhaustive searches can probe tuples that the typed
    constructors would reject outright.
    """
    m = tuple(m)
    bw = tuple(base_weights)
    if n < 5:
        return f"n = {n} < 5"
    if gcd(n, 6) != 1:
        return f"gcd(n, 6) = {gcd(n, 6)} != 1"
    if len(m) != 4:
        return "need four branch exponents"
    if len(bw) != 3:
        return "need three base weights"
    for j, mj in enumerate(m):
        if not 1 <= mj <= n - 1:
            return f"m_{j} = {mj} outside [1, n-1]"
    for i, ni in enumerate(bw):
        if not 1 <= ni <= n - 1:
            return f"n_{i} = {ni} outside [1, n-1]"
    if sum(m) != n:
        return f"sum(m) = {sum(m)} != n"
    if sum(bw) != n:
        return f"sum(base weights) = {sum(bw)} != n"
    for j, mj in enumerate(m):
        if gcd(mj, n) != 1:
            return f"m_{j} = {mj} is not a unit mod {n}"
    for i, ni in enumerate(bw):
        if gcd(ni, n) != 1:
            return f"n_{i} = {ni} is not a unit mod {n}"
    for i in range(3):
        if gcd((m[i] + m[3]) % n, n) != 1:
            return f"m_{i} + m_3 = {m[i] + m[3]} is not a unit mod {n}"
    return None


def admissible_exists(n: int) -> bool:
    """Admissible data exists iff gcd(n, 6) = 1 (for n >= 5)."""
    if n < 5:
        raise ValueError("admissible families need n >= 5")
    return gcd(n, 6) == 1


def standard_family(n: int) -> FamilyData:
    """The standard case m = (1, 1, 1, n-3), base weights (1, 1, n-2)."""
    if n < 5 or gcd(n, 6) != 1:
        raise NotCoprimeTo6Error(f"standard family needs n >= 5 coprime to 6, got {n}")
    return family(n, (1, 1, 1, n - 3), (1, 1, n - 2))


def _admissible_parts(n: int) -> tuple[list, list]:
    """Admissible m and unit base weights for this n, each in increasing order."""
    unit = set(units(n)).issuperset
    ms = [m for m in compositions(n, 4) if unit(m) and unit((m[i] + m[3]) % n for i in range(3))]
    return ms, [bw for bw in compositions(n, 3) if unit(bw)]


def iter_admissible_families(n: int):
    """All admissible families for this n, in strictly increasing (m, base_weights) order."""
    if n < 5 or not admissible_exists(n):
        return
    for m, bw in itertools.product(*_admissible_parts(n)):
        yield family(n, m, bw)


# ---------------------------------------------------------------------------
# branch divisors on the del Pezzo


# Intersection pairs on the del Pezzo: the three blown-up points separate
# {y-line, x-line, diagonal} triples, each exceptional curve meets its three
# branches, and the remaining grid crossings survive.  This is data, fixed by
# the blowup combinatorics.
ADJACENT_PAIRS: tuple[tuple[str, str], ...] = (
    ("X_0", "Y_INF"),
    ("X_0", "Y_1"),
    ("X_1", "Y_INF"),
    ("X_1", "Y_0"),
    ("X_INF", "Y_0"),
    ("X_INF", "Y_1"),
    ("E0", "Y_INF"),
    ("E0", "X_INF"),
    ("E0", "DELTA"),
    ("E1", "Y_0"),
    ("E1", "X_0"),
    ("E1", "DELTA"),
    ("E2", "Y_1"),
    ("E2", "X_1"),
    ("E2", "DELTA"),
)


def _adjacency_sanity():
    """Check that the ten lines and their crossings form the Petersen graph, srg(10, 3, 0, 1).

    Then D, the sum of the ten lines, has D.L = -1 + 3 = 2 = -2K.L on each line L and
    D^2 = 20 = 4K^2, so D = -2K (Dolgachev, Classical Algebraic Geometry, ch. 8).
    """
    meets = {}
    for a, b in ADJACENT_PAIRS:
        meets.setdefault(a, set()).add(b)
        meets.setdefault(b, set()).add(a)
    if len(meets) != 10 or any(
        len(meets[a]) != 3 or len(meets[a] & meets[b]) != (b not in meets[a]) for a, b in itertools.permutations(meets, 2)
    ):
        raise InternalInconsistencyError("the branch divisors' crossings do not form the Petersen graph")


_adjacency_sanity()


def branch_table(f: FamilyData) -> dict[str, tuple[int, int]]:
    """The ten branch divisors, by label, with their (Z/n)^2 local monodromies."""
    n = f.n
    m0, m1, m2, m3 = f.w.m
    n0, n1, n2 = f.base_weights
    return {
        "Y_INF": (m0 % n, 0),
        "Y_0": (m1 % n, 0),
        "Y_1": (m2 % n, 0),
        "X_INF": ((n - m3) % n, n0 % n),
        "X_0": (0, n1 % n),
        "X_1": (0, n2 % n),
        "DELTA": (m3 % n, 0),
        "E0": (m0 % n, n0 % n),
        "E1": ((m1 + m3) % n, n1 % n),
        "E2": ((m2 + m3) % n, n2 % n),
    }


def smoothness_check(f: FamilyData) -> bool:
    """Combinatorial smoothness: inertia of order n everywhere, full span at crossings.

    (i) each divisor's monodromy (u, v) has exact order n in (Z/n)^2, i.e.
    gcd(u, v, n) = 1; (ii) for every intersecting pair the 2x2 determinant of
    the two monodromies is a unit mod n, i.e. the pair generates (Z/n)^2.

    Admissibility implies both.  (i): each monodromy has a coordinate that is
    an admissible unit, m_j for the y-lines and DELTA, n_i for the x-lines and
    E_i.  (ii): each of the 15 determinants is +- a product of two admissible
    units, -m_j*n_i at the six x-line/y-line crossings and at each E_i with its
    y-line and with DELTA, and n_i*(m_i + m_3) at E0.X_INF, E1.X_0 and E2.X_1.
    So certify's smoothness gate, which follows its admissibility gate, can
    only fail on an injected verdict.
    """
    n = f.n
    table = branch_table(f)
    return all(gcd(u, v, n) == 1 for u, v in table.values()) and all(
        gcd(table[a][0] * table[b][1] - table[b][0] * table[a][1], n) == 1 for a, b in ADJACENT_PAIRS
    )


# ---------------------------------------------------------------------------
# numerical invariants


@dataclass(frozen=True)
class SurfaceInvariants:
    g: int
    b: int
    e: int
    K2: int
    chi: int
    slope: Fraction
    deg_V: int
    mu: int
    ball_quotient: bool
    irregularity: int
    p_g: int


def invariants(f: FamilyData) -> SurfaceInvariants:
    """All numerical invariants of the fibred surface, exactly.

    deg V is computed as chi - (g-1)(b-1) with chi from Noether; the closed
    form (n^2 - 1)/12 and the Zeuthen-Segre count mu = 3 of singular fibres
    (each two genus-b curves meeting once) are checked on every call
    (InternalInconsistencyError otherwise).
    """
    reason = admissibility_reason(f.n, f.w.m, f.base_weights)
    if reason is not None:
        raise InadmissibleFamilyError(reason)
    n = f.n
    g = n - 1
    b = (n - 1) // 2
    e = 2 * n * n - 10 * n + 15
    k2 = 5 * (n - 2) ** 2
    chi = (k2 + e) // 12
    deg_v = chi - (g - 1) * (b - 1)
    mu = e - 4 * (g - 1) * (b - 1)
    slope = Fraction(k2, e)
    p_g = chi - 1 + b
    if (k2 + e) % 12 or deg_v * 12 != n * n - 1 or mu != 3 or p_g < 0:
        raise InternalInconsistencyError(
            f"invariants at n={n}: K2+e={k2 + e}, deg V={deg_v}, mu={mu}, p_g={p_g}"
        )
    return SurfaceInvariants(
        g=g,
        b=b,
        e=e,
        K2=k2,
        chi=chi,
        slope=slope,
        deg_V=deg_v,
        mu=mu,
        ball_quotient=slope == 3,
        irregularity=b,
        p_g=p_g,
    )


# ---------------------------------------------------------------------------
# normalization up to the construction's symmetries


def _images(n: int, hs, xs) -> dict[tuple[int, ...], list[tuple[int, ...]]]:
    """For each permutation p of the first three places, the p(h*xs) over units h with sum n."""
    # rescaling commutes with permuting, so xs is rescaled once and then permuted
    hxs = [hx for hx in (tuple(h * x % n for x in xs) for h in hs) if sum(hx) == n]
    return {p: [(hx[p[0]], hx[p[1]], hx[p[2]], *hx[3:]) for hx in hxs] for p in itertools.permutations(range(3))}


def family_orbit(f: FamilyData):
    """Orbit of the family datum under the symmetries of the construction.

    Generators: unit rescaling of (m0..m3) preserving sum(m) = n, independent
    unit rescaling of (n0, n1, n2) preserving its sum, and simultaneous
    permutations of (m0, m1, m2) and (n0, n1, n2) (the three blown-up points
    are permuted as pairs, m3's role is fixed).
    """
    hs = units(f.n)
    bw_images = _images(f.n, hs, f.base_weights)
    seen = set()
    for p, pms in _images(f.n, hs, f.w.m).items():
        for pm in pms:
            for pb in bw_images[p]:
                if (pm, pb) not in seen:
                    seen.add((pm, pb))
                    yield pm, pb


def canonical_family(f: FamilyData) -> FamilyData:
    """Lexicographically least representative of the symmetry orbit."""
    best = min(family_orbit(f))
    return family(f.n, best[0], best[1])


def iter_canonical_families(n: int):
    """canonical_family of each symmetry class for this n, in increasing order, by a least-in-orbit test."""
    # (m, bw) is least in its orbit iff m is least among the p(h*m) and bw among the p(u*bw)
    # for every p in m's stabilizer: an image with a larger m-part is a larger pair
    if n < 5 or not admissible_exists(n):
        return
    hs = units(n)
    ms, bws = _admissible_parts(n)
    least_bw = {bw: {p: min(pbs) for p, pbs in _images(n, hs, bw).items()} for bw in bws}
    for m in ms:
        m_images = _images(n, hs, m)
        if min(map(min, m_images.values())) < m:
            continue
        stabilizer = [p for p, pms in m_images.items() if m in pms]
        for bw, least in least_bw.items():
            if all(least[p] >= bw for p in stabilizer):
                yield family(n, m, bw)
