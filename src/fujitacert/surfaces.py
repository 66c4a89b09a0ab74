"""Fibred surfaces from (Z/n)^2 covers of the degree-5 del Pezzo.

A family is the covering datum (n; m0..m3) together with base weights
(n0, n1, n2).  Admissibility (each m_j, each n_i and each m_i + m_3 a unit
mod n, sums equal to n, gcd(n,6) = 1) guarantees the total space is a smooth
minimal surface of general type fibred over a curve; every numerical
invariant is a closed form in n alone, computed exactly once per level here, with the
smoothness verification reduced to one verdict on its combinatorial content
(orders and pairwise spans of inertia elements in (Z/n)^2, Pardini 1991),
which admissibility already implies.  Families are walked in increasing
order from compositions of n; normalization marks each class once from its least m: the
images of m under units and permutations, with sum n, are its class (inverses make this
symmetric, and permuting commutes with rescaling), and base weights are marked under m's stabilizer.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import gcd, prod

from .eigenspace import WeightTuple, compositions
from .residues import InternalInconsistencyError, units


class NotCoprimeTo6Error(ValueError):
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
    """Admissible data exists iff n >= 5 and gcd(n, 6) = 1: the one test of which levels have families."""
    return n >= 5 and gcd(n, 6) == 1


def standard_family(n: int) -> FamilyData:
    """The standard case m = (1, 1, 1, n-3), base weights (1, 1, n-2)."""
    if not admissible_exists(n):
        raise NotCoprimeTo6Error(f"standard family needs n >= 5 coprime to 6, got {n}")
    return family(n, (1, 1, 1, n - 3), (1, 1, n - 2))


def _admissible_parts(n: int) -> tuple[list, list]:
    """Admissible m and unit base weights for this n, each in increasing order (four parts > 0 give m_i + m_3 < n)."""
    unit = set(units(n)).issuperset
    ms = [m for m in compositions(n, 4) if unit(m) and unit((m[0] + m[3], m[1] + m[3], m[2] + m[3]))]
    return ms, [bw for bw in compositions(n, 3) if unit(bw)]


def iter_admissible_families(n: int):
    """All admissible families for this n, in strictly increasing (m, base_weights) order; one WeightTuple per m."""
    if not admissible_exists(n):
        return
    ms, bws = _admissible_parts(n)
    yield from (FamilyData(w, bw) for w in (WeightTuple(n, m) for m in ms) for bw in bws)


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


BRANCH_LABELS = ("Y_INF", "Y_0", "Y_1", "X_INF", "X_0", "X_1", "DELTA", "E0", "E1", "E2")
# the 15 crossings as index pairs into BRANCH_LABELS, read once off their labels
CROSSINGS = tuple((BRANCH_LABELS.index(a), BRANCH_LABELS.index(b)) for a, b in ADJACENT_PAIRS)


def inertia(f: FamilyData) -> tuple[tuple[int, int], ...]:
    """The ten branch divisors' (Z/n)^2 local monodromies, in BRANCH_LABELS order."""
    n = f.n
    m0, m1, m2, m3 = f.w.m
    n0, n1, n2 = f.base_weights
    return (
        (m0 % n, 0), (m1 % n, 0), (m2 % n, 0),  # Y_INF, Y_0, Y_1
        ((n - m3) % n, n0 % n), (0, n1 % n), (0, n2 % n), (m3 % n, 0),  # X_INF, X_0, X_1, DELTA
        (m0 % n, n0 % n), ((m1 + m3) % n, n1 % n), ((m2 + m3) % n, n2 % n),  # E0, E1, E2
    )


def smoothness_check(f: FamilyData) -> bool:
    """Combinatorial smoothness: inertia of order n everywhere, full span at crossings.

    (i) each divisor's monodromy (u, v) has exact order n in (Z/n)^2, i.e. gcd(u, v, n) = 1; (ii) for every
    intersecting pair the 2x2 determinant of the two monodromies is a unit mod n, i.e. the pair generates
    (Z/n)^2.  All 25 quantities are computed; (ii) is tested as gcd(prod det, n) = 1, true iff each det is a unit.

    Admissibility implies both.  (i): each monodromy has a coordinate that is an admissible unit, m_j for the
    y-lines and DELTA, n_i for the x-lines and E_i.  (ii): each of the 15 determinants is +- a product of two
    admissible units, -m_j*n_i at the six x-line/y-line crossings and at each E_i with its y-line and with
    DELTA, and n_i*(m_i + m_3) at E0.X_INF, E1.X_0 and E2.X_1.  So certify checks it on every admissible
    family as an implication, not a gate.
    """
    n = f.n
    t = inertia(f)
    orders = [gcd(u, v, n) for u, v in t]
    dets = [t[a][0] * t[b][1] - t[b][0] * t[a][1] for a, b in CROSSINGS]
    return max(orders) == 1 and gcd(prod(dets), n) == 1


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


@cache
def invariants(n: int) -> SurfaceInvariants:
    """All numerical invariants of the fibred surface of any admissible family of level n, exactly; built once per n.

    deg V is computed as chi - (g-1)(b-1) with chi from Noether; the closed
    form (n^2 - 1)/12 and the Zeuthen-Segre count mu = 3 of singular fibres
    (each two genus-b curves meeting once) are checked (InternalInconsistencyError
    otherwise).  Raises NotCoprimeTo6Error at the levels with no admissible data.
    """
    if not admissible_exists(n):
        raise NotCoprimeTo6Error(f"admissible families need n >= 5 coprime to 6, got {n}")
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
    hxs = [hx for hx in (tuple([h * x % n for x in xs]) for h in hs) if sum(hx) == n]
    return {p: [(hx[p[0]], hx[p[1]], hx[p[2]], *hx[3:]) for hx in hxs] for p in itertools.permutations(range(3))}


def _least_members(n: int, hs, xs, perms):
    """Each x of the increasing xs that no earlier x's images under perms reach, with its images."""
    marked = set()
    for x in itertools.filterfalse(marked.__contains__, xs):
        images = _images(n, hs, x)
        marked.update(itertools.chain.from_iterable(images[p] for p in perms))
        yield x, images


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
    """canonical_family of each symmetry class for this n, in increasing order, by orbit marking.

    The images p(h*x) with sum n (h a unit, p in a group P) are x's class: x = p(h*y) gives y = p^-1(h^-1*x),
    and q(k*p(h*x)) = qp(kh*x) as permuting commutes with rescaling.  So an m no earlier m's images reach is
    least in its class, and its images mark the class.  (m, bw) is least in its orbit iff m is and bw is least
    under m's stabilizer {p : m in p(h*m)}, a group, since an image with a larger m-part is a larger pair.
    """
    if not admissible_exists(n):
        return
    hs = units(n)
    ms, bws = _admissible_parts(n)
    least_bws = {}  # stabilizer -> the least base weights of its classes
    for m, m_images in _least_members(n, hs, ms, tuple(itertools.permutations(range(3)))):
        stabilizer = tuple(p for p, pms in m_images.items() if m in pms)
        if stabilizer not in least_bws:
            least_bws[stabilizer] = [bw for bw, _ in _least_members(n, hs, bws, stabilizer)]
        yield from map(FamilyData, itertools.repeat(WeightTuple(n, m)), least_bws[stabilizer])
