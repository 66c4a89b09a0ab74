"""Naive references for the oracle tests, each written once.

They use the package's matrix and field arithmetic, which the cyclotomic tests check on their
own, and none of the shortcuts they are compared against.  A copy of former production code
stays in a test module only where a comment there names the property that only it can check.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

import mpmath

from fujitacert import cyclotomic, surfaces
from fujitacert.cyclotomic import CyclotomicNumber, real_sign, sum_of_products
from fujitacert.monodromy import (
    Finiteness,
    FinitenessVerdict,
    ReducibleNoUniqueFormError,
    has_finite_order,
    mat_conj_transpose,
    mat_det,
    mat_identity,
    mat_is_identity,
    mat_mul,
    mat_trace,
)
from fujitacert.residues import InternalInconsistencyError, units


def euler_phi(n):
    """phi(n) by trial division."""
    result, m, p = n, n, 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n):
    """Phi_n, low to high, as x^n - 1 divided by Phi_d for each proper divisor d, by long division from the top."""
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            den = cyclotomic_polynomial(d)  # monic
            out = [0] * (len(poly) - len(den) + 1)
            for k in range(len(out) - 1, -1, -1):
                out[k] = coeff = poly[k + len(den) - 1]
                for i, c in enumerate(den):
                    poly[k + i] -= coeff * c
            if any(poly):
                raise InternalInconsistencyError("non-exact polynomial division")
            poly = out
    return tuple(poly)


class DensePowerBasis:
    """An element of Q(zeta_n) as all phi(n) of its power-basis coefficients, as Fractions.

    The dense form the package's sparse terms replace, written without them: a sum adds whole
    vectors, and every other map is a buffer of exponents reduced by x^n = 1 and then by long
    division by cyclotomic_polynomial above (in integers over one common denominator).
    """

    def __init__(self, level, coeffs):
        self.level, self.coeffs = level, tuple(Fraction(c) for c in coeffs)

    @classmethod
    def of(cls, x):
        """The vector of a package element, read off its terms and denominator alone."""
        coeffs = [0] * euler_phi(x.level)
        for i, c in x.terms:
            coeffs[i] = Fraction(c, x.den)
        return cls(x.level, coeffs)

    @classmethod
    def reduce(cls, level, raw):
        """sum c*x^k over raw = {k: c}, any k >= 0."""
        phi = cyclotomic_polynomial(level)
        deg, den = len(phi) - 1, lcm(1, *(Fraction(c).denominator for c in raw.values()))
        buf = [0] * level
        for k, c in raw.items():
            buf[k % level] += int(c * den)
        for k in range(level - 1, deg - 1, -1):  # subtract buf[k] * x^(k - deg) * Phi_n
            c = buf[k]
            if c:
                for j, p in enumerate(phi):
                    buf[k - deg + j] -= c * p
        return cls(level, [Fraction(b, den) for b in buf[:deg]])

    def items(self):
        return {i: c for i, c in enumerate(self.coeffs) if c}

    def __eq__(self, other):
        return self.level == other.level and self.coeffs == other.coeffs

    def __add__(self, other):
        return DensePowerBasis(self.level, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self):
        return DensePowerBasis(self.level, [-a for a in self.coeffs])

    def __mul__(self, other):
        raw = {}
        for i, a in self.items().items():
            for k, b in other.items().items():
                raw[i + k] = raw.get(i + k, 0) + a * b
        return DensePowerBasis.reduce(self.level, raw)

    def exponent_map(self, f):
        """sum c*x^f(i) over the terms c*x^i: a Galois image or a shift."""
        raw = {}
        for i, c in self.items().items():
            raw[f(i)] = raw.get(f(i), 0) + c
        return DensePowerBasis.reduce(self.level, raw)

    def is_zero(self):
        return not any(self.coeffs)

    def is_rational(self):
        return not any(self.coeffs[1:])

    def sign(self):
        """The sign of the value at zeta = exp(2*pi*i/n), at 60 digits, for a real element."""
        with mpmath.workdps(60):
            total = sum(c.numerator * mpmath.cospi(mpmath.mpf(2 * i) / self.level) / c.denominator
                        for i, c in self.items().items())
            assert total == 0 or abs(total) > mpmath.mpf(10) ** -40, total
            return (total > 0) - (total < 0)


def letters(t):
    """{matrix: name} of g0, g1, ginf, then t.inverses(), in that order; a repeated matrix keeps its first name."""
    found = {}
    for name, g in t.generators() + t.inverses():
        found.setdefault(g, name)
    return found


def exact_key(m):
    return 0, m


def walk(t, key):
    """Breadth-first walk of G = <g0, g1, ginf> from the identity, by right multiplication with the letters.

    key(m) = (u, r) names the class of m by r and places m in it by u.  Each class other than the
    identity's is yielded once, as (matrix, word, None) with its first word, in order of word
    length and, within a length, of the letters; a product meeting a known class at another u is
    yielded as (matrix, word, d), d the first u minus its own.  With exact_key a class is one
    element, and every element is yielded once.
    """
    steps = letters(t).items()
    identity = mat_identity(t.level)
    u, r = key(identity)
    seen = {r: u}
    frontier = [(identity, ())]
    while frontier:
        next_frontier = []
        for mat, word in frontier:
            for g, name in steps:
                prod = mat_mul(mat, g)
                u, r = key(prod)
                if r in seen:
                    if seen[r] != u:
                        yield prod, word + (name,), seen[r] - u
                    continue
                seen[r] = u
                next_frontier.append((prod, word + (name,)))
                yield prod, word + (name,), None
        frontier = next_frontier


def exact_closure(t, cap=20000, max_word_len=8):
    """group_closure by the exact walk: every word up to max_word_len tested, every element counted.

    Finite order is the package's has_finite_order, which the two references below check.
    """
    order = 1
    for mat, word, _ in walk(t, exact_key):
        if len(word) <= max_word_len:
            if not has_finite_order(mat, t.level):
                witness = (("kind", "infinite_order_word"), ("word", "*".join(word)))
                return FinitenessVerdict(Finiteness.INFINITE, witness=witness)
        elif order >= cap:
            return FinitenessVerdict(Finiteness.INCONCLUSIVE, cap=cap)
        order += 1
    if order > cap:
        return FinitenessVerdict(Finiteness.INCONCLUSIVE, cap=cap)
    return FinitenessVerdict(Finiteness.FINITE, order=order)


def finite_order_bound(level):
    """lcm of all k with phi(k) <= 2*phi(level), which a finite order over Q(zeta_level) divides.

    The eigenvalues are roots of unity of degree at most 2 over the field, so of such orders k.
    """
    target = 2 * euler_phi(level)
    # phi(k) >= sqrt(k/2), so phi(k) <= target forces k <= 2*target^2
    return lcm(*(k for k in range(1, 2 * target * target + 2) if euler_phi(k) <= target))


def has_finite_order_by_power(m, level):
    """M^B == I for B = finite_order_bound(level), by repeated squaring."""
    power, base, e = mat_identity(level), m, finite_order_bound(level)
    while e:
        if e & 1:
            power = mat_mul(power, base)
        base = mat_mul(base, base)
        e >>= 1
    return mat_is_identity(power)


def has_finite_order_by_unit_loop(m, level):
    """Kronecker's test with no lookup: roots of unity by x*conj(x) = 1, and every unit h.

    The reference at large levels, where finite_order_bound has 59 (n = 25) to 285 (n = 97) bits.
    """

    def is_root_of_unity(x):
        return x.den == 1 and x * x.conjugate() == CyclotomicNumber.one(x.level)

    if m[0][1].is_zero() and m[1][0].is_zero() and m[0][0] == m[1][1]:
        return is_root_of_unity(m[0][0])
    t, d = mat_trace(m), mat_det(m)
    if t.den != 1 or not is_root_of_unity(d) or t != d * t.conjugate():
        return False
    err = cyclotomic.float_error_bound(t)
    for h in units(level):
        size = abs(t.complex_value(h))
        if size < 2 - err:
            continue
        if size > 2 + err or real_sign((t * t.conjugate()).galois(h) - 4) >= 0:
            return False
    return True


def _kernel(rows, ncols, level):
    """Kernel basis by Gauss-Jordan: per free column fc, 1 there and minus column fc of the pivot rows."""
    zero, one = CyclotomicNumber.zero(level), CyclotomicNumber.one(level)
    matrix = [row[:] for row in rows]
    pivots = []
    for col in range(ncols):
        r = len(pivots)
        pivot_row = next((i for i in range(r, len(matrix)) if not matrix[i][col].is_zero()), None)
        if pivot_row is None:
            continue
        matrix[r], matrix[pivot_row] = matrix[pivot_row], matrix[r]
        inv = matrix[r][col].inverse()
        matrix[r] = [c * inv for c in matrix[r]]
        for i in range(len(matrix)):
            if i != r and not matrix[i][col].is_zero():
                minus_factor = -matrix[i][col]
                matrix[i] = [sum_of_products((one, a), (minus_factor, b)) for a, b in zip(matrix[i], matrix[r])]
        pivots.append(col)
    return [
        [one if c == fc else -matrix[pivots.index(c)][fc] if c in pivots else zero for c in range(ncols)]
        for fc in range(ncols)
        if fc not in pivots
    ]


def invariant_line(t):
    """The solutions M of g* M g = M for g0 and g1, by Gauss-Jordan on the 8 equations: None if only 0."""
    # unknowns (m00, m01, m10, m11): equation (r, c) of g* M g - M = 0, g* = gbar^T, gives m_kl
    # the coefficient g*[r][k]*g[l][c] - [(k, l) = (r, c)]
    rows = [
        [gc[r][k] * g[l][c] - int((k, l) == (r, c)) for k in (0, 1) for l in (0, 1)]
        for g, gc in ((g, mat_conj_transpose(g)) for g in (t.g0, t.g1))
        for r in (0, 1)
        for c in (0, 1)
    ]
    basis = _kernel(rows, 4, t.level)
    if len(basis) > 1:
        raise ReducibleNoUniqueFormError(f"invariant form space has dimension {len(basis)}, expected 1")
    return ((basis[0][0], basis[0][1]), (basis[0][2], basis[0][3])) if basis else None


def hermitian_signature(m):
    """The signature of a Hermitian 2x2 form from the signs of its determinant and trace.

    A zero determinant is ReducibleNoUniqueFormError: the kernel of a degenerate invariant form
    is a line that every generator fixes.
    """
    det_sign = real_sign(mat_det(m))
    if det_sign == 0:
        raise ReducibleNoUniqueFormError("degenerate invariant form")
    if det_sign < 0:
        return (1, 1)
    return (2, 0) if real_sign(mat_trace(m)) > 0 else (0, 2)


def hermitian_form(t):
    """invariant_hermitian_form from the Gauss-Jordan line m0: m0* = alpha*m0 checked by cross-multiplying,
    then X + X* for X = zeta^k*m0 at the first k where that is nonzero, its signature read by
    hermitian_signature, and a definite form oriented by the Hodge convention."""
    level = t.level
    m0 = invariant_line(t)
    if m0 is None:
        raise ReducibleNoUniqueFormError("invariant form space has dimension 0, expected 1")
    m0_ct = mat_conj_transpose(m0)
    cells = [(r, c) for r in range(2) for c in range(2)]
    p, p_ct = next((m0[r][c], m0_ct[r][c]) for r, c in cells if not m0[r][c].is_zero())
    if any(m0_ct[r][c] * p != p_ct * m0[r][c] for r, c in cells):
        raise InternalInconsistencyError("conjugate-transpose left the solution line")
    pairs = list(zip(m0[0] + m0[1], m0_ct[0] + m0_ct[1]))
    sums = ([x.mul_zeta_power(k) + y.mul_zeta_power(-k) for x, y in pairs] for k in range(level))
    s = next((s for s in sums if any(not x.is_zero() for x in s)), None)
    if s is None:
        raise InternalInconsistencyError("no Hermitian representative found")
    herm = ((s[0], s[1]), (s[2], s[3]))
    signature = hermitian_signature(herm)
    if signature in ((2, 0), (0, 2)):
        ka, kb, kc = t.exponents
        wanted_p = (ka + (kc - ka) % level + (kb - kc) % level + (-kb) % level) // level - 1
        if wanted_p in (0, 2) and signature[0] != wanted_p:
            herm = ((-herm[0][0], -herm[0][1]), (-herm[1][0], -herm[1][1]))
            signature = (signature[1], signature[0])
    return herm, signature


def inverse(m):
    """The adjugate over the field inverse of the determinant."""
    (a, b), (c, d) = m
    r = mat_det(m).inverse()
    return ((d * r, -b * r), (-c * r, a * r))


def decimal_ladder_sign(x):
    """The sign of a real element: a decimal sum against a (sum|c|+1)*10^(5-dps) bound, dps rising."""
    if x.is_rational():
        return (x.num[0] > 0) - (x.num[0] < 0)
    for dps in (30, 80, 200, 500, 1200, 3000, 8000):
        with mpmath.workdps(dps):
            total = sum(c * mpmath.cospi(mpmath.mpf(2 * i) / x.level) for i, c in enumerate(x.num) if c)
            if abs(total) > (sum(abs(c) for c in x.num) + 1) * mpmath.mpf(10) ** (5 - dps):
                return 1 if total > 0 else -1
    raise AssertionError(f"decimal ladder undecided on {x!r}")


def least_in_orbit_families(n):
    """The canonical families of n in increasing order, each (m, bw) tested as least in its orbit.

    m is kept when it is least among all its images p(h*m) with sum n, and bw when, for every p
    in m's stabilizer, it is least among the p(u*bw); no image is marked or shared between tests.
    """
    if not surfaces.admissible_exists(n):
        return
    hs = units(n)
    ms, bws = surfaces._admissible_parts(n)
    least_bw = {bw: {p: min(pbs) for p, pbs in surfaces._images(n, hs, bw).items()} for bw in bws}
    for m in ms:
        m_images = surfaces._images(n, hs, m)
        if min(map(min, m_images.values())) < m:
            continue
        stabilizer = [p for p, pms in m_images.items() if m in pms]
        for bw, least in least_bw.items():
            if all(least[p] >= bw for p in stabilizer):
                yield surfaces.family(n, m, bw)


def smoothness_by_label(f):
    """Combinatorial smoothness from the ten inertia pairs by label and the crossings by name.

    Order n at every branch divisor, gcd(u, v, n) = 1, and a unit determinant at each pair of
    surfaces.ADJACENT_PAIRS, each looked up by its labels.
    """
    n = f.n
    m0, m1, m2, m3 = f.w.m
    n0, n1, n2 = f.base_weights
    pairs = {
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
    return all(gcd(u, v, n) == 1 for u, v in pairs.values()) and all(
        gcd(pairs[a][0] * pairs[b][1] - pairs[b][0] * pairs[a][1], n) == 1 for a, b in surfaces.ADJACENT_PAIRS
    )
