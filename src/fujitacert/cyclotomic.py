"""Exact arithmetic in cyclotomic fields Q(zeta_n), n the level.

An element is its nonzero terms (i, c) in the power basis 1, x, ..., x^(phi(n)-1) modulo Phi_n,
sorted by i, over one positive reduced denominator: a canonical form, so equality, hashing,
negation, sums and zero tests cost O(terms), and dense coefficients are built only to print or
look up.  sum_of_products forms a_1*b_1 + ... + a_k*b_k in O(sum t_a*t_b) integer operations,
t the number of terms; a product is its one-pair case.  The one fold, _fold, turns exponents
into terms: by sorting below phi(n), else in a dense buffer where x^k, phi(n) <= k < n, adds its
row of _level_context, the one table of n - phi(n) rows (one row at a prime n).  Products,
Galois images, shifts by roots of unity and inverse_one_minus_root all end in it.

All arithmetic stays in integers.  A field inverse is a norm quotient (the
other Galois conjugates of the numerator over its rational norm), or for 1 - y,
y a root of unity, a sum of shifts.  `Fraction` appears only at the edges.

Signs of real elements are decided exactly: an exact-zero shortcut via the
normal form, then a float sum at the distinguished embedding
zeta = exp(2*pi*i/n) that decides whenever it lies outside a rigorous error
band around zero, and only inside that band mpmath.iv interval evaluation at
rising precision until the interval excludes zero (mpmath is imported there,
so a run whose signs all fall outside the band never loads it).

The roots of unity in Q(zeta_n) form mu_N = {+-zeta_n^k}, N = 2n for odd n and
n otherwise (Washington, Ex. 2.3); root_of_unity_exponent finds u with x = zeta_N^u
by lookup, of a single +-1 term or +- a folded row of _level_context.
The monodromy closure reads its matrices' determinants this way, and so their
classes modulo root-of-unity scalars.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, lcm
from operator import itemgetter

from .residues import InternalInconsistencyError


# ---------------------------------------------------------------------------
# integer polynomial plumbing


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients (low to high) of the n-th cyclotomic polynomial.

    Phi_n is the product of (x^d - 1)^mu(n/d) over d | n.  Every multiplication comes first, so
    each division by x^d - 1 is exact: it runs from the low end, as a power series, and the top
    d terms of the quotient must vanish.
    """
    if n < 1:
        raise ValueError("level must be >= 1")
    up, down = [n], []  # the d | n with mu(n/d) = +1 and -1
    for p in range(2, n + 1):
        if n % p == 0 and all(p % q for q in range(2, isqrt(p) + 1)):
            up, down = up + [d // p for d in down], down + [d // p for d in up]
    poly = [1]
    for d in up:
        poly = [a - b for a, b in zip([0] * d + poly, poly + [0] * d)]
    for d in down:
        for k in range(len(poly)):
            poly[k] = (poly[k - d] if k >= d else 0) - poly[k]
        if any(poly[-d:]):
            raise InternalInconsistencyError("non-exact polynomial division")
        del poly[-d:]
    return tuple(poly)


@lru_cache(maxsize=None)
def _level_context(n: int) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """(degree, rows) where rows[e] = coefficients of x^(degree+e) mod Phi_n, for degree+e < n."""
    phi = cyclotomic_polynomial(n)
    deg = len(phi) - 1
    rows: list[tuple[int, ...]] = []
    shared: dict[int, int] = {}  # one int object per value: at n = 5005, 6.1 M entries take 71 values
    terms = [(i, c) for i, c in enumerate(phi[:deg]) if c]
    # x^deg = -(phi_0 + phi_1 x + ... + phi_{deg-1} x^{deg-1})
    current = [shared.setdefault(-c, -c) for c in phi[:deg]]
    for _ in range(deg, n):
        rows.append(tuple(current))
        lead = current.pop()
        current.insert(0, 0)
        if lead:
            for i, c in terms:
                current[i] = shared.setdefault(v := current[i] - lead * c, v)
    return deg, tuple(rows)


_coefficient = itemgetter(1)


def _fold(n: int, raw: dict[int, int] | list[int], den: int) -> CyclotomicNumber:
    """sum c*x^k / den over raw = {k: c} or [c_0, c_1, ...], 0 <= k < 2n, den > 0, in canonical form.

    A map with every exponent below phi(n) is its terms, sorted, zeros dropped.  Else, in a dense
    list from the top down, x^k = x^(k-n) for k >= n, and x^k, k >= phi(n), adds its row c times.
    """
    deg, rows = _level_context(n)
    if isinstance(raw, dict):
        items = sorted(raw.items())
        if not items or items[-1][0] < deg:
            return _element(n, tuple(list(filter(_coefficient, items)) if 0 in raw.values() else items), den)
        raw = [raw.get(k, 0) for k in range(items[-1][0] + 1)]
    for k in range(len(raw) - 1, deg - 1, -1):
        c = raw[k]
        if c and k >= n:
            raw[k - n] += c
        elif c:
            for i, r in enumerate(rows[k - deg]):
                if r:
                    raw[i] += c * r
    del raw[deg:]  # each tuple of terms is made from a list: tuple(iterator) is sized 10, then shrunk
    return _element(n, tuple(list(filter(_coefficient, enumerate(raw)))), den)


def _element(level: int, terms: tuple[tuple[int, int], ...], den: int) -> CyclotomicNumber:
    """terms / den, terms sorted with nonzero coefficients and den > 0, divided into lowest terms."""
    if den != 1:
        g = gcd(den, *[c for _, c in terms])
        if g > 1:
            terms, den = tuple([(i, c // g) for i, c in terms]), den // g
    x = object.__new__(CyclotomicNumber)
    x.level, x.terms, x.den, x._hash = level, terms, den, None
    return x


class CyclotomicNumber:
    """An element of Q(zeta_n): terms, the pairs (i, c), i < phi(n), c != 0, in increasing i, over den.

    den > 0 is prime to every c, so the form is canonical; num, the dense vector, is a view.
    """

    __slots__ = ("level", "terms", "den", "_hash")

    def __init__(self, level: int, num: tuple[int, ...], den: int = 1):
        deg, _ = _level_context(level)
        if len(num) != deg:
            raise ValueError(f"need {deg} coefficients for level {level}, got {len(num)}")
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        g = gcd(den, *num) * (-1 if den < 0 else 1)
        self.level, self.den, self._hash = level, den // g, None
        self.terms = tuple([(i, c // g) for i, c in enumerate(num) if c])

    # -- constructors -------------------------------------------------

    @classmethod
    def from_rational(cls, level: int, value) -> CyclotomicNumber:
        q = Fraction(value)
        return _element(level, ((0, q.numerator),) if q else (), q.denominator)

    @classmethod
    def zero(cls, level: int) -> CyclotomicNumber:
        return _element(level, (), 1)

    @classmethod
    def one(cls, level: int) -> CyclotomicNumber:
        return _element(level, ((0, 1),), 1)

    # -- canonical form / comparisons ----------------------------------

    @property
    def num(self) -> tuple[int, ...]:
        """The phi(n) power-basis coefficients of the numerator, for printing and lookup."""
        out = [0] * _level_context(self.level)[0]
        for i, c in self.terms:
            out[i] = c
        return tuple(out)

    def coefficients(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, self.den) for c in self.num)

    def is_zero(self) -> bool:
        return not self.terms

    def is_rational(self) -> bool:
        return not self.terms or self.terms[-1][0] == 0

    def __eq__(self, other) -> bool:
        if not isinstance(other, CyclotomicNumber):
            return NotImplemented
        return self.terms == other.terms and self.den == other.den and self.level == other.level

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.level, self.den, self.terms))
        return self._hash

    def __repr__(self):
        return f"CyclotomicNumber(level={self.level}, num={self.num}, den={self.den})"

    # -- ring operations ------------------------------------------------

    def _coerce(self, other) -> CyclotomicNumber | None:
        if isinstance(other, CyclotomicNumber):
            if other.level != self.level:
                raise ValueError("mixed cyclotomic levels")
            return other
        if isinstance(other, (int, Fraction)):
            return CyclotomicNumber.from_rational(self.level, other)
        return None

    def __add__(self, other) -> CyclotomicNumber:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d = lcm(self.den, o.den)
        a, b = d // self.den, d // o.den
        raw = {i: a * c for i, c in self.terms}
        for i, c in o.terms:
            raw[i] = raw.get(i, 0) + b * c
        return _fold(self.level, raw, d)

    __radd__ = __add__

    def __neg__(self) -> CyclotomicNumber:
        return _element(self.level, tuple([(i, -c) for i, c in self.terms]), self.den)

    def __sub__(self, other) -> CyclotomicNumber:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other) -> CyclotomicNumber:
        return (-self) + other

    def __mul__(self, other) -> CyclotomicNumber:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return sum_of_products((self, o))

    __rmul__ = __mul__

    def inverse(self) -> CyclotomicNumber:
        """Field inverse as an integer norm quotient (Cohen, GTM 138, 4.3).

        With P the product of sigma_h(num) over the units h != 1, the norm
        Nm(num) = num*P is a nonzero rational, and x^-1 = den*P / Nm(num).  Only
        integer products and Galois images are used; a norm that is not a
        nonzero rational is an InternalInconsistencyError.
        """
        if self.is_zero():
            raise ZeroDivisionError("cyclotomic zero has no inverse")
        n = self.level
        x = _element(n, self.terms, 1)
        cofactor = CyclotomicNumber.one(n)
        for h in range(2, n):
            if gcd(h, n) == 1:
                cofactor = cofactor * x.galois(h)
        norm = x * cofactor
        if norm.is_zero() or not norm.is_rational():
            raise InternalInconsistencyError(f"norm of {x!r} is {norm!r}, not a nonzero rational")
        # num, P and N(num) lie in Z[zeta], so cofactor and norm have den 1
        return CyclotomicNumber(n, tuple(self.den * c for c in cofactor.num), norm.terms[0][1])

    # -- Galois structure -------------------------------------------------

    def galois(self, h: int) -> CyclotomicNumber:
        """Image under zeta -> zeta^h; h must be a unit mod the level."""
        n = self.level
        if gcd(h, n) != 1:
            raise ValueError(f"{h} is not a unit mod {n}")
        return _fold(n, {i * h % n: c for i, c in self.terms}, self.den)  # i -> i*h is one-to-one

    def conjugate(self) -> CyclotomicNumber:
        """Complex conjugation zeta -> zeta^(-1)."""
        return self if self.level <= 2 else self.galois(self.level - 1)

    def is_real(self) -> bool:
        return self == self.conjugate()

    def mul_zeta_power(self, k: int) -> CyclotomicNumber:
        """Fast multiplication by zeta^k (an exponent shift plus reduction)."""
        n, k = self.level, k % self.level
        return _fold(n, {(i + k) % n: c for i, c in self.terms}, self.den) if k else self

    def mul_root_of_unity(self, u: int) -> CyclotomicNumber:
        """zeta_N^u * self for the generator zeta_N of mu_N: zeta_n, or -zeta_n^((n+1)/2) at odd n.

        At odd n, zeta_N^2 = zeta_n^(n+1) = zeta_n and zeta_N^n = -1; at even
        n, -1 = zeta_n^(n/2).  So zeta_n = zeta_N^(N/n) and -1 = zeta_N^(N/2).
        """
        n = self.level
        if n % 2 == 0:
            return self.mul_zeta_power(u)
        image = self.mul_zeta_power(u * (n + 1) // 2)
        return -image if u % 2 else image

    def root_of_unity_exponent(self) -> int | None:
        """The u in [0, N) with self = zeta_N^u (zeta_N as in mul_root_of_unity), or None.

        Complete, as mu(Q(zeta_n)) = mu_N = {+-zeta_n^k : k < n}: zeta_n^k is the single term x^k
        below phi(n) and a _power_rows key above; zeta_n = zeta_N^(N/n), -1 = zeta_N^(N/2).
        """
        if self.den != 1:
            return None
        n, count = self.level, roots_of_unity_order(self.level)
        if len(self.terms) == 1:  # one term c*x^k: a root of unity iff c = +-1
            ((k, c),) = self.terms
            sign = 0 if c == 1 else count // 2 if c == -1 else None
            return None if sign is None else (k * (count // n) + sign) % count
        for row, sign in ((self.num, 0), ((-self).num, count // 2)):
            k = _power_rows(n).get(row)
            if k is not None:
                return (k * (count // n) + sign) % count
        return None

    # -- numeric evaluation ----------------------------------------------

    def complex_value(self, h: int = 1) -> complex:
        """Float value at the embedding zeta -> exp(2*pi*i*h/n)."""
        return next(self.complex_values((h,)))

    def complex_values(self, hs):
        """complex_value(h) for each h in hs, lazily, as a sum over the nonzero terms."""
        n, table, terms = self.level, _embedding_table(self.level), self.terms
        for h in hs:
            yield sum((c * table[(i * h) % n] for i, c in terms), 0j) / self.den


@lru_cache(maxsize=None)
def _embedding_table(n: int) -> tuple[complex, ...]:
    """exp(2*pi*i*k/n) for k in [0, n), the values complex_value sums, each computed once."""
    return tuple(cmath.exp(2j * cmath.pi * k / n) for k in range(n))


@lru_cache(maxsize=None)
def _power_rows(n: int) -> dict[tuple[int, ...], int]:
    """{row of x^k: k} over phi(n) <= k < n, keyed by the _level_context rows themselves."""
    deg, rows = _level_context(n)
    return {row: deg + e for e, row in enumerate(rows)}


def sum_of_products(*pairs: tuple[CyclotomicNumber, CyclotomicNumber]) -> CyclotomicNumber:
    """a_1*b_1 + ... + a_k*b_k for pairs (a_i, b_i) at one level (Cohen, GTM 138, 4.3).

    The pairs' terms are multiplied at the common denominator D into one buffer of exponents
    i + k < 2n, a map if each top exponent sum is below phi(n), else a list; _fold folds it once.
    """
    level, den, top = pairs[0][0].level, 1, -1
    for a, b in pairs:
        if a.level != level or b.level != level:
            raise ValueError("mixed cyclotomic levels")
        if a.den != 1 or b.den != 1:
            den = lcm(den, a.den * b.den)
        if a.terms and b.terms and a.terms[-1][0] + b.terms[-1][0] > top:
            top = a.terms[-1][0] + b.terms[-1][0]
    dense = top >= _level_context(level)[0]
    out = [0] * (top + 1) if dense else {}
    for a, b in pairs:
        scale, b_terms = den // (a.den * b.den), b.terms
        for i, c in a.terms:
            c *= scale
            for k, e in b_terms:
                k += i
                if dense or k in out:
                    out[k] += c * e
                else:
                    out[k] = c * e
    return _fold(level, out, den)


def roots_of_unity_order(level: int) -> int:
    """N = |mu(Q(zeta_level))|: 2*level for odd level, level otherwise."""
    return 2 * level if level % 2 else level


def inverse_one_minus_root(level: int, u: int) -> CyclotomicNumber:
    """(1 - y)^-1 = -(1/m) * sum_{0<j<m} j*y^j for y = zeta_N^u != 1 of order m: a sum of shifts.

    (1 - y) * sum_{0<j<m} j*y^j = sum_{0<j<m} y^j - (m - 1)*y^m = -m.  zeta_N is mul_root_of_unity's:
    zeta_N^v = zeta_n^v at even n, (-1)^v * zeta_n^(v*(n+1)/2) at odd n."""
    count = roots_of_unity_order(level)
    m = count // gcd(count, u)
    if m == 1:
        raise ZeroDivisionError("1 - 1 has no inverse")
    raw: dict[int, int] = {}
    for j in range(1, m):
        v = u * j % count
        k = v * (level + 1) // 2 % level if level % 2 else v
        raw[k] = raw.get(k, 0) + (j if level % 2 and v % 2 else -j)
    return _fold(level, raw, m)


def float_error_bound(x: CyclotomicNumber) -> float:
    """Bound on |complex_value(h) - sigma_h(num)| for the numerator num of x, with a 4x margin.

    This bounds complex_value itself when x is integral.  Each term
    c*exp(2*pi*i*k/n) is off by at most |c|*27*2^-53 (rounding of the angle,
    cos/sin within one ulp, one product), each of the phi(n) additions by at
    most 2^-53 of a partial sum bounded by S = sum|c|, and abs() by one ulp:
    S*(phi(n) + 27)*2^-53 + 2^-51 in all.
    """
    return (sum(abs(c) for _, c in x.terms) * (_level_context(x.level)[0] + 32) + 8) * 2.0**-51


def zeta(level: int, k: int = 1) -> CyclotomicNumber:
    """zeta_n^k as a field element, n the level: a power of x, not of mul_root_of_unity's zeta_N."""
    k %= level
    deg, rows = _level_context(level)
    if k < deg:
        return _element(level, ((k, 1),), 1)
    return _element(level, tuple(list(filter(_coefficient, enumerate(rows[k - deg])))), 1)


# ---------------------------------------------------------------------------
# exact signs of real elements


class SignUndecidableError(InternalInconsistencyError):
    """The precision ladder ran out on a provably nonzero real number."""


class NonRealElementError(InternalInconsistencyError):
    """real_sign was handed an element that is not real."""


_SIGN_DPS_LADDER = (30, 80, 200, 500, 1200, 3000, 8000)


def real_sign(x: CyclotomicNumber) -> int:
    """Exact sign (-1, 0, 1) of a real cyclotomic number.

    Zero is decided by the canonical form.  The sign of x is that of its
    integral numerator (den > 0), whose float value at zeta = exp(2*pi*i/n)
    is within float_error_bound of the true value: outside that band the
    float sign is a proof.  Inside it, the value is enclosed in mpmath.iv
    intervals at rising precision until one excludes 0 (a proof).
    """
    if x.is_zero():
        return 0
    if x.is_rational():
        return -1 if x.terms[0][1] < 0 else 1
    if not x.is_real():
        raise NonRealElementError(f"real_sign on non-real element {x!r}")
    n = x.level
    try:
        approx = _element(n, x.terms, 1).complex_value().real
        if abs(approx) > float_error_bound(x):
            return 1 if approx > 0 else -1
    except OverflowError:  # coefficients past the float range: the ladder alone decides
        pass
    from mpmath import iv  # inside the band only: no CLI run reaches it in normal use
    saved = iv.dps
    try:
        for dps in _SIGN_DPS_LADDER:
            iv.dps = dps
            total = sum(c * iv.cos(2 * i * iv.pi / n) for i, c in x.terms)
            if total.a > 0 or total.b < 0:
                return 1 if total.a > 0 else -1
    finally:
        iv.dps = saved
    raise SignUndecidableError(f"sign of {x!r} not decided by the interval ladder {_SIGN_DPS_LADDER}")
