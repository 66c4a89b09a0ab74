"""Exact arithmetic in cyclotomic fields Q(zeta_n), n the level.

Elements are stored in the power basis 1, x, ..., x^(phi(n)-1) modulo the
n-th cyclotomic polynomial Phi_n, as an integer coefficient vector with a single
positive common denominator.  This gives canonical forms (equality is
coefficient-wise) and cheap hashing, which is what the matrix-group closure
leans on.  One kernel, sum_of_products, forms a_1*b_1 + ... + a_k*b_k in
O(k*phi(n)^2) integer operations: a sum of products is folded and normalized
once, and a product is its one-pair case.  The fold takes exponents mod n
first (x^n = 1), then rewrites x^k, phi(n) <= k < n, by its row of
_level_context: the one table, of n - phi(n) rows (one row at a prime n).

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
by lookup, of a single +-1 coefficient or +- a folded row of _level_context.
The monodromy closure reads its matrices' determinants this way, and so their
classes modulo root-of-unity scalars.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, lcm

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


def _reduce_exponents(n: int, raw: list[int]) -> list[int]:
    """Fold raw (phi(n) <= len(raw) < 2n; overwritten) into the power basis: k >= n into k - n, then the rows."""
    deg, rows = _level_context(n)
    if len(raw) > n:  # a product with 2*phi(n) <= n, as at every even n <= 12, has nothing to fold
        for k in range(n, len(raw)):
            raw[k - n] += raw[k]
    out = raw[:deg]
    for row, c in zip(rows, raw[deg:]):
        if c:
            for i, r in enumerate(row):
                if r:
                    out[i] += c * r
    return out


class CyclotomicNumber:
    """An element of Q(zeta_n) in canonical reduced form."""

    __slots__ = ("level", "num", "den", "_hash")

    def __init__(self, level: int, num: tuple[int, ...], den: int = 1):
        deg, _ = _level_context(level)
        if len(num) != deg:
            raise ValueError(f"need {deg} coefficients for level {level}, got {len(num)}")
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        if den != 1:
            if den < 0:
                num = tuple(-c for c in num)
                den = -den
            g = gcd(den, *num) if any(num) else den
            if g > 1:
                num = tuple(c // g for c in num)
                den //= g
        self.level = level
        self.num = num
        self.den = den
        self._hash = None

    # -- constructors -------------------------------------------------

    @classmethod
    def from_rational(cls, level: int, value) -> CyclotomicNumber:
        q = Fraction(value)
        deg, _ = _level_context(level)
        return cls(level, (q.numerator,) + (0,) * (deg - 1), q.denominator)

    @classmethod
    def zero(cls, level: int) -> CyclotomicNumber:
        return _element(level, (0,) * _level_context(level)[0], 1)

    @classmethod
    def one(cls, level: int) -> CyclotomicNumber:
        return _element(level, (1,) + (0,) * (_level_context(level)[0] - 1), 1)

    # -- canonical form / comparisons ----------------------------------

    def coefficients(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, self.den) for c in self.num)

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def __eq__(self, other) -> bool:
        if not isinstance(other, CyclotomicNumber):
            return NotImplemented
        return self.level == other.level and self.den == other.den and self.num == other.num

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.level, self.den, self.num))
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
        return CyclotomicNumber(
            self.level, tuple(a * x + b * y for x, y in zip(self.num, o.num)), d
        )

    __radd__ = __add__

    def __neg__(self) -> CyclotomicNumber:
        return _element(self.level, tuple(-c for c in self.num), self.den)

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
        x = CyclotomicNumber(n, self.num)
        cofactor = CyclotomicNumber.one(n)
        for h in range(2, n):
            if gcd(h, n) == 1:
                cofactor = cofactor * x.galois(h)
        norm = x * cofactor
        if norm.is_zero() or not norm.is_rational():
            raise InternalInconsistencyError(f"norm of {x!r} is {norm!r}, not a nonzero rational")
        # num, P and N(num) lie in Z[zeta], so cofactor and norm have den 1
        return CyclotomicNumber(n, tuple(self.den * c for c in cofactor.num), norm.num[0])

    # -- Galois structure -------------------------------------------------

    def galois(self, h: int) -> CyclotomicNumber:
        """Image under zeta -> zeta^h; h must be a unit mod the level."""
        n = self.level
        if gcd(h, n) != 1:
            raise ValueError(f"{h} is not a unit mod {n}")
        h %= n
        raw = [0] * n
        for i, c in enumerate(self.num):
            if c:
                raw[(i * h) % n] += c
        return CyclotomicNumber(n, tuple(_reduce_exponents(n, raw)), self.den)

    def conjugate(self) -> CyclotomicNumber:
        """Complex conjugation zeta -> zeta^(-1)."""
        if self.level <= 2:
            return self
        return self.galois(self.level - 1)

    def is_real(self) -> bool:
        return self == self.conjugate()

    def mul_zeta_power(self, k: int) -> CyclotomicNumber:
        """Fast multiplication by zeta^k (an exponent shift plus reduction)."""
        n = self.level
        k %= n
        if k == 0:
            return self
        raw = [0] * n
        for i, c in enumerate(self.num):
            if c:
                raw[(i + k) % n] += c
        return CyclotomicNumber(n, tuple(_reduce_exponents(n, raw)), self.den)

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

        Complete, as mu(Q(zeta_n)) = mu_N = {+-zeta_n^k : k < n}: zeta_n^k is the k-th basis
        vector below phi(n) and a _power_rows key above; zeta_n = zeta_N^(N/n), -1 = zeta_N^(N/2).
        """
        if self.den != 1:
            return None
        n, count = self.level, roots_of_unity_order(self.level)
        for num, sign in ((self.num, 0), (tuple(-c for c in self.num), count // 2)):
            single = num.count(0) == len(num) - 1  # one nonzero coefficient: a root of unity iff it is +-1
            k = (num.index(1) if 1 in num else None) if single else _power_rows(n).get(num)
            if k is not None:
                return (k * (count // n) + sign) % count
        return None

    # -- numeric evaluation ----------------------------------------------

    def complex_value(self, h: int = 1) -> complex:
        """Float value at the embedding zeta -> exp(2*pi*i*h/n)."""
        return next(self.complex_values((h,)))

    def complex_values(self, hs):
        """complex_value(h) for each h in hs, lazily; the nonzero terms are found once."""
        n, table = self.level, _embedding_table(self.level)
        terms = [(i, c) for i, c in enumerate(self.num) if c]
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


def _element(level: int, num: tuple[int, ...], den: int) -> CyclotomicNumber:
    """The element num/den, trusted canonical: phi(level) coefficients, den > 0, gcd(den, num) = 1."""
    x = object.__new__(CyclotomicNumber)
    x.level, x.num, x.den, x._hash = level, num, den, None
    return x


def sum_of_products(*pairs: tuple[CyclotomicNumber, CyclotomicNumber]) -> CyclotomicNumber:
    """a_1*b_1 + ... + a_k*b_k for pairs (a_i, b_i) at one level (Cohen, GTM 138, 4.3).

    Every pair's numerators are convolved into one integer buffer at the common
    denominator D (2*phi(n) - 1 < 2n entries), folded once by _reduce_exponents,
    and D is normalized once; at D = 1 the result is built unchecked.
    """
    level, den = pairs[0][0].level, 1
    for a, b in pairs:
        if a.level != level or b.level != level:
            raise ValueError("mixed cyclotomic levels")
        den = lcm(den, a.den * b.den)
    conv = [0] * (2 * len(pairs[0][0].num) - 1)
    for a, b in pairs:
        scale = den // (a.den * b.den)
        for i, c in enumerate(a.num):
            if c:
                c *= scale
                for k, e in enumerate(b.num, i):
                    if e:
                        conv[k] += c * e
    num = tuple(_reduce_exponents(level, conv))
    return _element(level, num, 1) if den == 1 else CyclotomicNumber(level, num, den)


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
    raw = [0] * level
    for j in range(1, m):
        v = u * j % count
        raw[v * (level + 1) // 2 % level if level % 2 else v] += j if level % 2 and v % 2 else -j
    return CyclotomicNumber(level, tuple(_reduce_exponents(level, raw)), m)


def float_error_bound(x: CyclotomicNumber) -> float:
    """Bound on |complex_value(h) - sigma_h(num)| for the numerator num of x, with a 4x margin.

    This bounds complex_value itself when x is integral.  Each term
    c*exp(2*pi*i*k/n) is off by at most |c|*27*2^-53 (rounding of the angle,
    cos/sin within one ulp, one product), each of the phi(n) additions by at
    most 2^-53 of a partial sum bounded by S = sum|c|, and abs() by one ulp:
    S*(phi(n) + 27)*2^-53 + 2^-51 in all.
    """
    return (sum(abs(c) for c in x.num) * (len(x.num) + 32) + 8) * 2.0**-51


def zeta(level: int, k: int = 1) -> CyclotomicNumber:
    """zeta_n^k as a field element, n the level: a power of x, not of mul_root_of_unity's zeta_N."""
    k %= level
    deg, rows = _level_context(level)
    if k < deg:
        return _element(level, tuple(int(i == k) for i in range(deg)), 1)
    return _element(level, rows[k - deg], 1)


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
        return -1 if x.num[0] < 0 else 1
    if not x.is_real():
        raise NonRealElementError(f"real_sign on non-real element {x!r}")
    n = x.level
    try:
        approx = CyclotomicNumber(n, x.num).complex_value().real
        if abs(approx) > float_error_bound(x):
            return 1 if approx > 0 else -1
    except OverflowError:  # coefficients past the float range: the ladder alone decides
        pass
    from mpmath import iv  # inside the band only: no CLI run reaches it in normal use
    saved = iv.dps
    try:
        for dps in _SIGN_DPS_LADDER:
            iv.dps = dps
            total = sum(c * iv.cos(2 * i * iv.pi / n) for i, c in enumerate(x.num) if c)
            if total.a > 0 or total.b < 0:
                return 1 if total.a > 0 else -1
    finally:
        iv.dps = saved
    raise SignUndecidableError(f"sign of {x!r} not decided by the interval ladder {_SIGN_DPS_LADDER}")
