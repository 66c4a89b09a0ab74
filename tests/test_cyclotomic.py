import cmath
import io
import json
import operator
import os
import random
import subprocess
import sys
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import gcd, lcm
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fujitacert import cli, cyclotomic
from fujitacert.cyclotomic import (
    CyclotomicNumber,
    NonRealElementError,
    cyclotomic_polynomial,
    inverse_one_minus_root,
    real_sign,
    sum_of_products,
    zeta,
)
from fujitacert.monodromy import mat_det, mat_mul
from fujitacert.residues import InternalInconsistencyError, units
from reference import cyclotomic_polynomial as cyclotomic_polynomial_by_divisors
from reference import DensePowerBasis, euler_phi

LEVELS = st.integers(min_value=2, max_value=13)


@st.composite
def elements(draw, level):
    deg = euler_phi(level)
    nums = draw(st.lists(st.integers(min_value=-9, max_value=9), min_size=deg, max_size=deg))
    den = draw(st.integers(min_value=1, max_value=6))
    return CyclotomicNumber(level, tuple(nums), den)


@st.composite
def level_and_elements(draw, count):
    level = draw(LEVELS)
    return level, [draw(elements(level)) for _ in range(count)]


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
    # degree is phi(n)
    for n in range(1, 40):
        assert len(cyclotomic_polynomial(n)) - 1 == euler_phi(n)


def test_cyclotomic_polynomial_matches_division_by_divisors():
    for n in [*range(1, 301), 1001, 1155, 5005]:
        assert cyclotomic_polynomial(n) == cyclotomic_polynomial_by_divisors(n), n


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for k, y in enumerate(b):
            out[i + k] += x * y
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 8, 9, 12, 15, 24, 30, 105, 210])
def test_product_of_cyclotomics_is_xn_minus_1(n):
    prod = [1]
    for d in range(1, n + 1):
        if n % d == 0:
            prod = _poly_mul(prod, list(cyclotomic_polynomial(d)))
    expected = [-1] + [0] * (n - 1) + [1]
    assert prod == expected


def test_zeta_powers():
    z = zeta(5)
    assert z * z * z * z * z == CyclotomicNumber.one(5)
    assert z * z * z * z == zeta(5, 4)
    assert zeta(5, 7) == zeta(5, 2)
    total = sum((zeta(5, k) for k in range(1, 5)), CyclotomicNumber.zero(5))
    assert total == CyclotomicNumber.from_rational(5, -1)


def test_equality_is_canonical():
    a = CyclotomicNumber(6, (2, 4), 2)
    b = CyclotomicNumber(6, (1, 2), 1)
    assert a == b
    assert hash(a) == hash(b)


@settings(max_examples=40)
@given(level_and_elements(3))
def test_ring_axioms(data):
    _, (x, y, z) = data
    assert x + y == y + x
    assert x * y == y * x
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z


def _long_division(level, coefficients):
    """The remainder of sum c_k x^k (coefficients low to high) by long division modulo Phi_level."""
    phi = cyclotomic_polynomial(level)
    deg = len(phi) - 1
    total = list(coefficients) + [0] * deg
    terms = [(i, p) for i, p in enumerate(phi) if p]
    for top in range(len(total) - 1, deg - 1, -1):  # Phi_level is monic
        q = total[top]
        if q:
            for i, p in terms:
                total[top - deg + i] -= q * p
    assert not any(total[deg:])
    return tuple(total[:deg])


def _reference(level, pairs):
    """sum a*b over the pairs: schoolbook Fraction products, then long division modulo Phi_level."""
    deg = euler_phi(level)
    total = [Fraction(0)] * (2 * deg - 1)
    for a, b in pairs:
        bs = [(k, y) for k, y in enumerate(b.coefficients()) if y]
        for i, x in enumerate(a.coefficients()):
            for k, y in bs:
                total[i + k] += x * y
    return _long_division(level, total)


@pytest.mark.parametrize("levels", [range(1, 151), [1001, 1009, 1155, 10007]], ids=["n<=150", "large"])
def test_level_context_holds_one_row_per_power_from_phi_to_n(levels):
    # the one table: row k - phi(n) is x^k mod Phi_n for phi(n) <= k < n, so a prime level has one
    # row; every buffer shorter than 2n folds by it once its exponents are taken mod n.  Equal
    # coefficients are one int object: at 1155 = 3*5*7*11 the rows reach -9..9, past the small-int cache
    rng = random.Random(0)
    for n in levels:
        deg, rows = cyclotomic._level_context(n)
        assert deg == euler_phi(n) and len(rows) == n - deg, n
        assert all(row == _long_division(n, [0] * k + [1]) for k, row in enumerate(rows, deg)), n
        assert len({id(c) for row in rows for c in row}) == len({c for row in rows for c in row}), n
        if n > 1 and all(n % d for d in range(2, int(n**0.5) + 1)):  # prime
            assert len(rows) == 1, n
        if n <= 150:  # the buffer as the map {k mod n: coefficient} the one fold reads
            raw = [rng.randint(-9, 9) for _ in range(2 * n - 1)]
            terms = {k: sum(raw[k::n]) for k in range(n)}
            assert cyclotomic._fold(n, terms, 1).num == _long_division(n, raw), n


@st.composite
def sparse_elements(draw, level):
    """Small coefficients, about half of them zero, over denominators 1..12 (so zero elements occur)."""
    coefficient = st.one_of(st.just(0), st.integers(min_value=-9, max_value=9))
    nums = draw(st.lists(coefficient, min_size=euler_phi(level), max_size=euler_phi(level)))
    return CyclotomicNumber(level, tuple(nums), draw(st.integers(min_value=1, max_value=12)))


@st.composite
def level_and_sparse_elements(draw, count):
    level = draw(st.integers(min_value=1, max_value=101))
    return level, [draw(sparse_elements(level)) for _ in range(count)]


def _assert_canonical(x, level):
    assert len(x.num) == euler_phi(level) and x.den > 0 and gcd(x.den, *x.num) == 1
    assert x.terms == tuple((i, c) for i, c in enumerate(x.num) if c)


@settings(max_examples=40, deadline=None)
@given(level_and_sparse_elements(6))
def test_sum_of_products_matches_schoolbook_reference(data):
    level, (a, b, c, d, e, f) = data
    for pairs in ([(a, b)], [(a, b), (c, d)], [(a, b), (c, d), (e, f)]):
        got = sum_of_products(*pairs)
        _assert_canonical(got, level)
        assert got.coefficients() == _reference(level, pairs)
    assert (a * b).coefficients() == _reference(level, [(a, b)])
    assert a * b == sum_of_products((a, b)) == sum_of_products((b, a))


@settings(max_examples=25, deadline=None)
@given(level_and_sparse_elements(8))
def test_mat_mul_and_mat_det_match_entrywise_reference(data):
    level, xs = data
    a, b = ((xs[0], xs[1]), (xs[2], xs[3])), ((xs[4], xs[5]), (xs[6], xs[7]))
    prod = mat_mul(a, b)
    for i in range(2):
        for j in range(2):
            _assert_canonical(prod[i][j], level)
            assert prod[i][j].coefficients() == _reference(level, [(a[i][0], b[0][j]), (a[i][1], b[1][j])])
    diagonal, anti = _reference(level, [(a[0][0], a[1][1])]), _reference(level, [(a[0][1], a[1][0])])
    assert mat_det(a).coefficients() == tuple(p - q for p, q in zip(diagonal, anti))


def _image_reference(x, exponent):
    """sum c_i x^exponent(i) over the numerator of x: a raw buffer of length n by long division."""
    raw = [0] * x.level
    for i, c in enumerate(x.num):
        raw[exponent(i) % x.level] += c
    return _long_division(x.level, raw)


@lru_cache(maxsize=None)
def _roots_of_unity_reference(level):
    """{coefficients of zeta_N^u: u}, from +-x^k mod Phi_level by repeated multiplication by x.

    zeta_N is mul_root_of_unity's generator: zeta_n = zeta_N^(N/n) and -1 = zeta_N^(N/2)."""
    phi = cyclotomic_polynomial(level)
    count = cyclotomic.roots_of_unity_order(level)
    power, found = [1] + [0] * (len(phi) - 2), {}
    for k in range(level):
        found[tuple(power)] = k * (count // level) % count
        found[tuple(-c for c in power)] = (k * (count // level) + count // 2) % count
        top = power.pop()
        power = [c - top * p for c, p in zip([0] + power, phi)]
    return found


def _assert_galois_and_shifts_match_dense_reference(x, h, u):
    n, count = x.level, cyclotomic.roots_of_unity_order(x.level)
    images = x.galois(h), x.conjugate(), x.mul_zeta_power(u), x.mul_root_of_unity(u)
    for image in images:
        _assert_canonical(image, n)
    # each map is a ring automorphism or a unit multiple, so the denominator stays; zeta_N^u is
    # zeta_n^u at even n and (-1)^u * zeta_n^(u*(n+1)/2) at odd n
    shift, sign = (u * (n + 1) // 2, (-1) ** (u % 2)) if n % 2 else (u, 1)
    assert [(image.num, image.den) for image in images] == [
        (_image_reference(x, lambda i: i * h), x.den),
        (_image_reference(x, lambda i: -i), x.den),
        (_image_reference(x, lambda i: i + u), x.den),
        (tuple(sign * c for c in _image_reference(x, lambda i: i + shift)), x.den),
    ]
    roots = _roots_of_unity_reference(n)
    assert x.root_of_unity_exponent() == roots.get(tuple(x.coefficients())), x
    root = CyclotomicNumber.one(n).mul_root_of_unity(u)
    assert roots[tuple(root.coefficients())] == root.root_of_unity_exponent() == u % count
    assert (-root).root_of_unity_exponent() == (u + count // 2) % count
    assert (2 * root).root_of_unity_exponent() is None


@settings(max_examples=40, deadline=None)
@given(level_and_sparse_elements(1), st.data())
def test_galois_and_shifts_match_dense_reference(data, draw):
    level, (x,) = data
    h = draw.draw(st.integers(min_value=1, max_value=level))
    while gcd(h, level) != 1:
        h += 1
    u = draw.draw(st.integers(min_value=-3 * level, max_value=3 * level))
    _assert_galois_and_shifts_match_dense_reference(x, h, u)


@pytest.mark.parametrize("level", [1001, 1009])
def test_galois_and_shifts_match_dense_reference_at_large_levels(level):
    # fixed elements: a few terms, a folded row, 1 - a root of unity, and a dense one; h and u
    # both below and above phi(n)
    rng, deg = random.Random(level), euler_phi(level)
    sparse = [0] * deg
    for i in rng.sample(range(deg), 5):
        sparse[i] = rng.choice([-3, -2, -1, 1, 2, 3])
    xs = [
        CyclotomicNumber(level, tuple(sparse), 3),
        zeta(level, level - 1),
        1 - zeta(level, deg + 5),
        CyclotomicNumber(level, tuple(rng.randint(-2, 2) for _ in range(deg))),
    ]
    for x, h, u in zip(xs, (2, level - 1, 500, 997), (1, deg + 1, level - 1, 2 * level - 3)):
        _assert_galois_and_shifts_match_dense_reference(x, h, u)


def test_sum_of_products_rejects_mixed_levels():
    with pytest.raises(ValueError, match="mixed cyclotomic levels"):
        sum_of_products((zeta(5), zeta(5)), (zeta(5), zeta(10)))


@pytest.mark.parametrize("n", list(range(3, 14)) + [25, 97])
def test_embedding_table_is_cmath_exp(n):
    table = cyclotomic._embedding_table(n)
    assert len(table) == n
    for k, value in enumerate(table):
        assert value == cmath.exp(2j * cmath.pi * k / n)


@settings(max_examples=40)
@given(level_and_elements(1))
def test_inverse_roundtrip(data):
    level, (x,) = data
    if x.is_zero():
        with pytest.raises(ZeroDivisionError):
            x.inverse()
        return
    assert x * x.inverse() == CyclotomicNumber.one(level)


def _inverse_cases():
    """Each zeta^k and 1 - zeta^u (u a unit), and seeded elements, at levels 2..40."""
    rng = random.Random(6)
    for level in range(2, 41):
        deg = euler_phi(level)
        yield from (zeta(level, k) for k in range(level))
        yield from (1 - zeta(level, u) for u in units(level))
        dens = [rng.randint(1, 6) for _ in range(3)] + [-rng.randint(1, 6)]
        yield from (CyclotomicNumber(level, tuple(rng.randint(-5, 5) for _ in range(deg)), d) for d in dens)


def test_inverse_deterministic_cases():
    for x in _inverse_cases():
        if x.is_zero():
            continue
        inv = x.inverse()
        assert x * inv == CyclotomicNumber.one(x.level), x
        assert inv.inverse() == x, x
    # level 97: dense inverses have ~100-bit coefficients, so only the
    # sparse 1 - zeta^5 is inverted twice
    rng = random.Random(97)
    dense = [CyclotomicNumber(97, tuple(rng.randint(-3, 3) for _ in range(96)), d) for d in (1, 6, -5)]
    for x in dense + [2 - zeta(97, 5)]:
        assert x * x.inverse() == CyclotomicNumber.one(97), x
    assert (1 - zeta(97, 5)).inverse().inverse() == 1 - zeta(97, 5)
    for level in (2, 3, 12, 97):
        with pytest.raises(ZeroDivisionError):
            CyclotomicNumber.zero(level).inverse()


def test_inverse_is_integer_only(monkeypatch):
    def no_fraction(*args):
        raise AssertionError("Fraction on the inverse path")

    cases = [
        CyclotomicNumber(7, (3, 0, 0, 0, 0, 0), -4),
        CyclotomicNumber(2, (5,), 3),
        CyclotomicNumber(12, (1, -2, 0, 3), 5),
        1 - zeta(9, 2),
    ]
    monkeypatch.setattr(cyclotomic, "Fraction", no_fraction)
    for x in cases:
        assert x * x.inverse() == CyclotomicNumber.one(x.level)


def test_inverse_checks_the_norm(monkeypatch):
    galois = CyclotomicNumber.galois

    def wrong_conjugate(self, h):
        image = galois(self, h)
        return image if h % self.level == 1 else image.mul_zeta_power(1)

    monkeypatch.setattr(CyclotomicNumber, "galois", wrong_conjugate)
    with pytest.raises(InternalInconsistencyError, match="not a nonzero rational"):
        (1 + zeta(5) + zeta(5, 3)).inverse()
    # the oracle's form takes no norm inverse; its one Galois image, complex conjugation, now
    # breaks the invariance check of the form's solution line
    out, err = io.StringIO(), io.StringIO()
    assert cli.main(["oracle", "-n", "5", "-m", "1,1,1,2", "-j", "1"], out=out, err=err) == 2
    assert out.getvalue() == ""
    assert err.getvalue().startswith("error: internal: invariant form space has dimension 0")


def test_inverse_one_minus_root_matches_the_norm_inverse():
    for level in range(2, 41):
        one = CyclotomicNumber.one(level)
        for u in range(1, cyclotomic.roots_of_unity_order(level)):
            assert inverse_one_minus_root(level, u) == (1 - one.mul_root_of_unity(u)).inverse(), (level, u)
    # level 97: the 193 roots y != 1 are the Galois images of zeta_97, -zeta_97 and -1, and
    # sigma_h commutes with inversion, so one norm inverse per orbit is transported to the rest
    one, covered = CyclotomicNumber.one(97), set()
    for y in (zeta(97), -zeta(97), -one):
        inverse = (1 - y).inverse()
        for h in units(97):
            u = y.galois(h).root_of_unity_exponent()
            assert inverse_one_minus_root(97, u) == inverse.galois(h), u
            covered.add(u)
    assert covered == set(range(1, 194))
    with pytest.raises(ZeroDivisionError):
        inverse_one_minus_root(5, 10)


@settings(max_examples=40)
@given(level_and_elements(2))
def test_conjugation_is_ring_involution(data):
    _, (x, y) = data
    assert x.conjugate().conjugate() == x
    assert (x + y).conjugate() == x.conjugate() + y.conjugate()
    assert (x * y).conjugate() == x.conjugate() * y.conjugate()


@settings(max_examples=40)
@given(level_and_elements(1), st.data())
def test_galois_composition(data, draw):
    level, (x,) = data
    us = units(level)
    h = draw.draw(st.sampled_from(us))
    k = draw.draw(st.sampled_from(us))
    assert x.galois(h).galois(k) == x.galois((h * k) % level)


@settings(max_examples=40)
@given(level_and_elements(1))
def test_norm_like_product_is_real(data):
    level, (x,) = data
    prod = x * x.conjugate()
    assert prod.is_real()
    if not prod.is_zero():
        assert real_sign(prod) == 1  # |x|^2 > 0


def test_galois_rejects_non_unit():
    with pytest.raises(ValueError):
        zeta(8).galois(2)


def test_mul_zeta_power_matches_general_mul():
    x = zeta(12, 2) + 3 * zeta(12, 3) - Fraction(1, 2)
    for k in range(12):
        assert x.mul_zeta_power(k) == x * zeta(12, k)


def test_real_sign_examples():
    y = zeta(7) + zeta(7, 6)  # 2cos(2pi/7) > 0
    y2 = zeta(7, 3) + zeta(7, 4)  # 2cos(6pi/7) < 0
    assert real_sign(y) == 1
    assert real_sign(y2) == -1
    assert real_sign(CyclotomicNumber.zero(7)) == 0
    # sqrt(5) = 1 + 2*(zeta5 + zeta5^4): positive and needs no luck to decide
    root5 = 1 + 2 * (zeta(5) + zeta(5, 4))
    assert real_sign(root5) == 1
    assert real_sign(-root5) == -1


def test_real_sign_decides_by_floats_outside_the_band(monkeypatch):
    monkeypatch.setitem(sys.modules, "mpmath", None)  # the interval ladder is not reached: its import would raise
    assert real_sign(zeta(7) + zeta(7, 6)) == 1
    assert real_sign(Fraction(1, 3) * (zeta(7, 3) + zeta(7, 4))) == -1


@pytest.mark.parametrize("k", [40, 41])
def test_real_sign_ladder_decides_inside_the_band(k):
    # F_k * 2cos(2pi/5) - F_(k-1) = F_k * (sqrt 5 - 1)/2 - F_(k-1) is about 1e-9 in size, far
    # inside the float band of its 1e8-sized coefficients; its sign alternates with k
    fib = [0, 1]
    while len(fib) <= k:
        fib.append(fib[-1] + fib[-2])
    q, p = fib[k], -fib[k - 1]
    x = p + q * (zeta(5) + zeta(5, 4))
    assert abs(x.complex_value().real) <= cyclotomic.float_error_bound(x)
    # exact sign of (2p - q) + q*sqrt(5) with q > 0
    a = 2 * p - q
    want = 1 if a >= 0 or 5 * q * q > a * a else -1
    assert real_sign(x) == want and real_sign(-x) == -want


@pytest.mark.parametrize("n", [131, 257, 1009])
def test_float_band_covers_recursive_summation(n):
    # Higham (2002), 4.2: adding phi(n) terms one at a time errs by up to (phi(n) - 1)*S*2^-53, S the
    # sum of their sizes, the worst case the band's phi(n) term covers; the all-ones element has S = phi(n)
    phi = euler_phi(n)
    x = CyclotomicNumber(n, (1,) * phi)
    assert cyclotomic.float_error_bound(x) >= (phi - 1) * phi * 2.0**-53


_LAZY_MPMATH = """
import io, json, math, sys
from fujitacert import cli, cyclotomic

argvs = [
    ["certify", "-n", "10007", "-m", "1,1,1,10004", "--nw", "1,1,10005"],
    ["certify", "-n", "25", "-m", "1,1,1,22", "--nw", "1,1,23", "--oracle"],
    ["oracle", "-n", "10", "-m", "1,3,3,3", "-j", "1"],
]
exits = [cli.main(argv, out=io.StringIO()) for argv in argvs]
loaded = ["mpmath" in sys.modules]
cyclotomic.float_error_bound = lambda x: math.inf  # every sign now falls inside the band
signs = [cyclotomic.real_sign(cyclotomic.zeta(7) + cyclotomic.zeta(7, 6))]
loaded.append("mpmath" in sys.modules)
from mpmath import iv
iv.dps = 17
signs.append(cyclotomic.real_sign(cyclotomic.zeta(7, 3) + cyclotomic.zeta(7, 4)))
print(json.dumps({"exits": exits, "loaded": loaded, "signs": signs, "dps": iv.dps}))
"""


def test_mpmath_loads_only_when_a_sign_falls_inside_the_band():
    # a fresh interpreter: certify at a large prime level, certify --oracle and oracle decide every
    # sign by floats and never load mpmath; a sign forced into the band loads it, decides through
    # the interval ladder and leaves iv.dps as it found it
    env = dict(os.environ, PYTHONPATH=str(Path(cyclotomic.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", _LAZY_MPMATH], env=env, capture_output=True, text=True, check=False)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == {"exits": [0, 0, 0], "loaded": [False, True], "signs": [1, -1], "dps": 17}


def test_mul_root_of_unity_is_a_power_of_a_generator():
    for level in (1, 2, 5, 6, 9, 12):
        count = cyclotomic.roots_of_unity_order(level)
        gen = zeta(level) if level % 2 == 0 else -zeta(level, (level + 1) // 2)
        one = CyclotomicNumber.one(level)
        powers = list(accumulate([gen] * count, operator.mul, initial=one))  # gen^0 .. gen^count
        assert powers[count] == one and all(powers[count // p] != one for p in (2, 3, 5) if count % p == 0)
        x = CyclotomicNumber(level, tuple(range(1, euler_phi(level) + 1)), 2)
        for u in range(-count, 2 * count):
            assert x.mul_root_of_unity(u) == x * powers[u % count], (level, u)


def test_root_of_unity_exponent_finds_every_root_of_unity():
    # mu(Q(zeta_n)) = mu_N, so every zeta_N^u is found, with its own u, and nothing else is
    for level in [*range(3, 41), 97, 101]:
        one, z = CyclotomicNumber.one(level), zeta(level)
        count = cyclotomic.roots_of_unity_order(level)
        assert [one.mul_root_of_unity(u).root_of_unity_exponent() for u in range(count)] == list(range(count))
        non_roots = [CyclotomicNumber.zero(level), one * 2, z * 2, z + 1, z * Fraction(1, 2)]
        if level == 3:  # 1 + zeta_3 = -zeta_3^2, the generator zeta_6 of mu_6
            assert non_roots.pop(3).root_of_unity_exponent() == 1
        assert [x.root_of_unity_exponent() for x in non_roots] == [None] * len(non_roots), level


@given(level_and_elements(1), st.integers(min_value=-30, max_value=30), st.integers(min_value=0, max_value=30))
@settings(max_examples=60, deadline=None)
def test_root_of_unity_exponents_add_under_shifts(data, u, v):
    # the monodromy closure keys its classes by these rules: exponents of products add, shifts
    # compose, and zeta_N^(N/2) = -1
    level, (x,) = data
    count = cyclotomic.roots_of_unity_order(level)
    one = CyclotomicNumber.one(level)
    y = one.mul_root_of_unity(v)
    assert (y * one.mul_root_of_unity(u)).root_of_unity_exponent() == (u + v) % count
    assert y.mul_root_of_unity(u).root_of_unity_exponent() == (u + v) % count
    assert x.mul_root_of_unity(u).mul_root_of_unity(v) == x.mul_root_of_unity(u + v)
    assert x.mul_root_of_unity(count // 2) == -x


def test_real_sign_rejects_non_real():
    with pytest.raises(NonRealElementError):
        real_sign(zeta(5))


def _assert_matches_dense_reference(level, rng, count, roots=None):
    """The sparse kernels against DensePowerBasis on seeded elements, many with exponents >= phi(n)."""
    deg = euler_phi(level)
    dense, xs = [], []
    for _ in range(count):
        raw = {rng.randrange(2 * level): rng.choice([-3, -2, -1, 1, 2, 5]) for _ in range(rng.randint(0, 4))}
        den = rng.choice([1, 1, 2, 3, 6])
        d = DensePowerBasis.reduce(level, {k: Fraction(c, den) for k, c in raw.items()})
        common = lcm(1, *(c.denominator for c in d.coeffs))
        x = CyclotomicNumber(level, tuple(int(c * common) for c in d.coeffs), common)
        y = sum((c * zeta(level, k) for k, c in raw.items()), CyclotomicNumber.zero(level)) * Fraction(1, den)
        assert x == y and hash(x) == hash(y), (level, raw, den)  # two routes, one canonical form
        dense.append(d)
        xs.append(x)
    for x, d in zip(xs, dense):
        assert x.den > 0 and gcd(x.den, *(c for _, c in x.terms)) == 1
        assert [i for i, _ in x.terms] == sorted({i for i, _ in x.terms}) and all(c for _, c in x.terms)
        assert DensePowerBasis.of(x) == d and x.coefficients() == d.coeffs and len(x.num) == deg
        assert (x.is_zero(), x.is_rational()) == (d.is_zero(), d.is_rational())
        assert DensePowerBasis.of(-x) == -d
        third = x * Fraction(1, 3)  # the same terms as x whenever 3 divides no coefficient
        assert (third == x) == d.is_zero()
        assert DensePowerBasis.of(third) == DensePowerBasis(level, [c / 3 for c in d.coeffs])
        h = next(h for h in (rng.randrange(1, level + 1), 1) if gcd(h, level) == 1)
        assert DensePowerBasis.of(x.galois(h)) == d.exponent_map(lambda i: i * h)
        assert DensePowerBasis.of(x.conjugate()) == d.exponent_map(lambda i: -i % level)
        k = rng.randrange(3 * level)
        assert DensePowerBasis.of(x.mul_zeta_power(k)) == d.exponent_map(lambda i: i + k)
        u = rng.randrange(cyclotomic.roots_of_unity_order(level))
        root = DensePowerBasis.reduce(level, {u * (level + 1) // 2: (-1) ** u} if level % 2 else {u: 1})
        assert DensePowerBasis.of(x.mul_root_of_unity(u)) == d * root
        if roots is not None:
            assert x.root_of_unity_exponent() == roots.get(d.coeffs), x
        real = x + x.conjugate()
        assert real_sign(real) == (DensePowerBasis.of(real)).sign()
        assert real_sign(x * x.conjugate()) == (0 if d.is_zero() else 1)
    for (a, da), (b, db), (c, dc) in zip(zip(xs, dense), zip(xs[1:], dense[1:]), zip(xs[2:], dense[2:])):
        assert DensePowerBasis.of(a + b) == da + db
        assert DensePowerBasis.of(a - b) == da + -db
        assert DensePowerBasis.of(a * b) == da * db
        assert DensePowerBasis.of(sum_of_products((a, b), (c, -a), (b, c))) == da * db + -(dc * da) + db * dc
        assert (a == b) == (da == db) and (a * b == b * a) and hash(a * b) == hash(b * a)
        assert (a + b) - b == a and hash((a + b) - b) == hash(a)


@pytest.mark.parametrize("level", [1, 2, 3, 4, 7, 9, 10, 11, 12, 13, 15, 21, 29, 30, 35, 91, 97])
def test_sparse_form_matches_dense_power_basis_reference(level):
    # prime and composite levels; exponents drawn below 2n, so most elements and products fold
    _assert_matches_dense_reference(level, random.Random(level), 12, _roots_of_unity_reference(level))


@pytest.mark.parametrize("level", [1001, 4001])
def test_sparse_form_matches_dense_power_basis_reference_at_large_levels(level):
    # spot checks: a few elements, and the roots of unity checked one exponent at a time
    _assert_matches_dense_reference(level, random.Random(level), 3)
    count = cyclotomic.roots_of_unity_order(level)
    for u in (1, level - 1, count // 2 + 1, count - 3):
        root = CyclotomicNumber.one(level).mul_root_of_unity(u)
        k, sign = (u * (level + 1) // 2, (-1) ** u) if level % 2 else (u, 1)
        assert DensePowerBasis.of(root) == DensePowerBasis.reduce(level, {k: sign})
        assert root.root_of_unity_exponent() == u and (-root).root_of_unity_exponent() == (u + count // 2) % count
        assert (root * 2).root_of_unity_exponent() is None
