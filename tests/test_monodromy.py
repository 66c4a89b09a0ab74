import io
import itertools
import json
import math
import random
from collections import Counter
from fractions import Fraction
from math import gcd

import pytest

from fujitacert import cli, eigenspace, monodromy
from fujitacert.cyclotomic import CyclotomicNumber, real_sign, roots_of_unity_order, zeta
from fujitacert.eigenspace import WeightTuple, iter_weight_tuples, signature, sigma_sum
from fujitacert.monodromy import (
    Finiteness,
    FinitenessVerdict,
    IrreducibilityRequiredError,
    MonodromyTriple,
    ReducibleNoUniqueFormError,
    agreement,
    finiteness_by_signature,
    find_infinite_character,
    group_closure,
    has_common_eigenvector,
    has_finite_order,
    infinite_order_witness,
    invariant_hermitian_form,
    is_irreducible,
    _projective_key,
    _letters,
    _walk,
    levelt_exponents,
    levelt_triple,
    mat_conj_transpose,
    mat_det,
    mat_identity,
    mat_is_identity,
    mat_mul,
    mat_trace,
    triple_from_weights,
)
from fujitacert.residues import InternalInconsistencyError, NonUnitError, units
from fujitacert.surfaces import iter_canonical_families, standard_family
from reference import (
    decimal_ladder_sign,
    euler_phi,
    exact_closure,
    exact_key,
    finite_order_bound,
    has_finite_order_by_power,
    has_finite_order_by_unit_loop,
    hermitian_form,
    hermitian_signature,
    inverse,
    letters,
    walk,
)

W5 = WeightTuple(5, (1, 1, 1, 2))
W7 = WeightTuple(7, (1, 1, 1, 4))
W4 = WeightTuple(4, (1, 1, 1, 1))


# ---------------------------------------------------------------------------
# parameters, as integer exponents (ka, kb, kc) of e(a), e(b), e(c)


def test_params_from_weights_examples():
    # (a, b, c) = (2/5, 4/5, 8/5) and (4/7, 6/7, 12/7), reduced mod 1
    assert levelt_exponents(W5, 1) == (2, 4, 3)
    assert levelt_exponents(W7, 1) == (4, 6, 5)
    with pytest.raises(ValueError):
        levelt_exponents(W5, 5)


def test_params_recover_branch_exponents():
    # with j = 1: ka = m3, kb = -m0, kc = -(m0 + m2), and m1 = n - m0 - m2 - m3
    for w in (W5, W7, WeightTuple(11, (1, 2, 3, 5))):
        ka, kb, kc = levelt_exponents(w, 1)
        n = w.n
        m0, m2, m3 = (-kb) % n, (kb - kc) % n, ka
        assert (m0, m2, m3) == (w.m[0], w.m[2], w.m[3])
        assert n - m0 - m2 - m3 == w.m[1]


def test_params_scale_with_character():
    k1 = levelt_exponents(W5, 1)
    assert levelt_exponents(W5, 3) == tuple(3 * k % 5 for k in k1)


# ---------------------------------------------------------------------------
# irreducibility criterion


def test_irreducible_all_characters_when_units():
    assert all(is_irreducible(W5, j) for j in range(1, 5))
    assert all(is_irreducible(W7, j) for j in range(1, 7))


def test_irreducibility_examples_n6():
    w6 = WeightTuple(6, (1, 2, 2, 1))
    assert not is_irreducible(w6, 3)
    assert is_irreducible(w6, 1)


def test_irreducible_iff_no_branch_annihilated():
    for w in (W5, W7, WeightTuple(6, (1, 2, 2, 1)), WeightTuple(12, (1, 3, 3, 5))):
        for j in range(1, w.n):
            expected = all((mi * j) % w.n != 0 for mi in w.m)
            assert is_irreducible(w, j) == expected


# ---------------------------------------------------------------------------
# finiteness criterion


def test_finiteness_examples():
    v = finiteness_by_signature(W5, 4)
    assert v.kind is Finiteness.INFINITE
    witness = dict(v.witness)
    assert (witness["unit"] * 4) % 5 in (2, 3)
    assert finiteness_by_signature(W4, 1).kind is Finiteness.FINITE
    assert finiteness_by_signature(WeightTuple(6, (1, 1, 1, 3)), 1).kind is Finiteness.FINITE


def test_finiteness_requires_irreducibility():
    w6 = WeightTuple(6, (1, 2, 2, 1))
    with pytest.raises(IrreducibilityRequiredError):
        finiteness_by_signature(w6, 3)


def test_finiteness_galois_covariant():
    for w in (W5, W7, W4):
        n = w.n
        for j in range(1, n):
            if not is_irreducible(w, j):
                continue
            base = finiteness_by_signature(w, j).kind
            for h in units(n):
                assert finiteness_by_signature(w, (h * j) % n).kind == base


def test_find_infinite_character_examples():
    assert find_infinite_character(W5) == 3
    assert sigma_sum(W5, 3) == 10
    assert find_infinite_character(W7) == 4
    w11 = WeightTuple(11, (1, 2, 3, 5))
    assert find_infinite_character(w11) == 9
    assert sigma_sum(w11, 9) == 22


def test_find_infinite_character_no_unit():
    w8 = WeightTuple(8, (3, 1, 1, 3))  # m0 + m3 = 6, not a unit mod 8
    with pytest.raises(NonUnitError):
        find_infinite_character(w8)


# ---------------------------------------------------------------------------
# the Levelt triple


def test_triple_product_identity():
    t = triple_from_weights(W5, 1)
    assert mat_is_identity(mat_mul(mat_mul(t.g0, t.g1), t.ginf))


def test_triple_det_ginf_is_prescribed_root_of_unity():
    t = triple_from_weights(W5, 1)
    # det ginf = e(a + b) with a + b = 6/5, i.e. zeta_5
    assert mat_det(t.ginf) == zeta(5, 6)


def test_triple_trace_fixture_n4():
    t = triple_from_weights(W4, 1)
    # eigenvalues of ginf are zeta_4 and zeta_4^3: trace 0, determinant 1
    assert mat_trace(t.ginf) == CyclotomicNumber.zero(4)
    assert mat_det(t.ginf) == CyclotomicNumber.one(4)


def _eigenvalue_exponents(mat, level):
    t = mat_trace(mat)
    d = mat_det(mat)
    found = []
    for k in range(level):
        lam = zeta(level, k)
        if (lam * lam - t * lam + d).is_zero():
            found.append(k)
    return found


def test_triple_eigenvalue_contract():
    # ginf: e(a), e(b); g0: 1, e(1-c); g1: 1, e(c-a-b) -- all mod 1
    for (w, j) in [(W5, 1), (W5, 2), (W7, 3), (W4, 1)]:
        t = triple_from_weights(w, j)
        ka, kb, kc = t.exponents
        n = t.level
        assert t.exponents == levelt_exponents(w, j)
        assert set(_eigenvalue_exponents(t.ginf, n)) >= {ka, kb}
        assert set(_eigenvalue_exponents(t.g0, n)) >= {0, (-kc) % n}
        assert set(_eigenvalue_exponents(t.g1, n)) >= {0, (kc - ka - kb) % n}


def _irreducible_instances(n_max):
    for n in range(4, n_max + 1):
        for w in iter_weight_tuples(n):
            for j in range(1, n):
                if is_irreducible(w, j):
                    yield w, j


def _companion_reference(trace, det):
    level = trace.level
    return ((CyclotomicNumber.zero(level), -det), (CyclotomicNumber.one(level), trace))


def test_levelt_triple_matches_adjugate_reference():
    for w, j in _irreducible_instances(8):
        t = triple_from_weights(w, j)
        ka, kb, kc = t.exponents
        n = t.level
        a_mat = _companion_reference(zeta(n, ka) + zeta(n, kb), zeta(n, ka + kb))
        b_mat = _companion_reference(zeta(n, kc) + 1, zeta(n, kc))
        assert t.ginf == a_mat
        assert t.g0 == inverse(b_mat)
        assert t.g1 == mat_mul(b_mat, inverse(a_mat))
        for (_, g), (_, g_inv) in zip(t.generators(), t.inverses()):
            assert g_inv == inverse(g)


def test_walk_letters_times_inverse_letters_are_identity():
    for w, j in _irreducible_instances(8):
        t = triple_from_weights(w, j)
        for (_, g), (_, g_inv) in zip(t.generators(), t.inverses()):
            assert mat_is_identity(mat_mul(g, g_inv))
            assert mat_is_identity(mat_mul(g_inv, g))


def test_triple_and_walk_use_no_field_inverse(monkeypatch):
    def no_inverse(self):
        raise AssertionError("field inverse on the triple or walk path")

    monkeypatch.setattr(CyclotomicNumber, "inverse", no_inverse)
    fam = standard_family(97)
    j = find_infinite_character(fam.w)
    assert group_closure(triple_from_weights(fam.w, j)).kind is Finiteness.INFINITE
    m, nw = (",".join(map(str, v)) for v in (fam.w.m, fam.base_weights))
    out, err = io.StringIO(), io.StringIO()
    code = cli.main(["certify", "-n", "97", "-m", m, "--nw", nw, "--oracle"], out=out, err=err)
    assert code == 0, err.getvalue()
    checks = {c["name"]: c["passed"] for c in json.loads(out.getvalue())["checks"]}
    assert checks["oracle_agrees"] is True


def test_levelt_builds_reducible_parameters():
    # exponents (3, 3, 3): the root -1 is shared by the multisets at 0 and oo
    w6 = WeightTuple(6, (1, 2, 2, 1))
    assert not is_irreducible(w6, 3)
    assert has_common_eigenvector(levelt_triple(levelt_exponents(w6, 3), 6))


def _mat_galois(m, h):
    return tuple(tuple(x.galois(h) for x in row) for row in m)


def test_galois_transports_levelt_triples():
    # sigma_h(levelt_triple(e)) = levelt_triple(h*e) entry by entry, as every entry is an integer
    # polynomial in the zeta^k, k in e; checked on each class of e up to units and ka <-> kb
    for n in range(2, 13):
        us = units(n)
        classes = {
            min(tuple(h * k % n for k in (a, b, kc)) for h in us for a, b in ((ka, kb), (kb, ka)))
            for ka, kb, kc in itertools.product(range(n), repeat=3)
        }
        for e in classes:
            t = levelt_triple(e, n)
            for h in us:
                image = levelt_triple(tuple(h * k for k in e), n)
                for (_, g), (_, g_h) in zip(t.generators(), image.generators()):
                    assert _mat_galois(g, h) == g_h, (n, e, h)


# ---------------------------------------------------------------------------
# closure oracle


def test_group_closure_finite_fixtures():
    # regression fixtures: orders computed once by this oracle and frozen
    assert group_closure(triple_from_weights(W4, 1)).order == 8
    assert group_closure(triple_from_weights(WeightTuple(6, (1, 1, 1, 3)), 1)).order == 24


def test_group_closure_builds_its_letters_once(monkeypatch):
    # the short phase and the class walk of a FINITE closure share one letter table
    inverses, calls = MonodromyTriple.inverses, []
    monkeypatch.setattr(MonodromyTriple, "inverses", lambda self: calls.append(self) or inverses(self))
    assert group_closure(triple_from_weights(W4, 1)).order == 8
    assert len(calls) == 1


def test_group_closure_infinite_n5():
    v = group_closure(triple_from_weights(W5, 1))
    assert v.kind is Finiteness.INFINITE
    assert dict(v.witness)["kind"] == "infinite_order_word"


def test_group_closure_identity_triple():
    level = 5
    identity = mat_identity(level)
    t = MonodromyTriple(
        level=level,
        g0=identity,
        g1=identity,
        ginf=identity,
        exponents=(0, 0, 0),
    )
    v = group_closure(t)
    assert v.kind is Finiteness.FINITE and v.order == 1


def test_group_closure_small_cap_inconclusive():
    v = group_closure(triple_from_weights(WeightTuple(6, (1, 1, 1, 3)), 1), cap=5)
    assert v.kind is Finiteness.INCONCLUSIVE and v.cap == 5


def test_agreement_truth_table():
    # an INCONCLUSIVE closure gives no answer; otherwise the two kinds must be equal
    F, I, X = Finiteness.FINITE, Finiteness.INFINITE, Finiteness.INCONCLUSIVE
    table = {
        (F, F): True, (F, I): False, (F, X): None,
        (I, F): False, (I, I): True, (I, X): None,
        (X, F): False, (X, I): False, (X, X): None,
    }
    assert {(c, o): agreement(c, o) for c in Finiteness for o in Finiteness} == table


def test_infinite_order_witness_examples():
    t = triple_from_weights(W5, 1)
    word = infinite_order_witness(t, 4)
    assert word is not None and 1 <= len(word.split("*")) <= 4
    assert word == "g0*g1^-1"  # regression fixture: first witness in BFS order
    assert infinite_order_witness(triple_from_weights(W4, 1), 8) is None


def test_generator_of_exact_order_has_finite_order():
    t = triple_from_weights(W5, 1)
    for _, g in t.generators():
        assert has_finite_order(g, t.level)


def test_witness_rejects_bad_bound():
    t = triple_from_weights(W5, 1)
    with pytest.raises(ValueError):
        infinite_order_witness(t, 0)
    with pytest.raises(ValueError):
        group_closure(t, max_word_len=0)


# ---------------------------------------------------------------------------
# the closure against the exact closure of tests/reference.py


def _galois_class(n, e):
    """The least of the exponent triples h*(ka, kb, kc) and h*(kb, ka, kc), h a unit mod n.

    The matrices of levelt_triple(e, n) depend on {ka, kb} and kc, and sigma_h maps them entry by
    entry to those of levelt_triple(h*e, n) (test_galois_transports_levelt_triples), so every
    closure verdict is the same on a class: orders, the shifts' gcd with N and the first words
    are kept by a field automorphism.
    """
    ka, kb, kc = e
    return n, min(tuple(h * k % n for k in (a, b, kc)) for h in units(n) for a, b in ((ka, kb), (kb, ka)))


def test_group_closure_matches_exact_walk_n_le_8():
    # every character at 4 <= n <= 8, reducible ones included: same kind, order, witness and cap
    kinds = set()
    for n in range(4, 9):
        for w in iter_weight_tuples(n):
            for j in range(1, n):
                t = triple_from_weights(w, j)
                limits = [(20000, 8), (1, 8), (1, 1), (24, 3), (7, 2)] if is_irreducible(w, j) else [(20000, 8), (1, 2), (10, 1)]
                for cap, max_len in limits:
                    verdict = group_closure(t, cap, max_len)
                    assert verdict == exact_closure(t, cap, max_len), (w, j, cap, max_len)
                    kinds.add(verdict.kind)
    assert kinds == set(Finiteness)


def test_group_closure_matches_its_former_walk():
    # the former walk is reference.walk, here under exact_key.  One triple per class of every
    # exponent triple at 2 <= n <= 8, reducible ones included, and of the irreducible ones at
    # n <= 12: same kind, order, witness and cap at each pair of limits
    irreducible = {_galois_class(w.n, levelt_exponents(w, j)) for w, j in _irreducible_instances(12)}
    assert len(irreducible) == 265
    every = {_galois_class(n, e) for n in range(2, 9) for e in itertools.product(range(n), repeat=3)}
    assert len(every) == 252
    triples = [levelt_triple(e, n) for n, e in sorted(irreducible | every)]
    kinds = set()
    for limits in [(20000, 8), (1, 8), (1, 1), (1, 2), (1, 3), (24, 3), (7, 2), (10, 1), (50, 8)]:
        for t in triples:
            verdict = group_closure(t, *limits)
            assert verdict == exact_closure(t, *limits), (t.level, t.exponents, limits)
            kinds.add(verdict.kind)
    assert kinds == set(Finiteness)


def test_group_closure_matches_exact_walk_past_the_short_words():
    # triangular, with diagonal exponent gaps 1, 2, 4 mod 7: every word of length <= 2
    # other than 1 has distinct eigenvalues, and g0*g0*g1^-1 is unipotent, not 1
    z = zeta(7)
    z2 = z * z
    g0, g1 = _mat(7, [[z, 1], [0, 1]]), _mat(7, [[z2, 0], [0, 1]])
    ginf = _mat(7, [[z2 * z2, -(z2 * z2)], [0, 1]])
    t = MonodromyTriple(level=7, g0=g0, g1=g1, ginf=ginf, exponents=(0, 0, 0))
    # and triples whose letters coincide: _letters keeps a repeated matrix under its first name, and
    # the walk reads the relation pairs of the other names through alias.  At n = 4 and kc = 2,
    # g0 = g0^-1 and g1 = g1^-1, and also ginf = g0 when {ka, kb} = {0, 2}; the identity triple
    # has one letter.
    identity = mat_identity(5)
    triples = [
        t,
        levelt_triple((1, 3, 2), 4),
        levelt_triple((0, 2, 2), 4),
        MonodromyTriple(level=5, g0=identity, g1=identity, ginf=identity, exponents=(0, 0, 0)),
    ]
    assert [len(_letters(u)[0]) for u in triples] == [6, 4, 2, 1]
    for u in triples:
        for cap, max_len in [(20000, 8), (1, 8), (1, 1), (24, 3), (7, 2), (50, 3)]:
            assert group_closure(u, cap, max_len) == exact_closure(u, cap, max_len), (u, cap, max_len)
    assert infinite_order_witness(t, 3) == "g0*g0*g1^-1"


def _det_exponents(letters):
    return [mat_det(g).root_of_unity_exponent() for g, _ in letters]


def _random_word_matrix(level, rng):
    """A random word of length 1 to 5 in the letters of a random Levelt triple at level."""
    t = levelt_triple(tuple(rng.randrange(level) for _ in range(3)), level)
    letters = [g for _, g in t.generators() + t.inverses()]
    m = rng.choice(letters)
    for _ in range(rng.randrange(5)):
        m = mat_mul(m, rng.choice(letters))
    return m


def _scaled(m, u):
    return tuple(tuple(x.mul_root_of_unity(u) for x in row) for row in m)


@pytest.mark.parametrize("level", [4, 5, 6, 7, 10, 12, 15])
def test_projective_key_is_constant_on_root_of_unity_multiples(level):
    # the key reads the class off the determinant, so the matrices are group elements: words in
    # Levelt letters, whose determinants are roots of unity
    rng = random.Random(level)
    count = roots_of_unity_order(level)
    keys = {}
    for _ in range(6):
        m = _random_word_matrix(level, rng)
        e = mat_det(m).root_of_unity_exponent()
        assert e is not None
        u, key = _projective_key(m, e)
        assert 0 <= u < count and key == _scaled(m, u)
        multiples = {_scaled(m, v) for v in range(count)}
        assert len(multiples) == count
        for scaled in multiples:
            assert _projective_key(scaled, mat_det(scaled).root_of_unity_exponent())[1] == key
        for other, other_multiples in keys.items():  # one key per class, and distinct classes differ
            assert (other == key) == (m in other_multiples), (m, other)
        keys.setdefault(key, multiples)
    assert len(keys) > 1


def test_group_closure_multiplies_by_no_identity(monkeypatch):
    # the pair loop multiplies letters and the class walk starts at them: no product has the
    # identity as an operand
    operands = []
    monkeypatch.setattr(monodromy, "mat_mul", lambda a, b: operands.extend((a, b)) or mat_mul(a, b))
    for w, j in [(W4, 1), (W5, 1), (W7, 2), (WeightTuple(10, (1, 3, 3, 3)), 1)]:
        group_closure(triple_from_weights(w, j))
    assert operands and not any(mat_is_identity(m) for m in operands)


def test_group_closure_tests_each_inverse_and_reversed_pair_once(monkeypatch):
    # the exact walk meets each element of the order-8 group at W4 by a word of length <= 2; the
    # closure tests them in walk order, but skips a letter whose inverse letter comes first and a
    # word (a, b) whose reverse (b, a) comes first
    t = triple_from_weights(W4, 1)
    names, matrices = list(letters(t).values()), list(letters(t))
    inverse_of = {a: next(b for b, h in zip(names, matrices) if mat_is_identity(mat_mul(g, h))) for a, g in zip(names, matrices)}
    words = [(mat, word) for mat, word, _ in walk(t, exact_key)]
    assert len(words) + 1 == 8 and max(len(word) for _, word in words) == 2
    kept = [
        mat
        for mat, word in words
        if names.index(inverse_of[word[0]] if len(word) == 1 else word[1]) >= names.index(word[0])
    ]
    assert len(kept) < len(words)
    tested = []
    monkeypatch.setattr(monodromy, "has_finite_order", lambda m, level: tested.append(m) or has_finite_order(m, level))
    assert group_closure(t).order == 8
    assert tested == kept


def test_group_closure_makes_one_product_per_pair_before_the_class_walk(monkeypatch):
    # before the class walk keys its first element, the closure makes the 3 letter inverses and at
    # most one product a*b of letters per pair with b not before a, none for a pair whose product
    # g0*g1*ginf = 1 makes 1 or a letter (at n = 6, 15 of the 21 pairs of six distinct letters)
    for w, made in [(W4, 7), (WeightTuple(6, (1, 1, 1, 3)), 18)]:
        t = triple_from_weights(w, 1)
        letters = [g for g, _ in _letters(t)[0]]
        pairs = {(a, b) for i, a in enumerate(letters) for b in letters[i:]}
        products, before_key = [], []
        monkeypatch.setattr(monodromy, "mat_mul", lambda a, b: products.append((a, b)) or mat_mul(a, b))
        monkeypatch.setattr(
            monodromy, "_projective_key", lambda m, e: before_key.append(len(products)) or _projective_key(m, e)
        )
        assert group_closure(t).kind is Finiteness.FINITE
        short = products[3 : before_key[0]]
        assert before_key[0] == made and len(set(short)) == len(short) and pairs.issuperset(short), w


def _projective_split(t):
    """(|G/Z|, |Z|) from one class walk: its classes, and N over the gcd of its shifts."""
    count = roots_of_unity_order(t.level)
    classes, scalars = 1, count
    letters, alias = _letters(t)
    for _, _, shift in _walk(t, letters, _det_exponents(letters), alias):
        if shift is None:
            classes += 1
        else:
            scalars = gcd(scalars, shift)
    return classes, count // scalars


def test_class_walk_product_budget(monkeypatch):
    # at the n = 10 closures of order 600 (|G/Z| = 60), the class walk makes at most 4 letter
    # products per class: after a last letter a, the two letters b with a*b = 1 or a letter are
    # skipped.  It rescales a matrix by a root of unity at most once per class (a product's
    # determinant exponent is 0, 1 or 2) and once per letter (to normalize it).
    keys = {
        levelt_exponents(w, j)
        for w in iter_weight_tuples(10)
        for j in range(1, 10)
        if is_irreducible(w, j) and finiteness_by_signature(w, j).kind is Finiteness.FINITE
    }
    products, rescaled = [], []
    monkeypatch.setattr(monodromy, "mat_mul", lambda a, b: products.append(a) or mat_mul(a, b))
    rescale = CyclotomicNumber.mul_root_of_unity
    monkeypatch.setattr(CyclotomicNumber, "mul_root_of_unity", lambda x, u: rescaled.append(x) or rescale(x, u))
    walked = 0
    for e in sorted(keys):
        t = levelt_triple(e, 10)
        letters, alias = _letters(t)
        dets = _det_exponents(letters)
        del products[:], rescaled[:]
        classes = 1 + sum(shift is None for _, _, shift in _walk(t, letters, dets, alias))
        if classes == 60:
            walked += 1
            assert len(products) <= 4 * classes, e
            assert len(rescaled) <= 4 * (classes + len(letters)), e  # four entries per matrix
    assert walked > 0


# The former class walk: every letter after every word, classes keyed by the least root-of-unity
# multiple of the first nonzero entry.  It stays only for the test below, which asserts the class
# walk's own words, their order and the keys it yields; the exact closure sees only the verdict.


def _mu_orbit_exponent(x):
    """The u in [0, N) with zeta_N^u * x the least of the N multiples of x by mu_N (coefficient order)."""
    n, deg = x.level, len(x.num)
    count = roots_of_unity_order(n)
    step, half = count // n, count // 2
    fold = zeta(n, deg).num  # x^deg in the power basis
    y = list(x.num)
    best, best_u = y, 0
    for k in range(n):
        for candidate, u in ((y, k * step), ([-c for c in y], k * step + half)):
            if candidate < best:
                best, best_u = candidate, u % count
        top = y[-1]
        y = [0] + y[:-1]
        if top:
            y = [a + top * b for a, b in zip(y, fold)]
    return best_u


def _former_projective_key(m):
    u = _mu_orbit_exponent(next(x for x in m[0] + m[1] if not x.is_zero()))
    return u, _scaled(m, u)


def test_mu_orbit_key_reference_names_the_least_multiple():
    for level, x in [(5, zeta(5) + 2), (6, zeta(6, 2) - 3), (9, zeta(9, 4) * 2 + 1), (12, -zeta(12, 7))]:
        count = roots_of_unity_order(level)
        multiples = [x.mul_root_of_unity(v) for v in range(count)]
        assert multiples[_mu_orbit_exponent(x)].num == min(m.num for m in multiples)
        assert len({m.mul_root_of_unity(_mu_orbit_exponent(m)) for m in multiples}) == 1


def _classes_and_scalars(yielded, count):
    """([(word, matrix)] of the classes a walk yields, in order; gcd of N and its shifts)."""
    yielded = list(yielded)
    shifts = (shift for _, _, shift in yielded if shift is not None)
    return [(word, mat) for mat, word, shift in yielded if shift is None], gcd(count, *shifts)


def test_class_walk_matches_the_walk_without_skipped_products():
    # at every FINITE irreducible n <= 12 triple, the class walk (normalized letters, relation-fixed
    # products skipped) yields the classes of the former walk (every letter after every word) by
    # the same words in the same order, each as the key of its word, with the same gcd of shifts
    keys = set()
    for w, j in _irreducible_instances(12):
        if finiteness_by_signature(w, j).kind is Finiteness.FINITE:
            ka, kb, kc = levelt_exponents(w, j)
            keys.add((w.n, (min(ka, kb), max(ka, kb), kc)))
    for n, e in sorted(keys):
        t = levelt_triple(e, n)
        letters, alias = _letters(t)
        count = roots_of_unity_order(n)
        classes, scalars = _classes_and_scalars(_walk(t, letters, _det_exponents(letters), alias), count)
        former, former_scalars = _classes_and_scalars(walk(t, _former_projective_key), count)
        assert [word for word, _ in classes] == [word for word, _ in former] and scalars == former_scalars, (n, e)
        for (_, key), (_, mat) in zip(classes, former):
            assert key == _projective_key(mat, mat_det(mat).root_of_unity_exponent())[1], (n, e)


# (n, |G|) -> (|G/Z|, |Z|) over the finite irreducible characters with n <= 12
PROJECTIVE_ORDERS = {
    (4, 8): (4, 2),
    (6, 6): (6, 1),
    (6, 12): (6, 2),
    (6, 18): (6, 3),
    (6, 24): (12, 2),
    (6, 72): (12, 6),
    (8, 8): (4, 2),
    (8, 16): (8, 2),
    (8, 32): (8, 4),
    (10, 10): (10, 1),
    (10, 20): (10, 2),
    (10, 50): (10, 5),
    (10, 600): (60, 10),
    (12, 6): (6, 1),
    (12, 8): (4, 2),
    (12, 12): (6, 2),
    (12, 18): (6, 3),
    (12, 24): (12, 2),
    (12, 48): (12, 4),
    (12, 72): (12, 6),
    (12, 96): (24, 4),
    (12, 288): (24, 12),
}
# Klein: a finite subgroup of PGL2(C) is cyclic, dihedral, A4 (12), S4 (24) or A5 (60);
# an irreducible one is not cyclic, and Q(zeta_n), n <= 12, meets dihedral orders 4 to 12
KLEIN_ORDERS = {4, 6, 8, 10, 12, 24, 60}


def test_projective_orders_n_le_12():
    # the matrices depend on n, {ka, kb} and kc only, so one triple per such key
    keys = set()
    for w, j in _irreducible_instances(12):
        if finiteness_by_signature(w, j).kind is Finiteness.FINITE:
            ka, kb, kc = levelt_exponents(w, j)
            keys.add((w.n, min(ka, kb), max(ka, kb), kc))
    found = {}
    for n, ka, kb, kc in sorted(keys):
        t = levelt_triple((ka, kb, kc), n)
        verdict = group_closure(t)
        pg, z = _projective_split(t)
        assert verdict.kind is Finiteness.FINITE and verdict.order == pg * z
        assert found.setdefault((n, verdict.order), (pg, z)) == (pg, z)
    assert found == PROJECTIVE_ORDERS
    assert {pg for pg, _ in found.values()} == KLEIN_ORDERS


@pytest.mark.parametrize("m, order", [((1, 2, 8, 4), 600), ((1, 2, 4, 8), 1800)])
def test_icosahedral_closures_n15(m, order):
    w = WeightTuple(15, m)
    assert finiteness_by_signature(w, 1).kind is Finiteness.FINITE
    t = triple_from_weights(w, 1)
    assert group_closure(t) == FinitenessVerdict(Finiteness.FINITE, order=order)
    assert _projective_split(t) == (60, order // 60)


# ---------------------------------------------------------------------------
# Kronecker's finite-order test against the exact reference M^B == I


def test_finite_order_bound_values():
    # phi(k) <= 2*phi(4) = 4 holds for k in {1..6, 8, 10, 12}: lcm = 120
    assert finite_order_bound(4) == 120
    b5 = finite_order_bound(5)
    for k in (1, 2, 3, 4, 5, 6, 8, 10, 12, 15, 16, 20, 24, 30):
        if euler_phi(k) <= 8:
            assert b5 % k == 0
    # any root of unity of degree <= 2 over the field divides the bound
    assert b5 == 5040


@pytest.mark.parametrize(
    "w, max_len", [(W4, None), (W5, 3), (WeightTuple(6, (1, 1, 1, 3)), None)]
)
def test_kronecker_agrees_with_reference_on_walk(w, max_len):
    t = triple_from_weights(w, 1)
    visited = 0
    for mat, word, _ in walk(t, exact_key):
        if max_len is not None and len(word) > max_len:
            break
        assert has_finite_order(mat, t.level) == has_finite_order_by_power(mat, t.level), word
        visited += 1
    if max_len is None:  # a finite fixture, walked in full (the identity is not yielded)
        assert visited + 1 == group_closure(t).order


def _mat(level, rows):
    return tuple(
        tuple(x if isinstance(x, CyclotomicNumber) else CyclotomicNumber.from_rational(level, x) for x in row)
        for row in rows
    )


@pytest.mark.parametrize(
    "rows, finite",
    [
        ([[zeta(5, 2), 0], [0, zeta(5, 2)]], True),  # scalar root of unity
        ([[-zeta(5, 1), 0], [0, -zeta(5, 1)]], True),  # scalar of order 10
        ([[2, 0], [0, 2]], False),  # scalar, not a root of unity
        ([[1, 1], [0, 1]], False),  # unipotent: trace exactly 2
        ([[-1, 1], [0, -1]], False),  # trace exactly -2, not scalar
        ([[zeta(5, 1), 1], [0, zeta(5, 1)]], False),  # |trace| exactly 2, trace not real
        ([[0, -1], [1, Fraction(1, 2)]], False),  # trace 1/2: unit-circle eigenvalues, not roots of unity
        ([[0, -2], [1, 0]], False),  # trace 0, but det 2 is not a root of unity
        ([[0, -1], [1, zeta(5, 1)]], False),  # |trace| = 1 everywhere, but trace != det*conj(trace)
        ([[0, Fraction(1, 2)], [-2, 0]], True),  # order 4 with non-integral entries
        ([[zeta(5, 1), 0], [0, zeta(5, 3)]], True),  # distinct roots of unity
        ([[1, 1], [-1, 0]], True),  # order 6, trace 1
    ],
)
def test_kronecker_edge_cases(rows, finite):
    m = _mat(5, rows)
    assert has_finite_order(m, 5) is finite
    assert has_finite_order_by_power(m, 5) is finite


def test_has_finite_order_past_the_float_range():
    # trace 10**400 overflows float_error_bound, so the exact step decides each unit h
    assert has_finite_order(_mat(5, [[0, -1], [1, 10**400]]), 5) is False
    assert has_finite_order(_mat(5, [[0, -1], [1, 1]]), 5) is True  # order 6


# (level, rows, finite, identity): the identity of has_finite_order that settles the matrix ("a":
# t = zeta_N^b + zeta_N^(u-b), "b": t^2 = k*det), or None where the Kronecker test does
CERTIFICATE_CASES = [
    (5, [[zeta(5, 1), 0], [0, zeta(5, 3)]], True, "a"),  # distinct eigenvalues in mu_10
    (5, [[zeta(5, 1), 1], [0, zeta(5, 1)]], False, "a"),  # repeated eigenvalue, not scalar
    (5, [[0, -1], [1, 0]], True, "b"),  # eigenvalues +-i, not in Q(zeta_5): t = 0, k = 0
    (5, [[0, -1], [1, -1]], True, "b"),  # order 3, eigenvalue ratio of order 3: k = 1
    (5, [[0, -1], [1, 1]], True, "b"),  # order 6: k = 1
    (5, [[0, -zeta(5, 2)], [1, zeta(5, 1)]], True, "b"),  # order 30, t^2 = det: k = 1
    (5, [[0, -1], [1, 10**400]], False, None),  # past the float range
    (12, [[zeta(12, 1), 0], [0, zeta(12, 5)]], True, "a"),  # distinct eigenvalues in mu_12
    (12, [[zeta(12, 1), 1], [0, zeta(12, 1)]], False, "a"),  # repeated eigenvalue, not scalar
    (12, [[-1, 1], [0, -1]], False, "a"),  # trace -2, not scalar
    (12, [[0, -1], [1, 0]], True, "a"),  # eigenvalues +-i, in Q(zeta_12); also t = 0
    (12, [[1, 1], [0, zeta(12, 3)]], True, "a"),  # eigenvalues 1, i: t^2 = 2*det, k = 2
    (12, [[0, -1], [1, -1]], True, "a"),  # eigenvalues omega, omega^2: k = 1
    (12, [[1, 1], [0, zeta(12, 2)]], True, "a"),  # eigenvalues 1, -omega^2: t^2 = 3*det, k = 3
    (12, [[0, -zeta(12, 1)], [1, 0]], True, "b"),  # t = 0, eigenvalues +-sqrt(-zeta_12), not in Q(zeta_12)
    (12, [[0, -1], [1, 10**400]], False, None),  # past the float range
]


def _settled_by(monkeypatch, m, level, guess):
    """(verdict, whether the Kronecker scan ran) of has_finite_order with _eigenvalue_guess replaced."""
    scanned = []
    half_units = monodromy._half_units
    monkeypatch.setattr(monodromy, "_half_units", lambda level: scanned.append(level) or half_units(level))
    monkeypatch.setattr(monodromy, "_eigenvalue_guess", guess)
    return has_finite_order(m, level), bool(scanned)


@pytest.mark.parametrize("level, rows, finite, identity", CERTIFICATE_CASES)
def test_eigenvalue_certificate_edge_cases(monkeypatch, level, rows, finite, identity):
    m = _mat(level, rows)
    assert identity is None or has_finite_order_by_power(m, level) is finite  # M^B grows past memory at 10**400
    guess = monodromy._eigenvalue_guess
    b, k = guess(mat_trace(m), mat_det(m).root_of_unity_exponent())
    assert _settled_by(monkeypatch, m, level, guess) == (finite, identity is None)
    if identity is None:
        assert (b, k) == (None, None)
    # either identity alone keeps the verdict, and the one named settles it without the scan
    for alone, name in [((b, None), "a"), ((None, k), "b")]:
        verdict, scanned = _settled_by(monkeypatch, m, level, lambda t, u: alone)
        assert verdict is finite
        if name == identity:
            assert not scanned
        elif identity == "b":  # (a) fails where (b) is named
            assert scanned


def test_eigenvalue_identities_k2_k3_alone(monkeypatch):
    # at n = 12 the k = 2 and k = 3 cases above are settled by (a) first; without it, by (b)
    for rows, k in [([[1, 1], [0, zeta(12, 3)]], 2), ([[1, 1], [0, zeta(12, 2)]], 3)]:
        m = _mat(12, rows)
        assert monodromy._eigenvalue_guess(mat_trace(m), mat_det(m).root_of_unity_exponent())[1] == k
        assert _settled_by(monkeypatch, m, 12, lambda t, u: (None, k)) == (True, False)


# the n <= 12 walk fixtures: (weights, character, words up to this length or all of a finite group)
WALK_FIXTURES = [
    (W4, 1, None),
    (W5, 1, 3),
    (WeightTuple(6, (1, 1, 1, 3)), 1, None),
    (WeightTuple(10, (1, 1, 1, 7)), 1, None),  # order 600: eigenvalue ratios outside Q(zeta_10)
    (WeightTuple(12, (1, 2, 7, 2)), 1, None),  # order 288
]


def _walk_matrices(w, j, max_len):
    t = triple_from_weights(w, j)
    walked = walk(t, exact_key)
    if max_len is not None:  # an infinite group: its walk stops at no length
        walked = itertools.takewhile(lambda step: len(step[1]) <= max_len, walked)
    return [mat for mat, _, _ in walked], t.level


def test_no_finite_verdict_comes_from_the_kronecker_scan(monkeypatch):
    verdicts = Counter()
    for w, j, max_len in WALK_FIXTURES:
        mats, level = _walk_matrices(w, j, max_len)
        for mat in mats:
            finite, scanned = _settled_by(monkeypatch, mat, level, monodromy._eigenvalue_guess)
            assert not (finite and scanned), (w, j)
            verdicts[finite, scanned] += 1
    assert verdicts == {(True, False): 952, (False, True): 78}  # the 78 are words of W5


def test_wrong_eigenvalue_guesses_change_no_verdict(monkeypatch):
    guess = monodromy._eigenvalue_guess

    def wrong(t, u):
        b, k = guess(t, u)
        return None if b is None else b + 1, None if k is None else k + 1

    for w, j, max_len in WALK_FIXTURES:
        mats, level = _walk_matrices(w, j, max_len)
        right = [has_finite_order(mat, level) for mat in mats]
        monkeypatch.setattr(monodromy, "_eigenvalue_guess", wrong)
        assert [has_finite_order(mat, level) for mat in mats] == right, (w, j)
        monkeypatch.setattr(monodromy, "_eigenvalue_guess", guess)


@pytest.mark.parametrize("n", [25, 35, 49, 89, 91, 97])
def test_has_finite_order_matches_full_unit_loop_at_large_levels(n):
    # the words of length <= 2 of the certify --oracle witness triple of the standard family
    w = standard_family(n).w
    t = triple_from_weights(w, find_infinite_character(w))
    verdicts = []
    for mat, word, _ in walk(t, exact_key):
        if len(word) > 2:
            break
        verdicts.append(has_finite_order(mat, n))
        assert verdicts[-1] == has_finite_order_by_unit_loop(mat, n), word
    assert True in verdicts and False in verdicts


# ---------------------------------------------------------------------------
# interval signs against the decimal ladder


def test_interval_signs_match_decimal_ladder_on_population(monkeypatch):
    # The matrices depend on {ka, kb} and kc only (the stored exponents orient the
    # form after its signs are taken), so one triple per such key meets every
    # element the n <= 12 population hands to real_sign.
    band, entries = set(), set()
    sink = band
    monkeypatch.setattr(monodromy, "real_sign", lambda x: sink.add(x) or real_sign(x))
    keys = set()
    for w, j in _irreducible_instances(12):
        ka, kb, kc = levelt_exponents(w, j)
        keys.add((w.n, min(ka, kb), max(ka, kb), kc))
    for n, ka, kb, kc in sorted(keys):
        t = levelt_triple((ka, kb, kc), n)
        sink = band
        group_closure(t)
        sink = entries
        invariant_hermitian_form(t)
    irrational = [x for x in band | entries if not x.is_rational()]
    # no closure element reaches the Kronecker band: the |t| = 2 elements that did are Jordan
    # blocks, which has_finite_order's eigenvalue identity (a) settles exactly
    assert (len(band), len(entries), len(irrational)) == (0, 182, 143)
    for x in band | entries:
        assert real_sign(x) == decimal_ladder_sign(x), x


# ---------------------------------------------------------------------------
# common eigenvector oracle


def test_no_common_eigenvector_for_irreducible():
    for (w, j) in [(W5, 1), (W5, 3), (W7, 2), (W4, 1)]:
        assert not has_common_eigenvector(triple_from_weights(w, j))


def _diagonal_triple(level=5):
    one = CyclotomicNumber.one(level)
    zero = CyclotomicNumber.zero(level)
    z = zeta(level)
    zinv = zeta(level, level - 1)
    g0 = ((one, zero), (zero, z))
    g1 = ((one, zero), (zero, zinv))
    return MonodromyTriple(
        level=level,
        g0=g0,
        g1=g1,
        ginf=mat_identity(level),
        exponents=(0, 0, 0),
    )


def test_common_eigenvector_for_reducible_triple():
    assert has_common_eigenvector(_diagonal_triple())


def _triple(level, g0, g1):
    return MonodromyTriple(level, g0, g1, inverse(mat_mul(g0, g1)), exponents=(0, 0, 0))


def _random_element(level, rng, size=2):
    return CyclotomicNumber(level, tuple(rng.randint(-size, size) for _ in range(euler_phi(level))))


def _conjugated_upper_triangular_triple(level, rng):
    """g0, g1 upper triangular with root-of-unity diagonals, both conjugated by one invertible P."""
    zero = CyclotomicNumber.zero(level)

    def upper():
        a, d = (zeta(level, rng.randrange(level)) for _ in range(2))
        return ((a, _random_element(level, rng)), (zero, d))

    p = ((zero, zero), (zero, zero))
    while mat_det(p).is_zero():
        p = tuple(tuple(_random_element(level, rng) for _ in range(2)) for _ in range(2))
    p_inv = inverse(p)
    return _triple(level, *(mat_mul(mat_mul(p, upper()), p_inv) for _ in range(2)))


@pytest.mark.parametrize("level", [3, 4, 5, 7, 8, 9, 12])
def test_common_eigenvector_for_conjugated_triangular_pairs(level):
    rng = random.Random(8100 + level)
    noncommuting = 0
    for _ in range(6):
        t = _conjugated_upper_triangular_triple(level, rng)
        assert has_common_eigenvector(t)
        noncommuting += mat_mul(t.g0, t.g1) != mat_mul(t.g1, t.g0)
    assert noncommuting  # a nonzero nilpotent commutator, not only a zero one


@pytest.mark.parametrize("scalar_at", [0, 1])
def test_common_eigenvector_with_one_scalar_generator(scalar_at):
    t = triple_from_weights(W7, 2)
    scalar = tuple(tuple(zeta(7, 3) if r == c else CyclotomicNumber.zero(7) for c in range(2)) for r in range(2))
    pair = (scalar, t.g1) if scalar_at == 0 else (t.g0, scalar)
    assert has_common_eigenvector(_triple(7, *pair))


def test_common_eigenvector_for_commuting_non_scalar_pairs():
    t = triple_from_weights(W5, 1)
    assert has_common_eigenvector(_triple(5, t.g0, mat_mul(t.g0, t.g0)))
    # a unipotent g0 and a non-semisimple g1 commuting with it: only e1 is common
    one, zero, z = CyclotomicNumber.one(5), CyclotomicNumber.zero(5), zeta(5)
    unipotent = ((one, one), (zero, one))
    assert has_common_eigenvector(_triple(5, unipotent, ((z, one + z), (zero, z))))


# ---------------------------------------------------------------------------
# invariant Hermitian form


def test_form_is_invariant_and_hermitian():
    t = triple_from_weights(W5, 2)
    form, sig = invariant_hermitian_form(t)
    assert mat_conj_transpose(form) == form
    for _, g in t.generators():
        gc = mat_conj_transpose(g)
        assert mat_mul(mat_mul(gc, form), g) == form
    assert sig == (1, 1)


def test_form_uses_no_field_inverse(monkeypatch):
    def no_inverse(self):
        raise AssertionError("field inverse on the invariant-form path")

    monkeypatch.setattr(CyclotomicNumber, "inverse", no_inverse)
    for w, j in _irreducible_instances(8):
        invariant_hermitian_form(triple_from_weights(w, j))


def test_form_signature_matches_eigenspace():
    cases = [(W5, 1), (W5, 2), (W5, 4), (W4, 1), (W7, 3), (W7, 6)]
    for w, j in cases:
        _, sig = invariant_hermitian_form(triple_from_weights(w, j))
        assert sig == signature(w, j)


def test_form_scaling_keeps_signature():
    t = triple_from_weights(W5, 2)
    form, sig = invariant_hermitian_form(t)
    doubled = tuple(tuple(2 * entry for entry in row) for row in form)
    for _, g in t.generators():
        gc = mat_conj_transpose(g)
        assert mat_mul(mat_mul(gc, doubled), g) == doubled
    assert hermitian_signature(doubled) == sig


def test_form_rejects_solution_not_closed_under_conjugate_transpose(monkeypatch):
    one, two, zero = (CyclotomicNumber.from_rational(5, q) for q in (1, 2, 0))
    # ((1, 2), (0, 1)) has conjugate transpose ((1, 0), (2, 1)), not a multiple of it
    monkeypatch.setattr(monodromy, "_invariant_line", lambda t: (((one, two), (zero, one)), one))
    with pytest.raises(InternalInconsistencyError, match="left the solution line"):
        invariant_hermitian_form(triple_from_weights(W5, 2))


def _form_or_error(form, t):
    try:
        return form(t)
    except InternalInconsistencyError as exc:
        return type(exc)


def test_closed_form_solve_matches_gauss_jordan_reference():
    # the form depends on the triple alone, so one triple per exponent triple covers every
    # irreducible n <= 12 instance; every (ka, kb, kc) at 2 <= n <= 9 adds the reducible ones.  The
    # closed-form line and scalar give the form of the Gauss-Jordan line and the point X + X*
    keys = {(n, e) for n in range(2, 10) for e in itertools.product(range(n), repeat=3)}
    keys |= {(w.n, levelt_exponents(w, j)) for w, j in _irreducible_instances(12)}
    triples = [levelt_triple(e, n) for n, e in sorted(keys)]
    closed = [_form_or_error(invariant_hermitian_form, t) for t in triples]
    assert [_form_or_error(hermitian_form, t) for t in triples] == closed
    errors = [r for r in closed if isinstance(r, type)]
    assert ReducibleNoUniqueFormError in errors and InternalInconsistencyError in errors
    assert len(errors) < len(closed)
    # n = 2, (1, 1, 0): qx = 1 and alpha = q = -1, so s = 1 + alpha = 0 and zeta - zeta^-1 = 0
    for form in (invariant_hermitian_form, hermitian_form):
        with pytest.raises(InternalInconsistencyError, match="no Hermitian representative found"):
            form(levelt_triple((1, 1, 0), 2))


def test_form_rejects_reducible_triple():
    # (0, k, k): ka = 0 and kb = kc, so A and B share the eigenvalues 1 and zeta^k
    for k in range(1, 5):
        t = levelt_triple((0, k, k), 5)
        assert has_common_eigenvector(t)
        with pytest.raises(ReducibleNoUniqueFormError):
            invariant_hermitian_form(t)
    with pytest.raises(ValueError, match="Levelt companion shape"):
        invariant_hermitian_form(_diagonal_triple())


def test_form_is_degenerate_exactly_on_reducible_triples():
    # every exponent triple at 2 <= n <= 12: by Schur a triple with no common eigenvector has a
    # nondegenerate form, and a reducible one has no form on one line or a degenerate one, whose
    # kernel every generator fixes.  The one other error is n = 2, (1, 1, 0): no Hermitian scalar
    outcomes = Counter()
    for n in range(2, 13):
        for e in itertools.product(range(n), repeat=3):
            t = levelt_triple(e, n)
            result = _form_or_error(invariant_hermitian_form, t)
            outcomes[has_common_eigenvector(t), result if isinstance(result, type) else result[1]] += 1
    assert outcomes == {
        (True, ReducibleNoUniqueFormError): 2167,
        (False, (2, 0)): 495,
        (False, (0, 2)): 495,
        (False, (1, 1)): 2925,
        (False, InternalInconsistencyError): 1,
    }


def test_form_at_certificate_levels():
    # certificates are issued far above the n <= 12 sweep: a seeded sample of irreducible
    # characters at 13 <= n <= 400, each form solved, checked, and compared with the eigenspace
    rng = random.Random(15)
    kinds = Counter()
    while sum(kinds.values()) < 150:
        n = rng.randint(13, 400)
        cuts = sorted(rng.sample(range(1, n), 3))
        m = tuple(b - a for a, b in zip((0, *cuts), (*cuts, n)))  # four parts, each <= n - 3
        j = rng.randrange(1, n)
        if gcd(*m, n) != 1:
            continue
        w = WeightTuple(n, m)
        if not is_irreducible(w, j):
            continue
        t = triple_from_weights(w, j)
        form, sig = invariant_hermitian_form(t)
        assert mat_conj_transpose(form) == form
        for g in (t.g0, t.g1):
            assert mat_mul(mat_mul(mat_conj_transpose(g), form), g) == form
        assert sig == signature(w, j)
        kinds[sig] += 1
    assert kinds == {(1, 1): 94, (2, 0): 24, (0, 2): 32}


def _random_character(rng, n_min, n_max):
    """A uniform level in [n_min, n_max], weights with sum n and gcd 1, and a character j."""
    while True:
        n = rng.randint(n_min, n_max)
        cuts = sorted(rng.sample(range(1, n), 3))
        m = tuple(b - a for a, b in zip((0, *cuts), (*cuts, n)))  # four parts, each <= n - 3
        if gcd(*m, n) == 1:
            return WeightTuple(n, m), rng.randrange(1, n)


def test_routes_agree_at_certificate_levels():
    # the criterion route and the oracle route at the levels certificates are issued: a seeded
    # uniform sample until 150 characters are irreducible, then a stratum of 6 the criterion
    # calls FINITE (rare in a uniform draw); the oracle decides each on its own
    rng, seen = random.Random(7), Counter()
    while seen["irreducible"] < 150 or seen[Finiteness.FINITE] < 6:
        w, j = _random_character(rng, 13, 400)
        irreducible = is_irreducible(w, j)
        if seen["irreducible"] >= 150 and not (irreducible and finiteness_by_signature(w, j).kind is Finiteness.FINITE):
            continue
        t = triple_from_weights(w, j)
        assert has_common_eigenvector(t) is not irreducible, (w, j)
        seen["irreducible" if irreducible else "reducible"] += 1
        if irreducible:
            kind = group_closure(t).kind
            assert agreement(finiteness_by_signature(w, j).kind, kind), (w, j, kind)
            seen[kind] += 1
    assert seen == {"irreducible": 156, "reducible": 6, Finiteness.INFINITE: 150, Finiteness.FINITE: 6}


# ---------------------------------------------------------------------------
# the simple argument: the witness trace in closed form


def _witness_trace(ka, kb, kc, n):
    """The six-term closed form of tr(g0*g1^-1) derived in levelt_triple's docstring."""
    plus = 1 + zeta(n, ka + kb - kc) + zeta(n, -kc) + zeta(n, ka + kb - 2 * kc)
    return plus - zeta(n, ka - kc) - zeta(n, kb - kc)


def _witness_word(t):
    return mat_mul(t.g0, dict(t.inverses())["g1^-1"])


def test_witness_trace_closed_form():
    classes = [f.w for n in range(5, 26) for f in iter_canonical_families(n)]
    assert len(classes) == 3204
    for w in classes + [standard_family(n).w for n in (1001, 1009, 4001)]:
        t = triple_from_weights(w, find_infinite_character(w))
        assert _witness_trace(*t.exponents, w.n) == mat_trace(_witness_word(t)), w


@pytest.mark.parametrize("n", [5, 7, 11, 13, 101, 1009])
def test_standard_series_witness_trace(n):
    # at j* = (n+1)/2 the six terms collapse to the real number 4cos^2(pi/n) + 2cos(pi/n), and
    # det(g0*g1^-1) = 1: a trace above 2 puts an eigenvalue above 1
    w = standard_family(n).w
    j = find_infinite_character(w)
    exponents = levelt_exponents(w, j)
    assert (j, exponents) == ((n + 1) // 2, ((n - 3) // 2, (n - 1) // 2, n - 1))
    word = _witness_word(levelt_triple(exponents, n))
    trace = mat_trace(word)
    assert trace == _witness_trace(*exponents, n) == trace.conjugate()
    assert mat_det(word) == CyclotomicNumber.one(n)
    cos = math.cos(math.pi / n)
    assert trace.complex_value() == pytest.approx(4 * cos * cos + 2 * cos, abs=1e-9)
    if n == 5:
        assert trace == 3 + 2 * (zeta(5) + zeta(5, 4))  # 2 + sqrt(5)


def test_standard_series_trace_exceeds_2_iff_n_above_3():
    # the exponents ((n-3)/2, (n-1)/2, n-1) at every odd level: with c = 2cos(pi/n), which is
    # -(zeta^((n-1)/2) + zeta^((n+1)/2)), the trace is c^2 + c and minus 2 it is (c - 1)(c + 2),
    # that is 2(2cos(pi/n) - 1)(cos(pi/n) + 1): 0 at n = 3, where c = 1, and positive above it
    for n in range(3, 80, 2):
        trace = _witness_trace((n - 3) // 2, (n - 1) // 2, n - 1, n)
        c = -(zeta(n, (n - 1) // 2) + zeta(n, (n + 1) // 2))
        assert trace == c * c + c and trace - 2 == (c - 1) * (c + 2), n
        assert real_sign(trace - 2) == real_sign(c - 1) == (n > 3), n


# ---------------------------------------------------------------------------
# criterion vs oracle on a compact sample (the full sweep runs in acceptance)


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_criterion_oracle_equivalence_small(n):
    from fujitacert.sweep import iter_weight_tuples

    for w in iter_weight_tuples(n):
        for j in range(1, n):
            irr = is_irreducible(w, j)
            t = triple_from_weights(w, j)
            assert irr == (not has_common_eigenvector(t))
            if not irr:
                continue
            criterion = finiteness_by_signature(w, j)
            oracle = group_closure(t)
            assert agreement(criterion.kind, oracle.kind) is True


def test_sweep_asks_the_oracle_about_every_character(monkeypatch):
    # an oracle that never finds a common eigenvector disagrees on exactly the reducible characters
    from fujitacert import sweep

    monkeypatch.setattr(sweep, "has_common_eigenvector", lambda t: False)
    summary = sweep.run_sweep(6)
    reducible = [
        (n, w.m, j)
        for n in range(4, 7)
        for w in iter_weight_tuples(n)
        for j in range(1, n)
        if not is_irreducible(w, j)
    ]
    assert len(reducible) == 14
    assert list(summary.irreducibility_mismatches) == reducible
    assert summary.irreducibility_checked == summary.characters


# ---------------------------------------------------------------------------
# the two routes stay independent


class _Forbidden:
    """Stands in for a name that a route may not use: a call or an attribute read fails the test."""

    def __init__(self, name):
        self.name = name

    def __call__(self, *args, **kwargs):
        raise AssertionError(f"{self.name} used")

    __getattr__ = __call__


def _forbid(monkeypatch, module, names):
    for name in names:
        monkeypatch.setattr(module, name, _Forbidden(f"{module.__name__}.{name}"))


def test_criterion_route_uses_no_cyclotomic_number_and_no_oracle(monkeypatch):
    # the criteria are integer arithmetic on the weights: every n <= 12 character, and the
    # infinite character of each standard family, decided with the field and the oracle removed
    characters = [(w, j) for n in range(4, 13) for w in iter_weight_tuples(n) for j in range(1, n)]
    families = [standard_family(n).w for n in (5, 7, 11)]
    cyclotomic_names = ("CyclotomicNumber", "sum_of_products", "zeta", "real_sign", "float_error_bound")
    cyclotomic_names += ("inverse_one_minus_root", "roots_of_unity_order")
    oracle_names = ("levelt_triple", "group_closure", "has_common_eigenvector", "invariant_hermitian_form")
    _forbid(monkeypatch, monodromy, cyclotomic_names + oracle_names)
    decided = 0
    for w, j in characters:
        levelt_exponents(w, j)
        if is_irreducible(w, j):
            finiteness_by_signature(w, j)
            decided += 1
    assert decided == 3671
    assert [find_infinite_character(w) for w in families] == [3, 4, 6]


def test_oracle_route_uses_no_sigma_sum_and_no_criterion(monkeypatch):
    # the oracle reads the matrices alone: every n <= 8 character, decided with the sigma sums and
    # the criteria removed (levelt_exponents, the one shared input, stays)
    characters = [(w, j, is_irreducible(w, j)) for n in range(4, 9) for w in iter_weight_tuples(n) for j in range(1, n)]
    _forbid(monkeypatch, monodromy, ("sigma_sum", "is_irreducible", "finiteness_by_signature", "find_infinite_character"))
    _forbid(monkeypatch, eigenspace, ("sigma_sum", "sigma_table", "signature", "hodge_rows"))
    decided = 0
    for w, j, irreducible in characters:
        t = triple_from_weights(w, j)
        assert has_common_eigenvector(t) is not irreducible
        if irreducible:
            group_closure(t)
            invariant_hermitian_form(t)
            decided += 1
    assert decided == 365
