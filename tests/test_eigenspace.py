import itertools
import random
import types
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from fujitacert.eigenspace import (
    DegenerateCharacterError,
    ResidueWeights,
    SplitClass,
    WeightTuple,
    EigenspaceReport,
    compositions,
    eigenspace_report,
    eigenspace_table,
    iter_weight_tuples,
    mu,
    sigma_sum,
    sigma_table,
    signature,
)
from fujitacert.residues import InternalInconsistencyError


@st.composite
def weight_tuples(draw, max_n=30):
    n = draw(st.integers(min_value=4, max_value=max_n))
    m0 = draw(st.integers(min_value=1, max_value=n - 3))
    m1 = draw(st.integers(min_value=1, max_value=n - 3))
    m2 = draw(st.integers(min_value=1, max_value=n - 3))
    m3 = n - m0 - m1 - m2
    assume(1 <= m3 <= n - 3)
    assume(gcd(gcd(gcd(gcd(m0, m1), m2), m3), n) == 1)
    return WeightTuple(n=n, m=(m0, m1, m2, m3))


def test_weight_tuple_validation():
    with pytest.raises(ValueError):
        WeightTuple(5, (1, 1, 1, 3))  # sum 6 != 5
    with pytest.raises(ValueError):
        WeightTuple(5, (1, 1, 0, 3))  # zero exponent
    with pytest.raises(ValueError):
        WeightTuple(8, (2, 2, 2, 2))  # gcd(m, n) = 2
    with pytest.raises(ValueError):
        WeightTuple(7, (1, 1, 5, 0))  # exponent above n-3 plus a zero
    WeightTuple(6, (1, 1, 1, 3))  # boundary m3 = n-3 is allowed
    WeightTuple(7, (1, 1, 1, 4))


def test_weight_tuple_is_the_strict_residue_system():
    assert issubclass(WeightTuple, ResidueWeights) and "all_units" not in vars(WeightTuple)
    # (1, 1, 1, 11) names the residues of (1, 1, 1, 4) mod 7: relaxed yes, strict no
    assert ResidueWeights(7, (1, 1, 1, 11)).m == WeightTuple(7, (1, 1, 1, 4)).m == (1, 1, 1, 4)
    with pytest.raises(ValueError, match=r"sum\(1, 1, 1, 11\) = 14 != 7"):
        WeightTuple(7, (1, 1, 1, 11))


def test_mu_examples():
    w = WeightTuple(5, (1, 1, 1, 2))
    assert mu(w, 3, 2) == Fraction(4, 5)
    assert mu(w, 0, 1) == Fraction(1, 5)
    w6 = WeightTuple(6, (1, 2, 2, 1))
    with pytest.raises(DegenerateCharacterError):
        mu(w6, 1, 3)


def test_sigma_sum_examples():
    w8 = ResidueWeights(8, (4, 4, 3, 5))
    for h in (1, 3, 5, 7):
        assert sigma_sum(w8, h) == 16
    w = WeightTuple(5, (1, 1, 1, 2))
    assert sigma_sum(w, 1) == 5
    assert sigma_sum(w, 4) == 15


def test_hodge_dims_examples():
    w = WeightTuple(5, (1, 1, 1, 2))
    assert signature(w, 1) == (0, 2)
    assert signature(w, 4) == (2, 0)
    assert signature(WeightTuple(7, (1, 1, 1, 4)), 3) == (1, 1)


def test_signature_examples():
    w = WeightTuple(5, (1, 1, 1, 2))
    assert signature(w, 2) == (1, 1)
    assert signature(w, 4) == (2, 0)
    assert signature(WeightTuple(4, (1, 1, 1, 1)), 1) == (0, 2)
    # a degenerate character has a flagged report but no signature
    w6 = WeightTuple(6, (1, 2, 2, 1))
    assert eigenspace_report(w6, 3) == EigenspaceReport(3, 0, None, None, None, degenerate=True)
    with pytest.raises(DegenerateCharacterError):
        signature(w6, 3)


def test_eigenspace_table_n5():
    w = WeightTuple(5, (1, 1, 1, 2))
    table = eigenspace_table(w)
    assert [r.split_class for r in table] == [
        SplitClass.ZERO,
        SplitClass.AMPLE_CANDIDATE,
        SplitClass.AMPLE_CANDIDATE,
        SplitClass.FLAT,
    ]
    assert [r.dim_h10 for r in table] == [0, 1, 1, 2]
    assert sum(r.dim_h10 for r in table) == 4


def test_eigenspace_table_n7():
    table = eigenspace_table(WeightTuple(7, (1, 1, 1, 4)))
    assert [r.dim_h10 for r in table] == [0, 0, 1, 1, 2, 2]
    assert sum(r.dim_h10 for r in table) == 6


def test_degenerate_rows_flagged_not_fatal():
    w = ResidueWeights(6, (1, 2, 2, 1))
    table = eigenspace_table(w)
    degenerate_js = [r.j for r in table if r.degenerate]
    assert degenerate_js == [3]
    assert table[2] == EigenspaceReport(3, 0, None, None, None, True)


def test_character_zero_rejected():
    w = WeightTuple(5, (1, 1, 1, 2))
    with pytest.raises(ValueError):
        sigma_sum(w, 0)
    with pytest.raises(ValueError):
        sigma_sum(w, 5)


@given(weight_tuples(), st.data())
def test_sigma_in_allowed_set(w, data):
    j = data.draw(st.integers(min_value=1, max_value=w.n - 1))
    try:
        total = sigma_sum(w, j)
    except DegenerateCharacterError:
        return
    assert total in (w.n, 2 * w.n, 3 * w.n)


@given(weight_tuples(), st.data())
def test_complementary_characters(w, data):
    j = data.draw(st.integers(min_value=1, max_value=w.n - 1))
    try:
        s1 = sigma_sum(w, j)
        s2 = sigma_sum(w, w.n - j)
    except DegenerateCharacterError:
        return
    assert s1 + s2 == 4 * w.n
    assert signature(w, j) == tuple(reversed(signature(w, w.n - j)))


def test_unit_weights_fill_genus():
    # every all-unit tuple the weight_tuples strategy can draw (4 <= n <= 30), not a sample
    checked = 0
    for n in range(4, 31):
        for w in filter(WeightTuple.all_units, iter_weight_tuples(n)):
            table = eigenspace_table(w)
            assert not any(r.degenerate for r in table)
            assert sum(r.dim_h10 for r in table) == w.n - 1
            checked += 1
    assert checked == 9607


@given(weight_tuples(), st.data())
def test_flat_iff_complement_zero(w, data):
    j = data.draw(st.integers(min_value=1, max_value=w.n - 1))
    table = eigenspace_table(w)
    row, comp = table[j - 1], table[w.n - j - 1]
    if row.degenerate:
        assert comp.degenerate
        return
    assert (row.split_class is SplitClass.FLAT) == (comp.split_class is SplitClass.ZERO)


def test_compositions_match_filtered_product():
    for n in range(1, 9):
        for k in range(1, 5):
            reference = [c for c in itertools.product(range(1, n + 1), repeat=k) if sum(c) == n]
            assert list(compositions(n, k)) == reference, (n, k)


def test_iter_weight_tuples_match_filtered_product():
    for n in range(4, 13):
        reference = [
            m
            for m in itertools.product(range(1, n - 2), repeat=4)
            if sum(m) == n and gcd(gcd(gcd(gcd(m[0], m[1]), m[2]), m[3]), n) == 1
        ]
        assert [w.m for w in iter_weight_tuples(n)] == reference, n


# residue systems with degenerate characters: non-unit residues and a zero residue
RESIDUE_SYSTEMS = [
    ResidueWeights(12, (3, 4, 6, 11)),
    ResidueWeights(8, (4, 4, 3, 5)),
    ResidueWeights(6, (1, 2, 2, 1)),
    ResidueWeights(6, (0, 1, 2, 3)),
]


def _small_weights():
    # every residue system at n = 2, 3, 4, where sigma_table's mirrored half is empty or one character
    for n in (2, 3, 4):
        yield from (ResidueWeights(n, m) for m in itertools.product(range(n), repeat=4) if sum(m) % n == 0)
    for n in range(4, 14):
        yield from iter_weight_tuples(n)
    yield from RESIDUE_SYSTEMS


def _sigma_or_zero(w, j):
    try:
        return sigma_sum(w, j)
    except DegenerateCharacterError:
        return 0


def _report_reference(w, j):
    try:
        sigma = sigma_sum(w, j)
    except DegenerateCharacterError:
        return EigenspaceReport(j, 0, None, None, None, degenerate=True)
    h10 = sigma // w.n - 1
    split_class = (SplitClass.ZERO, SplitClass.AMPLE_CANDIDATE, SplitClass.FLAT)[h10]
    return EigenspaceReport(j, sigma, h10, 2 - h10, split_class, degenerate=False)


def test_sigma_table_matches_sigma_sum():
    degenerate_seen = 0
    for w in _small_weights():
        table = sigma_table(w)
        assert table == [_sigma_or_zero(w, j) for j in range(1, w.n)], w
        degenerate_seen += 0 in table
    assert sigma_table(RESIDUE_SYSTEMS[0]) == [24, 0, 0, 0, 24, 0, 24, 0, 0, 0, 24]
    assert sigma_table(RESIDUE_SYSTEMS[3]) == [0] * 5
    assert sigma_table(ResidueWeights(2, (1, 1, 1, 1))) == [4]
    assert sigma_table(ResidueWeights(4, (1, 1, 1, 1))) == [4, 8, 12]
    assert degenerate_seen > len(RESIDUE_SYSTEMS)


# the mirror sigma_{n-j} = 4n - sigma_j checked against sigma_sum at every j: a prime
# level; 5005 = 5*7*11*13 with non-unit m_i, degenerate in both halves; 10006 = 2*5003,
# whose j = 5003 is its own mirror, degenerate (an even m_i) or 2n (every m_i odd);
# a residue 0, degenerate everywhere
LARGE_LEVEL_SYSTEMS = [
    ResidueWeights(10007, (1, 1, 1, 10004)),
    ResidueWeights(5005, (5, 7, 11, 4982)),
    ResidueWeights(10006, (2, 3, 5, 9996)),
    ResidueWeights(10006, (1, 1, 1, 10003)),
    ResidueWeights(5005, (0, 1, 1, 5003)),
]


def test_sigma_table_matches_sigma_sum_at_large_levels():
    tables = [sigma_table(w) for w in LARGE_LEVEL_SYSTEMS]
    for w, table in zip(LARGE_LEVEL_SYSTEMS, tables):
        assert table == [_sigma_or_zero(w, j) for j in range(1, w.n)], w
    n = 5005
    degenerate = [j for j, s in enumerate(tables[1], 1) if s == 0]
    # multiples of n/5, n/7 and n/11: 4 + 6 + 10 characters, from 455 < n/2 to n - 455 > n/2
    assert (min(degenerate), max(degenerate), len(degenerate)) == (455, n - 455, 4 + 6 + 10)
    assert [table[5002] for table in tables[2:4]] == [0, 2 * 10006]
    assert tables[4] == [0] * (n - 1)


def test_sigma_table_matches_sigma_sum_at_mid_levels():
    # seeded residue systems at 14 <= n <= 400, residues from [0, n): each m_i's degenerate
    # characters are the multiples of n / gcd(m_i, n), one slice of the half table
    rng = random.Random(35)
    systems = []
    for _ in range(200):
        n = rng.randrange(14, 401)
        m = [rng.randrange(n) for _ in range(3)]
        systems.append(ResidueWeights(n, (*m, -sum(m) % n)))
    for w in systems:
        assert sigma_table(w) == [_sigma_or_zero(w, j) for j in range(1, w.n)], w
    assert any(0 in w.m for w in systems)
    assert any(1 < gcd(mi, w.n) < w.n for w in systems for mi in w.m)
    assert any(w.n % 2 == 0 and _sigma_or_zero(w, w.n // 2) for w in systems)
    assert any(w.n % 2 == 0 and not _sigma_or_zero(w, w.n // 2) for w in systems)


def test_eigenspace_table_matches_per_character_reports():
    for w in _small_weights():
        table = eigenspace_table(w)
        assert table == [_report_reference(w, j) for j in range(1, w.n)], w
        for r in table:
            if not r.degenerate:
                assert (r.dim_h10, r.dim_h01) == signature(w, r.j)


def test_eigenspace_report_matches_the_table():
    # analyze -j reads one sigma_sum where it read the whole eigenspace_table; every
    # tuple is checked at one character, j cycling so that each n meets every j
    degenerate = 0
    for n in range(4, 41):
        for i, w in enumerate(iter_weight_tuples(n)):
            j = i % (n - 1) + 1
            report = eigenspace_report(w, j)
            assert report == eigenspace_table(w)[j - 1], (w, j)
            assert eigenspace_report(w, j + n) == report
            degenerate += report.degenerate
    assert degenerate > 1000


def test_sigma_table_checks_every_character():
    # sum(m) = 4 is not 0 mod 7, which the validated types rule out
    bad = types.SimpleNamespace(n=7, m=(1, 1, 1, 1))
    with pytest.raises(InternalInconsistencyError, match=r"sigma\(1\) = 4"):
        sigma_table(bad)
