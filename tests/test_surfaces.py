from collections import Counter
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fujitacert import surfaces
from fujitacert.eigenspace import compositions, iter_weight_tuples
from fujitacert.residues import InternalInconsistencyError
from fujitacert.surfaces import (
    ADJACENT_PAIRS,
    BRANCH_LABELS,
    FamilyData,
    NotCoprimeTo6Error,
    admissibility_reason,
    admissible_exists,
    canonical_family,
    family,
    family_orbit,
    inertia,
    invariants,
    iter_admissible_families,
    iter_canonical_families,
    smoothness_check,
    standard_family,
)
from reference import least_in_orbit_families, smoothness_by_label


def _search_admissible(n):
    """Independent oracle for admissible_exists: brute force over all tuples."""
    unit = [gcd(x, n) == 1 for x in range(n)]
    for m0 in range(1, n):
        if not unit[m0]:
            continue
        for m1 in range(1, n - m0):
            if not unit[m1]:
                continue
            for m2 in range(1, n - m0 - m1):
                m3 = n - m0 - m1 - m2
                if m3 < 1 or not unit[m2] or not unit[m3]:
                    continue
                if not all(unit[(m + m3) % n] for m in (m0, m1, m2)):
                    continue
                for n0 in range(1, n):
                    if not unit[n0]:
                        continue
                    for n1 in range(1, n - n0):
                        n2 = n - n0 - n1
                        if n2 >= 1 and unit[n1] and unit[n2]:
                            return True
    return False


def test_admissible_examples():
    assert admissibility_reason(5, (1, 1, 1, 2), (1, 2, 2)) is None
    assert admissibility_reason(7, (1, 1, 1, 4), (1, 1, 5)) is None
    reason = admissibility_reason(8, (1, 1, 1, 5), (1, 1, 6))
    assert reason is not None and "gcd" in reason


def test_admissibility_reports_first_violation():
    assert "n = 4 < 5" in admissibility_reason(4, (1, 1, 1, 1), (1, 1, 2))
    assert "gcd(n, 6)" in admissibility_reason(9, (1, 1, 1, 6), (1, 1, 7))
    assert "not a unit" in admissibility_reason(25, (5, 5, 5, 10), (1, 1, 23))
    r = admissibility_reason(25, (1, 1, 1, 22), (5, 5, 15))
    assert "n_0" in r and "unit" in r


@pytest.mark.parametrize(
    "n, m, bw, reason",
    [
        # each datum breaks one clause only, so deleting that clause admits it
        (5, (1, 1, 1, 1, 1), (1, 1, 3), "need four branch exponents"),
        (5, (1, 1, 1, 2), (1, 1, 1, 2), "need three base weights"),
        (5, (-1, 2, 2, 2), (1, 1, 3), "m_0 = -1 outside [1, n-1]"),
        (5, (1, 1, 1, 2), (-1, 3, 3), "n_0 = -1 outside [1, n-1]"),
        (5, (1, 1, 1, 1), (1, 1, 3), "sum(m) = 4 != n"),
        (5, (1, 1, 1, 2), (1, 1, 1), "sum(base weights) = 3 != n"),
    ],
    ids=["len_m", "len_bw", "m_range", "n_range", "sum_m", "sum_bw"],
)
def test_admissibility_reason_names_each_raw_clause(n, m, bw, reason):
    # raw tuples, as exhaustive searches feed them: the typed FamilyData refuses each of these
    assert admissibility_reason(n, m, bw) == reason


def test_admissible_exists_matches_gcd_rule():
    assert admissible_exists(25)
    assert not admissible_exists(9)
    assert admissible_exists(35)


# n = 1 .. 4 included: 1 is coprime to 6, yet four positive parts need n >= 4, and at n = 4 the
# one composition (1, 1, 1, 1) has m_i + m_3 = 2, not a unit
@pytest.mark.parametrize("n", range(1, 26))
def test_admissible_exists_against_exhaustive_search(n):
    assert admissible_exists(n) == _search_admissible(n)


def test_standard_family_values():
    f5 = standard_family(5)
    assert f5.w.m == (1, 1, 1, 2) and f5.base_weights == (1, 1, 3)
    f7 = standard_family(7)
    assert f7.w.m == (1, 1, 1, 4) and f7.base_weights == (1, 1, 5)
    with pytest.raises(NotCoprimeTo6Error):
        standard_family(9)


@given(st.integers(min_value=5, max_value=500))
def test_standard_family_admissible(n):
    if gcd(n, 6) != 1:
        with pytest.raises(NotCoprimeTo6Error):
            standard_family(n)
        return
    f = standard_family(n)
    assert admissibility_reason(n, f.w.m, f.base_weights) is None


def test_branch_table_values():
    f5 = standard_family(5)
    table = dict(zip(BRANCH_LABELS, inertia(f5)))
    assert table["E2"] == (3, 3)
    assert table["Y_INF"] == (1, 0)
    assert table["X_INF"] == (3, 1)  # (n - m3, n0) = (5-2, 1)
    assert table["X_0"] == (0, 1)
    f7 = standard_family(7)
    t7 = dict(zip(BRANCH_LABELS, inertia(f7)))
    assert t7["X_INF"] == (3, 1)
    assert t7["DELTA"] == (4, 0)


@given(st.integers(min_value=5, max_value=200))
def test_delta_second_coordinate_zero(n):
    if gcd(n, 6) != 1:
        return
    table = dict(zip(BRANCH_LABELS, inertia(standard_family(n))))
    assert table["DELTA"][1] == 0
    assert table["DELTA"][0] == n - 3


def test_adjacency_is_the_fifteen_pairs():
    assert len(ADJACENT_PAIRS) == 15
    degree = {}
    for a, b in ADJACENT_PAIRS:
        degree[a] = degree.get(a, 0) + 1
        degree[b] = degree.get(b, 0) + 1
    for label in ("E0", "E1", "E2", "DELTA"):
        assert degree[label] == 3
    # the three separated triple points: their pairs are no longer adjacent
    gone = {
        frozenset(("Y_INF", "X_INF")),
        frozenset(("Y_0", "X_0")),
        frozenset(("Y_1", "X_1")),
    }
    assert all(frozenset(p) not in gone for p in ADJACENT_PAIRS)
    # the pairs name exactly the ten divisors of the branch table: each lies on some crossing
    assert set(degree) == set(dict(zip(BRANCH_LABELS, inertia(standard_family(5)))))


def test_adjacency_that_is_not_the_petersen_graph_is_refused(monkeypatch):
    surfaces._adjacency_sanity()
    (a, _), *rest = ADJACENT_PAIRS  # ("X_0", "Y_INF") becomes ("X_0", "Y_0")
    monkeypatch.setattr(surfaces, "ADJACENT_PAIRS", ((a, "Y_0"), *rest))
    with pytest.raises(InternalInconsistencyError, match="Petersen"):
        surfaces._adjacency_sanity()


def test_smoothness_standard_families():
    for n in (5, 7, 11, 13, 25):
        assert smoothness_check(standard_family(n)) is True, n


def test_smoothness_e0_xinf_pair_needs_m0_plus_m3():
    # det for {E0, X_INF} is n0*(m0+m3) mod n: fails exactly when m0+m3 is a non-unit
    f = family(25, (1, 7, 10, 7), (1, 1, 23))  # m0+m3 = 8, unit; but m2 = 10 non-unit
    table = dict(zip(BRANCH_LABELS, inertia(f)))
    (u1, v1) = table["E0"]
    (u2, v2) = table["X_INF"]
    det = (u1 * v2 - u2 * v1) % 25
    n0, m0, m3 = 1, 1, 7
    assert det == (n0 * (m0 + m3)) % 25


def test_smoothness_broken_family(monkeypatch):
    # non-unit first coordinate with zero second: order of (5,0) mod 25 is 5 < n
    f = family(25, (5, 1, 9, 10), (1, 1, 23))
    assert dict(zip(BRANCH_LABELS, inertia(f)))["Y_INF"] == (5, 0)
    assert smoothness_check(f) is False
    # a common factor of (u, v) divides each determinant with (u, v), and every divisor lies on a
    # crossing, so the crossings fail too: without crossings the order condition decides alone
    monkeypatch.setattr(surfaces, "CROSSINGS", ())
    assert smoothness_check(f) is False
    assert smoothness_check(standard_family(25)) is True


def test_smoothness_fails_at_crossings_alone():
    # every inertia element has order 25, but m0 + m3 = m1 + m3 = 5 is not a unit
    f = family(25, (1, 1, 19, 4), (1, 1, 23))
    table = dict(zip(BRANCH_LABELS, inertia(f)))
    assert all(gcd(gcd(u, v), 25) == 1 for u, v in table.values())
    # det(E0, X_INF) = n0*(m0 + m3) and det(E1, X_0) = n1*(m1 + m3)
    dets = {(a, b): table[a][0] * table[b][1] - table[b][0] * table[a][1] for a, b in ADJACENT_PAIRS}
    failing = [pair for pair, det in dets.items() if gcd(det, 25) != 1]
    assert failing == [("E0", "X_INF"), ("E1", "X_0")]
    assert smoothness_check(f) is False


def test_crossings_are_the_adjacent_pairs_by_index():
    assert [(surfaces.BRANCH_LABELS[a], surfaces.BRANCH_LABELS[b]) for a, b in surfaces.CROSSINGS] == list(ADJACENT_PAIRS)


def test_smoothness_matches_the_labelled_reference():
    # the tuple form against pairs by label and crossings by name: every admissible family at n <= 13 (all
    # smooth), then every (m, nw) the constructors accept at n = 7 and 25, non-unit entries included
    admissible = [f for n in range(5, 14) for f in iter_admissible_families(n)]
    assert len(admissible) == 20244
    assert all(smoothness_check(f) is smoothness_by_label(f) is True for f in admissible)
    verdicts = Counter()
    for n in (7, 25):
        bws = list(compositions(n, 3))
        for w in iter_weight_tuples(n):
            verdicts.update((smoothness_check(f), smoothness_by_label(f)) for f in (FamilyData(w, bw) for bw in bws))
    assert verdicts == {(True, True): 51300, (False, False): 506520}


def test_invariants_n5():
    inv = invariants(5)
    assert (inv.g, inv.b, inv.e, inv.K2) == (4, 2, 15, 45)
    assert inv.slope == Fraction(3) and inv.ball_quotient
    assert inv.deg_V == 2 and inv.mu == 3 and inv.chi == 5
    assert inv.irregularity == 2


def test_invariants_n7():
    inv = invariants(7)
    assert (inv.g, inv.b, inv.e, inv.K2, inv.chi, inv.deg_V, inv.mu) == (6, 3, 43, 125, 14, 4, 3)
    assert not inv.ball_quotient


def test_invariants_n11():
    assert invariants(11).deg_V == (121 - 1) // 12


def test_invariants_rejects_inadmissible():
    # the levels with no admissible datum: n < 5 or gcd(n, 6) != 1
    for n in (1, 4, 6, 9, 15, 24):
        with pytest.raises(NotCoprimeTo6Error):
            invariants(n)


def test_positive_index_and_the_ball_quotient_identity():
    # the abstract's "positive index", and why n = 5 alone gives ball quotients: over every admissible
    # n <= 1000, K^2 - 2e = n^2 - 10 = 3 tau with tau > 0, and 3e - K^2 = (n - 5)^2, zero exactly at n = 5
    levels = [n for n in range(1, 1001) if admissible_exists(n)]
    assert len(levels) == 332
    for n in levels:
        inv = invariants(n)
        assert inv.K2 - 2 * inv.e == n * n - 10, n
        assert (n * n - 10) % 3 == 0 and n * n - 10 > 0, n
        assert 3 * inv.e - inv.K2 == (n - 5) ** 2, n
        assert inv.ball_quotient == (n == 5), n


def test_ball_quotient_only_n5():
    for n in (5, 7, 11, 13, 17, 19, 23, 25):
        assert invariants(n).ball_quotient == (n == 5)


@given(st.integers(min_value=5, max_value=3000))
def test_structural_invariants(n):
    if gcd(n, 6) != 1:
        return
    inv = invariants(n)
    assert (inv.K2 + inv.e) % 12 == 0
    assert inv.e - 4 * (inv.g - 1) * (inv.b - 1) == 3
    assert inv.slope > Fraction(5, 2)
    assert inv.deg_V == (n * n - 1) // 12 and inv.deg_V > 0
    assert inv.g == 2 * inv.b
    assert inv.chi == 1 - inv.irregularity + inv.p_g


def test_slope_strictly_decreasing():
    slopes = [
        invariants(n).slope
        for n in range(5, 200)
        if gcd(n, 6) == 1
    ]
    assert all(a > b for a, b in zip(slopes, slopes[1:]))
    assert all(s > Fraction(5, 2) for s in slopes)


# ---------------------------------------------------------------------------
# normalization


def test_n5_has_24_raw_and_3_normalized_families():
    raw = list(iter_admissible_families(5))
    assert len(raw) == 24
    classes = {(canonical_family(f).w.m, canonical_family(f).base_weights) for f in raw}
    assert len(classes) == 3


def test_canonical_family_constant_on_orbit():
    f = standard_family(5)
    rep = canonical_family(f)
    for m, bw in family_orbit(f):
        assert canonical_family(family(5, m, bw)) == rep


def test_orbit_members_stay_admissible():
    f = standard_family(7)
    for m, bw in family_orbit(f):
        assert admissibility_reason(7, m, bw) is None


# normalized class counts per n: regression fixtures for the orbit walk
CLASS_COUNTS = {5: 3, 7: 16, 11: 100, 13: 189, 17: 497, 19: 734, 23: 1410, 25: 255, 29: 3055, 31: 3804, 35: 164, 37: 6761}


@pytest.mark.parametrize("n", sorted(CLASS_COUNTS))
def test_canonical_class_counts(n):
    assert sum(1 for _ in iter_canonical_families(n)) == CLASS_COUNTS[n]


@pytest.mark.parametrize("n", [5, 7, 11, 13])
def test_orbit_walk_matches_brute_force_canonical(n):
    walk = [(f.w.m, f.base_weights) for f in iter_canonical_families(n)]
    reps = {canonical_family(f) for f in iter_admissible_families(n)}
    assert walk == sorted((f.w.m, f.base_weights) for f in reps)


@pytest.mark.parametrize("n", [n for n in range(5, 32) if gcd(n, 6) == 1] + [35])
def test_orbit_marking_walk_matches_least_in_orbit_test(n):
    # the marking walk against the per-m least-in-orbit test it replaced, family for family
    walk = [(f.w.m, f.base_weights) for f in iter_canonical_families(n)]
    assert walk == [(f.w.m, f.base_weights) for f in least_in_orbit_families(n)]


@pytest.mark.parametrize("n", [17, 19])
def test_walk_yields_only_canonical_families(n):
    # the walk against the full-orbit minimum, past the brute-force range above
    for f in iter_canonical_families(n):
        assert canonical_family(f) == f


@pytest.mark.parametrize("n", [5, 7, 11, 13, 17])
def test_admissible_families_strictly_increasing(n):
    # iter_canonical_families keeps this order in what it yields
    keys = [(f.w.m, f.base_weights) for f in iter_admissible_families(n)]
    assert keys and all(a < b for a, b in zip(keys, keys[1:]))
