import dataclasses
import hashlib
import io
import json
import re
import sys
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fujitacert import cli, eigenspace, records, surfaces

from fujitacert.certify import CERTIFICATE_PROSE, Certificate, certify, shimura_count, splitting
from fujitacert.eigenspace import (
    DegenerateCharacterError,
    EigenspaceReport,
    SplitClass,
    WeightTuple,
    character_reports,
    eigenspace_report,
    eigenspace_table,
    iter_weight_tuples,
    sigma_sum,
)
from fujitacert.monodromy import Finiteness, find_infinite_character, finiteness_by_signature, is_irreducible
from fujitacert.residues import InternalInconsistencyError, NonUnitError, is_unit, units
from fujitacert.surfaces import (
    admissibility_reason,
    FamilyData,
    family,
    iter_admissible_families,
    iter_canonical_families,
    smoothness_check,
    standard_family,
)

# the module's dotted name: fujitacert.certify is the submodule, not the function
CERTIFY_MODULE = "fujitacert.certify"

W5 = WeightTuple(5, (1, 1, 1, 2))
W7 = WeightTuple(7, (1, 1, 1, 4))
W11 = WeightTuple(11, (1, 2, 3, 5))


def test_splitting_n5():
    s = splitting(W5)
    assert s.rank_V == 4
    assert s.rank_flat == 2
    assert s.rank_ample_candidate == 2
    assert s.deg_V == 2
    assert not s.has_degenerate
    flat_js = [e.j for e in character_reports(s.sigmas, 5) if e.split_class is SplitClass.FLAT]
    assert flat_js == [4]


def test_splitting_n7():
    s = splitting(W7)
    reports = list(character_reports(s.sigmas, 7))
    flat_js = [e.j for e in reports if e.split_class is SplitClass.FLAT]
    ample_js = [e.j for e in reports if e.split_class is SplitClass.AMPLE_CANDIDATE]
    assert flat_js == [5, 6] and s.rank_flat == 4
    assert ample_js == [3, 4]


def test_splitting_n11_flat_only_at_10():
    s = splitting(W11)
    flat_js = [e.j for e in character_reports(s.sigmas, 11) if e.split_class is SplitClass.FLAT]
    assert flat_js == [10]


def test_top_character_always_flat():
    for w in (W5, W7, W11, WeightTuple(25, (1, 1, 1, 22))):
        s = splitting(w)
        assert list(character_reports(s.sigmas, w.n))[w.n - 2].split_class is SplitClass.FLAT
        assert sigma_sum(w, w.n - 1) == 3 * w.n


def test_standard_case_zero_up_to_n_over_3():
    for n in (25, 49):
        w = WeightTuple(n, (1, 1, 1, n - 3))
        s = splitting(w)
        for e in character_reports(s.sigmas, n):
            assert (e.split_class is SplitClass.ZERO) == (3 * e.j <= n)
            assert (e.split_class is SplitClass.FLAT) == (3 * (n - e.j) <= n)


def test_irreducible_all_is_all_units():
    # certify records irreducible_all as whether every m_i is a unit, where it once tested every j
    for n in range(4, 41):
        for w in iter_weight_tuples(n):
            assert all(gcd(m, n) == 1 for m in w.m) == all(is_irreducible(w, j) for j in range(1, n)), w


def test_has_degenerate_is_not_all_units():
    # so a non-unit m_i shows as a degenerate character, and admissible (all-unit) data have none
    for n in range(4, 41):
        for w in iter_weight_tuples(n):
            assert splitting(w).has_degenerate is not all(is_unit(m, n) for m in w.m), w


LEVELS = [n for n in range(5, 601) if gcd(n, 6) == 1]  # prime and composite, with repeated primes


def _random_parts(n, k, rng):
    cuts = sorted(rng.sample(range(1, n), k - 1))
    return tuple(b - a for a, b in zip((0, *cuts), (*cuts, n)))


@st.composite
def admissible_families(draw):
    # random compositions of n, redrawn until admissible: about one m in 60 is at n = 385 = 5*7*11
    n, rng = draw(st.sampled_from(LEVELS)), draw(st.randoms(use_true_random=False))
    while admissibility_reason(n, m := _random_parts(n, 4, rng), (1, 1, n - 2)) is not None:
        pass
    while admissibility_reason(n, m, bw := _random_parts(n, 3, rng)) is not None:
        pass
    return family(n, m, bw)


@settings(max_examples=300, deadline=None)
@given(admissible_families())
@example(family(25, (6, 7, 11, 1), (1, 23, 1)))
@example(family(35, (3, 8, 23, 1), (1, 18, 16)))
@example(family(385, (1, 1, 1, 382), (1, 1, 383)))
def test_admissibility_implies_what_certify_checks(f):
    # the implications certify's self-checks rest on, over random admissible data
    n, w, split = f.n, f.w, splitting(f.w)
    assert smoothness_check(f)
    assert w.all_units() and not split.has_degenerate
    assert w.sigmas[n - 2] == 3 * n and split.rank_flat >= 2
    assert sigma_sum(w, find_infinite_character(w)) == 2 * n


def _splitting_reference(w):
    # the per-character loop splitting ran before sigma_table, one eigenspace_report per j
    entries, rank_v, flat, ample, degenerate = [], 0, 0, 0, False
    for j in range(1, w.n):
        report = eigenspace_report(w, j)
        entries.append(report)
        if report.degenerate:
            degenerate = True
            continue
        rank_v += report.dim_h10
        flat += report.split_class is SplitClass.FLAT
        ample += report.split_class is SplitClass.AMPLE_CANDIDATE
    n = w.n
    deg_v = (n * n - 1) // 12 if (n * n - 1) % 12 == 0 else None
    return tuple(entries), (rank_v, 2 * flat, ample, deg_v, degenerate)


def _shimura_reference(w):
    count = 0
    for j in range(1, w.n // 2 + 1):
        try:
            count += sigma_sum(w, j) == 2 * w.n
        except DegenerateCharacterError:
            continue
    return count, count == 1


def test_splitting_matches_per_character_reference():
    weights = [w for n in range(4, 14) for w in iter_weight_tuples(n)]
    weights += [WeightTuple(1009, (1, 1, 1, 1006)), WeightTuple(1009, (2, 3, 5, 999))]
    degenerate = 0
    for w in weights:
        split = splitting(w)
        entries, totals = _splitting_reference(w)
        reports = tuple(character_reports(split.sigmas, w.n))
        assert reports == entries, w
        assert (split.rank_V, split.rank_flat, split.rank_ample_candidate, split.deg_V, split.has_degenerate) == totals, w
        assert all(type(e) is EigenspaceReport for e in reports)
        assert type(split.sigmas) is tuple and all(type(s) is int for s in split.sigmas)
        degenerate += split.has_degenerate
    assert degenerate > 0


def test_shimura_count_matches_per_character_reference():
    # every tuple up to n = 20, and four fixed shapes (with non-unit and degenerate cases) up to n = 60
    weights = [w for n in range(4, 21) for w in iter_weight_tuples(n)]
    for n in range(21, 61):
        for m in ((1, 1, 1, n - 3), (1, 2, 3, n - 6), (2, 3, 5, n - 10), (2, 4, 6, n - 12)):
            if gcd(*m, n) == 1:
                weights.append(WeightTuple(n, m))
    for w in weights:
        assert shimura_count(w) == _shimura_reference(w), w


def _flat_census(w):
    # each FLAT character of the splitting with its criterion finiteness verdict
    flat = (e.j for e in eigenspace_table(w) if e.split_class is SplitClass.FLAT)
    return [(j, finiteness_by_signature(w, j)) for j in flat]


def test_flat_summand_census():
    census = _flat_census(W5)
    assert [(j, v.kind) for j, v in census] == [(4, Finiteness.INFINITE)]
    census11 = _flat_census(W11)
    assert [(j, v.kind) for j, v in census11] == [(10, Finiteness.INFINITE)]
    census25 = _flat_census(WeightTuple(25, (1, 1, 1, 22)))
    flat_js = [j for j, _ in census25]
    assert flat_js == [25 - j for j in range(8, 0, -1)]  # all n-j with 3j <= n
    assert all(v.kind is Finiteness.INFINITE for _, v in census25)


def test_certify_standard_families():
    cert = certify(standard_family(5))
    assert cert.is_counterexample
    assert cert.infinite_witness.j_star == 3
    assert cert.infinite_witness.sigma == 10
    assert (cert.infinite_witness.unit * 4) % 5 == 3  # transports the flat character
    assert certify(standard_family(7)).is_counterexample


def test_certify_not_coprime():
    cert = certify(family(9, (1, 1, 1, 6), (1, 1, 7)))
    assert cert.verdict == "NOT_CERTIFIED"
    assert "admissibility" in cert.not_certified_reason
    assert cert.invariants is None


def test_certify_with_oracle_agrees():
    cert = certify(standard_family(5), with_oracle=True)
    assert cert.oracle_agreement is True
    assert cert.oracle_verdicts == (Finiteness.INFINITE, Finiteness.INFINITE)


def test_certificate_prose_states_desk_scale_limits():
    cert = certify(standard_family(5))
    assert cert.prose == CERTIFICATE_PROSE
    assert "not reproducible at desk scale" in cert.prose
    assert "not semiample" in cert.prose.replace("is not semiample", "not semiample")


def test_every_admissible_family_certifies_small_n():
    from fujitacert.surfaces import iter_admissible_families

    for n in (5, 7, 11):
        for fam in iter_admissible_families(n):
            cert = certify(fam)
            assert cert.is_counterexample, (fam, cert.not_certified_reason)
            assert cert.splitting.rank_flat >= 2
            assert cert.invariants.deg_V >= 2


def test_every_admissible_family_certifies_larger_n_factored():
    # the certificate depends on the base weights only through admissibility
    # and smoothness, so m-side and nw-side coverage factor for larger n
    import itertools
    from math import gcd

    from fujitacert.surfaces import admissibility_reason

    for n in (13, 17, 19, 23, 25):
        std_nw = (1, 1, n - 2)
        for m in itertools.product(range(1, n - 2), repeat=3):
            m3 = n - sum(m)
            if not 1 <= m3 <= n - 3:
                continue
            full_m = m + (m3,)
            if admissibility_reason(n, full_m, std_nw) is not None:
                continue
            cert = certify(family(n, full_m, std_nw))
            assert cert.is_counterexample, (n, full_m, cert.not_certified_reason)
        std_m = (1, 1, 1, n - 3)
        for nw in itertools.product(range(1, n), repeat=2):
            n2 = n - sum(nw)
            if not 1 <= n2 <= n - 1:
                continue
            full_nw = nw + (n2,)
            if admissibility_reason(n, std_m, full_nw) is not None:
                continue
            cert = certify(family(n, std_m, full_nw))
            assert cert.is_counterexample, (n, full_nw, cert.not_certified_reason)


def test_shimura_counts():
    assert shimura_count(W5) == (1, True)
    assert shimura_count(W7) == (1, True)
    count11, candidate11 = shimura_count(W11)
    assert count11 == 4 and not candidate11  # regression fixture from the sweep
    count13, _ = shimura_count(WeightTuple(13, (1, 1, 1, 10)))
    assert count13 == 2


def test_shimura_count_invariant_under_unit_rescaling():
    for w in (W5, W7, W11):
        n = w.n
        base = shimura_count(w)[0]
        for h in units(n):
            scaled = tuple((h * m) % n for m in w.m)
            if sum(scaled) != n:
                continue
            assert shimura_count(WeightTuple(n, scaled))[0] == base


def _enumerate_run(monkeypatch, *flags, alter=lambda i, cert: cert):
    # the certificates `enumerate` writes records of, as the command's certify returned them, and its lines;
    # alter(i, cert) stands in for the i-th certificate
    certs = []
    monkeypatch.setattr(cli, "certify", lambda f: certs.append(alter(len(certs), certify(f))) or certs[-1])
    out = io.StringIO()
    assert cli.main(["enumerate", *flags], out=out) == 0
    lines = out.getvalue().splitlines(keepends=True)
    assert out.getvalue().count("\n") == len(certs) == len(lines)
    return certs, lines


def _enumerated(monkeypatch, *flags):
    return _enumerate_run(monkeypatch, *flags)[0]


def _direct_line(inputs, cert):
    # the record of one certificate, encoded whole
    checks = [records.check("certified", cert.is_counterexample, cert.not_certified_reason or "")]
    return records.dumps_record(records.output_record("enumerate", inputs, records.certificate_dict(cert), checks))


def test_enumerate_standard_range(monkeypatch):
    certs = _enumerated(monkeypatch, "--n-min", "5", "--n-max", "13")
    assert [c.family.n for c in certs] == [5, 7, 11, 13]
    assert all(c.is_counterexample for c in certs)
    assert [c.family.w.m for c in certs] == [
        (1, 1, 1, 2),
        (1, 1, 1, 4),
        (1, 1, 1, 8),
        (1, 1, 1, 10),
    ]


def test_enumerate_empty_when_not_coprime(monkeypatch):
    assert list(iter_admissible_families(9)) == list(iter_canonical_families(9)) == []
    assert _enumerated(monkeypatch, "--n-min", "9", "--n-max", "9", "--all") == []
    assert _enumerated(monkeypatch, "--n-min", "6", "--n-max", "6") == []


def test_enumerate_all_normalized_n5(monkeypatch):
    certs = _enumerated(monkeypatch, "--n-min", "5", "--n-max", "5", "--all", "--normalize")
    keys = [(c.family.w.m, c.family.base_weights) for c in certs]
    assert keys == [
        ((1, 1, 1, 2), (1, 1, 3)),
        ((1, 1, 2, 1), (1, 1, 3)),
        ((1, 1, 2, 1), (1, 2, 2)),
    ]
    assert keys == [(f.w.m, f.base_weights) for f in iter_canonical_families(5)]
    assert all(c.is_counterexample for c in certs)
    # the abstract's three ball quotients: base genus 2, fibres of genus 4
    assert all(c.invariants.ball_quotient and (c.invariants.g, c.invariants.b) == (4, 2) for c in certs)


def test_enumerate_all_unnormalized_n5(monkeypatch):
    certs = _enumerated(monkeypatch, "--n-min", "5", "--n-max", "5", "--all")
    assert len(certs) == 24
    assert [c.family for c in certs] == list(iter_admissible_families(5))


@pytest.mark.parametrize("n, classes", [(25, 255), (35, 164)])
def test_enumerate_all_normalized_certifies_every_class(n, classes):
    # composite levels, 5^2 and 5*7; the class counts are test_canonical_class_counts' fixtures
    out = io.StringIO()
    assert cli.main(["enumerate", "--n-min", str(n), "--n-max", str(n), "--all", "--normalize"], out=out) == 0
    verdicts = [json.loads(line)["result"]["verdict"] for line in out.getvalue().splitlines()]
    assert verdicts == ["COUNTEREXAMPLE"] * classes


@pytest.mark.parametrize("normalize", [True, False])
def test_enumerate_shares_one_weight_tuple_and_one_sigma_pass_per_m(monkeypatch, normalize):
    passes = []
    table = eigenspace.sigma_table
    monkeypatch.setattr(eigenspace, "sigma_table", lambda w: passes.append(w.m) or table(w))
    certs = _enumerated(monkeypatch, "--n-min", "13", "--n-max", "13", "--all", *(["--normalize"] if normalize else []))
    shared = {}
    assert all(shared.setdefault(c.family.w.m, c.family.w) is c.family.w for c in certs)
    assert passes == list(shared)  # one pass per distinct m, in walk order
    assert all(c.invariants is certs[0].invariants for c in certs)  # one value per level
    if normalize:
        assert (len(certs), len(passes)) == (189, 22)


@pytest.mark.parametrize("n, lines, ms, keys", [(13, 189, 22, 22), (11, 100, 15, 14)])
def test_enumerate_encodes_one_record_text_per_certificate_key(monkeypatch, n, lines, ms, keys):
    # the families of one m share every certificate field but their family, so one encoding serves them all;
    # at n = 11 the m (1, 3, 5, 2) and (2, 3, 5, 1) follow each other with one sigma table and one witness
    encoded = []
    encode = records.certificate_dict
    monkeypatch.setattr(records, "certificate_dict", lambda c: encoded.append(c) or encode(c))
    certs = _enumerated(monkeypatch, "--n-min", str(n), "--n-max", str(n), "--all", "--normalize")
    assert (len(certs), len({c.family.w.m for c in certs}), len(encoded)) == (lines, ms, keys)
    key = lambda c: dataclasses.replace(c, family=None)
    assert encoded == [c for i, c in enumerate(certs) if i == 0 or key(c) != key(certs[i - 1])]


def test_enumerate_lines_equal_the_direct_encoding(monkeypatch):
    # 364 m with up to 66 families each: every line is the shared text around its own family
    certs, lines = _enumerate_run(monkeypatch, "--n-min", "5", "--n-max", "13", "--all")
    inputs = {"n_min": 5, "n_max": 13, "mode": "all", "normalize": False}
    assert len(lines) == 20244 and len({c.family.w.m for c in certs}) == 364
    assert all(line == _direct_line(inputs, cert) for line, cert in zip(lines, certs))


def _spy(calls, fn):
    return lambda *args: calls.append(args) or fn(*args)


@pytest.mark.parametrize("n, families, ms", [(13, 189, 22), (11, 100, 15)])
def test_enumerate_makes_the_weight_claims_once_per_weight_tuple(monkeypatch, n, families, ms):
    # the splitting and the witness depend on m alone: one call each per WeightTuple, whose families share the
    # objects; the gate and smoothness stay per family
    module = sys.modules[CERTIFY_MODULE]
    names = ("splitting", "find_infinite_character", "smoothness_check", "admissibility_reason")
    calls = {name: [] for name in names}
    for name in names:
        monkeypatch.setattr(module, name, _spy(calls[name], getattr(module, name)))
    certs = _enumerated(monkeypatch, "--n-min", str(n), "--n-max", str(n), "--all", "--normalize")
    assert [len(calls[name]) for name in names] == [ms, ms, families, families]
    assert [w for w, in calls["splitting"]] == list({id(c.family.w): c.family.w for c in certs}.values())
    for a, b in zip(certs, certs[1:]):
        same = a.family.w is b.family.w
        assert (a.splitting is b.splitting, a.infinite_witness is b.infinite_witness) == (same, same)


def test_weight_claims_are_stored_per_instance_not_per_value(monkeypatch):
    module = sys.modules[CERTIFY_MODULE]
    splits, witnesses = [], []
    monkeypatch.setattr(module, "splitting", _spy(splits, splitting))
    monkeypatch.setattr(module, "find_infinite_character", _spy(witnesses, find_infinite_character))
    first = certify(standard_family(7))
    sibling = certify(FamilyData(first.family.w, (1, 2, 4)))
    twin = certify(standard_family(7))  # an equal WeightTuple, built apart
    assert first.family.w == twin.family.w and first.family.w is not twin.family.w
    assert len(splits) == len(witnesses) == 2
    assert sibling.splitting is first.splitting and sibling.infinite_witness is first.infinite_witness
    assert twin.splitting == first.splitting and twin.splitting is not first.splitting
    assert twin.infinite_witness == first.infinite_witness and twin.infinite_witness is not first.infinite_witness


def test_family_text_is_the_json_encoding_of_every_walked_family():
    walked = [f for n in range(5, 14) for f in iter_admissible_families(n)]
    normalized = [f for n in range(23, 32) for f in iter_canonical_families(n)]
    assert (len(walked), len(normalized)) == (20244, 8524)
    for f in walked + normalized:
        assert records.family_text(f) == json.dumps({"n": f.n, "m": list(f.w.m), "base_weights": list(f.base_weights)})


# per non-family Certificate field, a value that the walks' certificates never hold
STALE_TEXT_CASES = {
    "admissibility_reason": lambda c: "injected reason",
    "smooth": lambda c: False,
    "invariants": lambda c: dataclasses.replace(c.invariants, g=c.invariants.g + 1),
    "splitting": lambda c: dataclasses.replace(c.splitting, rank_V=c.splitting.rank_V + 1),
    "irreducible_all": lambda c: False,
    "infinite_witness": lambda c: dataclasses.replace(c.infinite_witness, unit=c.infinite_witness.unit + 1),
    "oracle_verdicts": lambda c: (Finiteness.INFINITE, Finiteness.INFINITE),
}


@pytest.mark.parametrize("field", STALE_TEXT_CASES)
def test_enumerate_shares_no_text_between_certificates_that_differ(monkeypatch, field):
    # every other family of each m gets a certificate that differs in this one field: its record must not be
    # the text of its neighbour's
    assert set(STALE_TEXT_CASES) == {f.name for f in dataclasses.fields(Certificate)} - {"family"}
    value = STALE_TEXT_CASES[field]
    alter = lambda i, cert: dataclasses.replace(cert, **{field: value(cert)}) if i % 2 else cert
    certs, lines = _enumerate_run(monkeypatch, "--n-min", "7", "--n-max", "7", "--all", alter=alter)
    inputs = {"n_min": 7, "n_max": 7, "mode": "all", "normalize": False}
    assert len(lines) == 300 and len({c.family.w.m for c in certs}) == 20
    assert [_direct_line(inputs, cert) for cert in certs] == lines


def test_enumerate_rejects_bad_range(monkeypatch):
    # n_min > n_max and n_min below 5 are refused before any family is certified
    certs = []
    monkeypatch.setattr(cli, "certify", lambda f: certs.append(f))
    for lo, hi in ((13, 5), (4, 10)):
        out, err = io.StringIO(), io.StringIO()
        assert cli.main(["enumerate", "--n-min", str(lo), "--n-max", str(hi)], out=out, err=err) == 1
        assert out.getvalue() == "" and err.getvalue() == "error: need 5 <= --n-min <= --n-max\n"
    assert certs == []


def test_enumerate_checks_admissibility_once_per_record(monkeypatch):
    # certify's gate is the one check: the invariants it records after the gate do not check again
    calls = []
    reason = surfaces.admissibility_reason

    def spy(*args):
        calls.append(args)
        return reason(*args)

    monkeypatch.setattr(surfaces, "admissibility_reason", spy)
    monkeypatch.setattr(sys.modules[CERTIFY_MODULE], "admissibility_reason", spy)
    out = io.StringIO()
    assert cli.main(["enumerate", "--n-min", "13", "--n-max", "13", "--all", "--normalize"], out=out) == 0
    assert out.getvalue().count("\n") == len(calls) == 189


# ---------------------------------------------------------------------------
# the one gate and its checked consequences: every certificate record, pinned


# (family, certify keywords, reason, record keys that are None, sha256 of the JSON certificate record)
GATE_CASES = {
    "inadmissible_gcd": (
        family(9, (1, 1, 1, 6), (1, 1, 7)), {},
        "admissibility: gcd(n, 6) = 3 != 1",
        ["smooth", "invariants", "splitting", "irreducible_all", "infinite_witness", "oracle"],
        "ef07cb72e0d389a239032c5e175d0bb7567b5675c3c992372224568668d6628e",
    ),
    "inadmissible_pair_sum": (
        family(25, (1, 2, 19, 3), (1, 1, 23)), {},
        "admissibility: m_1 + m_3 = 5 is not a unit mod 25",
        ["smooth", "invariants", "splitting", "irreducible_all", "infinite_witness", "oracle"],
        "15fb8cfb637acb32c642ec6894c75ada23f9b07a4f2c51254117e04fbec423d9",
    ),
    "counterexample": (
        standard_family(7), {},
        None,
        ["admissibility_reason", "oracle", "not_certified_reason"],
        "de4fd9dc80dde1059d9b9568ad2fcafcc9d2da2fe1c2199b11f9f9af81ed93ff",
    ),
    "oracle_agrees": (
        standard_family(7), {"with_oracle": True},
        None,
        ["admissibility_reason", "not_certified_reason"],
        "53c59af5942c87f2907b83696bb95e8c45df85e2cd7312570372ea619bcb6a7a",
    ),
    "oracle_inconclusive": (
        standard_family(5), {"with_oracle": True, "cap": 1, "max_word_len": 1},
        None,
        ["admissibility_reason", "not_certified_reason"],
        "503d9e73c48fdb25ba186f6d208f27da4d9c4fdb43ce65ae2bac5041bf031b54",
    ),
}


@pytest.mark.parametrize("case", list(GATE_CASES))
def test_certify_gate_records_pinned(case):
    fam, kwargs, reason, none_keys, digest = GATE_CASES[case]
    cert = certify(fam, **kwargs)
    record = records.certificate_dict(cert)
    assert cert.is_counterexample is (reason is None)
    assert record["verdict"] == ("COUNTEREXAMPLE" if reason is None else "NOT_CERTIFIED")
    assert record["not_certified_reason"] == reason
    assert record["admissible"] is not case.startswith("inadmissible")
    assert [key for key, value in record.items() if value is None] == none_keys
    text = json.dumps(json.loads(records.dumps_record(record)))  # the splitting's rows are pre-encoded text
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def _splitting_with(**changes):
    return lambda w: dataclasses.replace(splitting(w), **changes)


def _no_unit_witness(w):
    raise NonUnitError(f"m0+m3 is not a unit mod {w.n}")


# consequences of admissibility that only an injected bug breaks: (patched names of fujitacert.certify,
# the error certify raises, its message)
BROKEN_CONSEQUENCES = {
    "not_smooth": ({"smoothness_check": lambda f: False}, InternalInconsistencyError, "smooth=False"),
    "degenerate": (
        {"splitting": _splitting_with(has_degenerate=True)}, InternalInconsistencyError, "has_degenerate=True"
    ),
    "reducible": (
        {"WeightTuple.all_units": lambda w: 4 not in w.m}, InternalInconsistencyError, "irreducible_all=False"
    ),
    "no_flat_summand": ({"splitting": _splitting_with(rank_flat=0)}, InternalInconsistencyError, "rank_flat=0"),
    "no_witness": ({"find_infinite_character": _no_unit_witness}, NonUnitError, "m0\\+m3 is not a unit mod 7"),
}


@pytest.mark.parametrize("case", list(BROKEN_CONSEQUENCES))
def test_certify_broken_consequence_exits2(monkeypatch, case):
    patches, error, message = BROKEN_CONSEQUENCES[case]
    for name, replacement in patches.items():
        monkeypatch.setattr(f"{CERTIFY_MODULE}.{name}", replacement)  # a name of the module, or Class.attribute
    with pytest.raises(error, match=message):
        certify(standard_family(7))
    out, err = io.StringIO(), io.StringIO()
    assert cli.main(["certify", "-n", "7", "-m", "1,1,1,4", "--nw", "1,1,5"], out=out, err=err) == 2
    assert out.getvalue() == ""
    assert err.getvalue().startswith("error: internal: ")


@pytest.mark.parametrize("case", list(BROKEN_CONSEQUENCES))
def test_enumerate_broken_consequence_exits2(monkeypatch, case):
    # a check made once per WeightTuple still stops enumerate before its first line
    patches, _, message = BROKEN_CONSEQUENCES[case]
    for name, replacement in patches.items():
        monkeypatch.setattr(f"{CERTIFY_MODULE}.{name}", replacement)
    out, err = io.StringIO(), io.StringIO()
    assert cli.main(["enumerate", "--n-min", "7", "--n-max", "7", "--all", "--normalize"], out=out, err=err) == 2
    assert out.getvalue() == ""
    assert err.getvalue().startswith("error: internal: ") and re.search(message, err.getvalue())


def test_certify_oracle_inconclusive_has_no_agreement():
    cert = certify(standard_family(5), with_oracle=True, cap=1, max_word_len=1)
    assert cert.oracle_verdicts == (Finiteness.INFINITE, Finiteness.INCONCLUSIVE)
    assert cert.oracle_agreement is None
    assert cert.is_counterexample
