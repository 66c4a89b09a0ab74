"""Self-tests of the benchmark: seeded inputs, stratification, tracing, gate.

usage: python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import calibrate  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from fujitacert import monodromy  # noqa: E402

NAMES = list(workloads.WORKLOADS)


def reduced(name: str, seed: int) -> list[workloads.Item]:
    """A few cheap items of the workload's pass, for smoke runs."""
    items = workloads.WORKLOADS[name].items(seed)
    if name == "enumerate_normalize":
        return [item for item in items[:4] if item.stratum in ("n5", "n7")]
    return items[: {"oracle_sweep": 40, "certify_stream": 6}[name]]


@pytest.mark.parametrize("name", NAMES)
def test_same_seed_gives_identical_items(name):
    make = workloads.WORKLOADS[name].items
    assert make(7) == make(7)


@pytest.mark.parametrize("name", ["oracle_sweep", "certify_stream"])
def test_seed_chooses_the_items(name):
    make = workloads.WORKLOADS[name].items
    assert make(1) != make(2)


@pytest.mark.parametrize("name", NAMES)
def test_seeds_share_per_stratum_counts(name):
    make = workloads.WORKLOADS[name].items
    counts = [Counter(item.stratum for item in make(seed)) for seed in (1, 2, 3, 1000)]
    assert all(c == counts[0] for c in counts)
    assert len(make(1)) == sum(counts[0].values()) > 10  # a tail needs more than 10 items
    assert set(counts[0]) == {item.stratum for item in make(1)}


def synthetic_passes(name: str, seed: int, count: int) -> list[run.Run]:
    """count passes whose item times rank the strata: a time names its stratum."""
    items = workloads.WORKLOADS[name].items(seed)
    rank = {label: i + 1 for i, label in enumerate(sorted({item.stratum for item in items}))}
    times = [float(rank[item.stratum]) for item in items]
    return [run.Run(raw=list(times), times=list(times)) for _ in range(count)]


@pytest.mark.parametrize("name", NAMES)
def test_tail_stratum_does_not_depend_on_passes_or_seed(name):
    # the tail is taken per pass, so more passes (a faster host or program)
    # or another seed leave it on the same stratum
    first = run.timings(synthetic_passes(name, 1, 1), "times")
    for seed, count in ((1, 2), (1, 5), (2, 1), (3, 4)):
        assert run.timings(synthetic_passes(name, seed, count), "times") == first


def test_oracle_tail_is_an_order_600_closure():
    items = workloads.WORKLOADS["oracle_sweep"].items(1)
    beyond = sum(item.stratum == "n10/FINITE/600" for item in items) - 10
    assert beyond >= 3  # the 11th-largest item is well inside the slowest stratum


def test_enumerate_median_and_tail_are_n11_commands():
    items = workloads.WORKLOADS["enumerate_normalize"].items(1)
    times = [float(item.inputs[2]) for item in items]  # a time names its n
    values = run.timings([run.Run(raw=times, times=times)], "times")
    assert values["item_ms_p50"] == values["item_ms_tail"] == 11e3


def test_run_passes_repeats_the_pass_while_time_allows():
    fast = workloads.Workload("fast", None, lambda item: workloads.Outcome(True, 0.0, 0), 0, list)
    items = [workloads.Item("s", (), ())] * 20
    assert len(run.run_passes(fast, items, 0.0)) == 1
    passes = run.run_passes(fast, items, 0.5)
    assert len(passes) > 1 and all(p.strata == {"s": 20} for p in passes)


def test_oracle_population_matches_the_sweep():
    members = workloads._oracle_members()
    kinds = Counter(item.expected[0] for items in members.values() for item in items)
    assert kinds == {"FINITE": 354, "INFINITE": 3317}
    assert len(members["n10/FINITE/600"]) == 32


def traced_counts(name: str, seed: int) -> tuple:
    workload = workloads.WORKLOADS[name]
    tr = tracer.Tracer()
    with tr.patched():
        result = run.run_items(workload, reduced(name, seed), tracer=tr)
    assert result.failed == 0
    calls = {name: tr.call_count(name) for name in tr.names}
    counts = {k: v for k, v in tr.per_layer(result.records).items() if not k.endswith("self_s")}
    return calls, counts


@pytest.mark.parametrize("name", NAMES)
def test_same_seed_gives_identical_call_counts(name):
    first = traced_counts(name, 3)
    assert first == traced_counts(name, 3)
    assert sum(first[0].values()) > 0


def test_tracing_reaches_intra_package_calls_and_unpatches():
    original = monodromy.mat_mul
    calls, counts = traced_counts("certify_stream", 5)
    assert calls["monodromy.mat_mul"] > 0  # only reached through certify -> group_closure
    assert calls["cyclotomic.mul"] > 0
    assert counts["certify.certify.calls"] == 6
    assert monodromy.mat_mul is original
    assert not hasattr(monodromy.CyclotomicNumber.__mul__, "__wrapped__")


def test_self_time_excludes_children():
    tr = tracer.Tracer()
    inner = tr.wrap("inner", lambda: sum(range(200000)))
    outer = tr.wrap("outer", lambda: inner() + inner())
    outer()
    total = tr.span_end[0] - tr.span_start[0]
    assert tr.span_parent[1] == 0 and tr.span_parent[2] == 0
    assert tr.self_s[0] == pytest.approx(total - sum(tr.self_s[1:]), abs=1e-6)


@pytest.mark.parametrize("name", NAMES)
def test_reduced_smoke_run_has_no_failures(name):
    items = reduced(name, 11)
    result = run.run_items(workloads.WORKLOADS[name], items)
    assert len(result.times) == len(items) > 0
    assert result.failed / len(result.times) == 0


def test_item_times_are_scaled_by_the_calibration_kernel(monkeypatch):
    # no sample falls inside so short a run, so its one stretch is scaled by a direct kernel timing
    monkeypatch.setattr(run, "SAMPLE_EVERY_S", 60.0)
    monkeypatch.setattr(run, "kernel_seconds", lambda: 2 * calibrate.KERNEL_REF_S)
    result = run.run_items(workloads.WORKLOADS["certify_stream"], reduced("certify_stream", 1))
    assert result.times == pytest.approx([t / 2 for t in result.raw])


def test_sampler_follows_the_host_inside_long_items():
    with run.Sampler() as sampler:
        t0 = run.perf_counter()
        while run.perf_counter() - t0 < 0.4:
            pass
    assert len(sampler.samples) >= 4
    assert 0 < sampler.busy_s < 0.1
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def wrong(item: workloads.Item, index: int, value) -> workloads.Item:
    expected = list(item.expected)
    expected[index] = value
    return workloads.Item(item.stratum, item.inputs, tuple(expected))


def test_gate_fails_items_with_changed_outputs():
    oracle = reduced("oracle_sweep", 1)[0]
    certify = reduced("certify_stream", 1)[0]
    enum = reduced("enumerate_normalize", 1)[0]
    cases = [
        ("oracle_sweep", wrong(oracle, 1, (oracle.expected[1] or 0) + 1)),
        ("oracle_sweep", wrong(oracle, 2, (9, 9))),
        ("certify_stream", wrong(certify, 1, "0" * 64)),
        ("enumerate_normalize", wrong(enum, 0, enum.expected[0] + 1)),
        ("enumerate_normalize", wrong(enum, 1, "0" * 64)),
    ]
    for name, item in cases:
        assert run.run_items(workloads.WORKLOADS[name], [item]).failed == 1, (name, item)


def test_record_digest_ignores_schema_version():
    line = {"schema_version": "1.0", "command": "c", "inputs": {}, "result": {"family": {"n": 5, "m": [1, 1, 1, 2], "base_weights": [1, 1, 3]}}, "checks": []}
    sinks = []
    for version, inputs in (("1.0", {}), ("2.0", {"x": 1})):
        sink = workloads.RecordSink()
        sink.write(json.dumps(dict(line, schema_version=version, inputs=inputs)) + "\n")
        sinks.append(sink.summary())
    assert sinks[0] == sinks[1]


def test_tail_has_ten_items_beyond_it():
    times = [float(t) for t in range(1, 31)]
    value, percentile, samples = run.tail(times)
    assert sum(t > value for t in times) == 10
    assert (percentile, samples) == (pytest.approx(100 * 20 / 30), 30)


def test_metric_tables_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracer.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == NAMES


def test_run_script_prints_the_result_line():
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "certify_stream", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 10
    assert set(result["metrics"]) == set(run.END_TO_END)


def test_run_script_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "certify_stream", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode != 0
    assert done.stdout == ""
