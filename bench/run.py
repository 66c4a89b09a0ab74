"""Run one fujitacert benchmark workload and print its metrics.

usage: python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see workloads.py): oracle_sweep, enumerate_normalize,
certify_stream.  One process drives the library in-process, one item at a
time (a closed loop with a single caller).  Set-up (importing fujitacert
and warming the workload's per-level caches) is timed in fresh processes
and kept out of the timed loop.

Each workload turns the seed into a pass, a fixed list of items sized to
take about 23 s (scaled) on the host the benchmark was defined on.  --trace 0 runs
the pass, and runs it again while another pass would still end within
--seconds, and reports the end-to-end metrics: items_per_s over all
passes, and the median over passes of each pass's item_ms_p50 and
item_ms_tail, so the items behind each figure do not depend on speed.
--trace 1 runs the leading items of the pass once traced and once
untraced and reports the per-layer metrics (tracer.py), writing the spans
to bench/out/.  Timings are scaled to a reference host speed
(calibrate.py).  The second-to-last stdout line is a JSON report with run
metadata, fail_frac, the tail percentile and the unscaled timings; the
last line is the result: {"correct", "attempted", "failed", "metrics"}.
Exit status 0 means the run completed (correct may still be false);
anything else means no result.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from calibrate import KERNEL_ROUNDS, kernel, kernel_seconds, scale

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_REPEATS = 21
MAX_TRACEBACKS = 3
# Each item's time is scaled to a reference host (calibrate.py) by the
# kernel samples taken during it and the SAMPLE_MARGIN samples on each side.
SAMPLE_EVERY_S = 0.05
SAMPLE_ROUNDS = 750  # a quarter of the kernel, about 0.3 ms
SAMPLE_MARGIN = 2
SAMPLE_CAP = 1.5  # times the median sample of the pass

END_TO_END = {
    "items_per_s": "1/s",
    "item_ms_p50": "ms",
    "item_ms_tail": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


@dataclass
class Run:
    """One pass over a list of items."""

    raw: list[float] = field(default_factory=list)  # per item, seconds, gate excluded
    times: list[float] = field(default_factory=list)  # raw, scaled to the reference host
    kernel_s: list[float] = field(default_factory=list)
    strata: Counter = field(default_factory=Counter)
    failed: int = 0
    records: int = 0


class Sampler:
    """Times part of the calibration kernel every SAMPLE_EVERY_S of wall time.

    The samples come from a SIGALRM handler, which runs between two
    bytecodes of whatever the process is doing, so they follow the host's
    speed inside long items too (the ends of an item alone did not: the
    speed changes in phases of a few seconds).  busy_s is the time the
    samples took, which item times leave out.
    """

    def __init__(self):
        self.samples: list[float] = []  # in full-kernel seconds
        self.busy_s = 0.0

    def _sample(self, signum, frame) -> None:
        # the kernel allocates, so it could set off a collection of the
        # library's garbage and time that instead of the host
        collecting = gc.isenabled()
        gc.disable()
        t0 = perf_counter()
        kernel(SAMPLE_ROUNDS)
        took = perf_counter() - t0
        if collecting:
            gc.enable()
        self.busy_s += took
        self.samples.append(took * KERNEL_ROUNDS / SAMPLE_ROUNDS)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def run_items(workload, items, tracer=None) -> Run:
    """Run items one after another."""
    run = Run()
    windows = []  # per item, the number of kernel samples taken before it started and before it ended
    with Sampler() as sampler:
        for i, item in enumerate(items):
            if tracer is not None:
                tracer.item = i
            busy, first = sampler.busy_s, len(sampler.samples)
            t0 = perf_counter()
            try:
                outcome = workload.run(item)
                ok, gate_s, records = outcome.ok, outcome.gate_s, outcome.records
            except Exception:
                if run.failed < MAX_TRACEBACKS:
                    traceback.print_exc(file=sys.stderr)
                ok, gate_s, records = False, 0.0, 0
            # a sample inside the gate is left out twice: 0.3 ms, in about one certify item in ten
            run.raw.append(perf_counter() - t0 - gate_s - (sampler.busy_s - busy))
            windows.append((first, len(sampler.samples)))
            run.failed += not ok
            run.records += records
            run.strata[item.stratum] += 1
    # a sample that the host stalled (up to 100 times the median, in under 1%
    # of samples) would swamp the mean of its window, so samples are capped
    samples = sampler.samples or [kernel_seconds()]
    cap = SAMPLE_CAP * statistics.median(samples)
    run.kernel_s = [min(k, cap) for k in samples]
    for t, (first, last) in zip(run.raw, windows):
        run.times.append(t * scale(run.kernel_s[max(first - SAMPLE_MARGIN, 0) : last + SAMPLE_MARGIN]))
    return run


def run_passes(workload, items, seconds: float) -> list[Run]:
    """Run the pass once, then again while one more pass would end within seconds."""
    t0 = perf_counter()
    passes = [run_items(workload, items)]
    while (len(passes) + 1) * (perf_counter() - t0) / len(passes) <= seconds:
        passes.append(run_items(workload, items))
    return passes


def tail(times: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples): the highest percentile with 10 items beyond it."""
    n = len(times)
    if n <= 10:
        raise ValueError(f"{n} items: the tail needs more than 10")
    return sorted(times)[n - 11], 100.0 * (n - 10) / n, n


def timings(passes: list[Run], attr: str) -> dict[str, float]:
    """items_per_s over all passes; item_ms_p50 and item_ms_tail per pass, median over passes."""
    per_pass = [getattr(run, attr) for run in passes]
    return {
        "items_per_s": sum(map(len, per_pass)) / sum(map(sum, per_pass)),
        "item_ms_p50": 1e3 * statistics.median(statistics.median(times) for times in per_pass),
        "item_ms_tail": 1e3 * statistics.median(tail(times)[0] for times in per_pass),
    }


def setup_seconds(levels: list[int]) -> list[tuple[float, float]]:
    """(raw, scaled) set-up seconds of SETUP_REPEATS fresh processes."""
    probe = [sys.executable, str(BENCH / "probe_setup.py"), str(SRC), *map(str, levels)]
    out = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(probe, capture_output=True, text=True, timeout=120, check=True)
        raw, scaled = map(float, done.stdout.split())
        out.append((raw, scaled))
    return out


def metadata(args, strata: Counter) -> dict:
    import mpmath

    src = SRC / "fujitacert"
    files = sorted(src.glob("*.py"))
    digest = hashlib.sha256()
    for path in files:
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    rev = None
    if (ROOT / ".git").exists():  # a benchmark checkout is often a plain copy of the tree
        try:
            rev = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
            ).stdout.strip() or None
        except OSError:
            pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_rev": rev,
        "src_sha256": digest.hexdigest(),
        "src_lines": {p.stem: len(p.read_text().splitlines()) for p in files},
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "nproc": os.cpu_count(),
        "items_per_stratum_per_pass": dict(sorted(strata.items())),
        "loop": "closed, one caller, one process",
        "wait_time": "not recorded: the library is single-threaded, so no layer waits on another",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "fujitacert" / "__init__.py").is_file():
        print(f"error: no fujitacert sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import fujitacert

    if Path(fujitacert.__file__).resolve().parent != (SRC / "fujitacert").resolve():
        print(f"error: imported fujitacert from {fujitacert.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    levels = workload.levels()
    for level in levels:
        fujitacert.zeta(level)

    items = workload.items(args.seed)
    report: dict = {}
    if args.trace:
        import tracer as tracing

        items = items[: workload.trace_items]
        tr = tracing.Tracer()
        with tr.patched():
            traced = run_items(workload, items, tracer=tr)
        plain = run_items(workload, items)
        values = tr.per_layer(classes=traced.records)
        values["trace_overhead_frac"] = sum(traced.times) / sum(plain.times)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in tracing.PER_LAYER.items()}
        spans = BENCH / "out" / f"spans-{args.workload}-seed{args.seed}.tsv.gz"
        tr.write_spans(spans)
        report["spans"] = {"file": str(spans.relative_to(ROOT)), "count": len(tr.span_end)}
        strata, attempted, failed = traced.strata, 2 * len(items), traced.failed + plain.failed
    else:
        passes = run_passes(workload, items, args.seconds)
        setups = setup_seconds(levels)
        values = timings(passes, "times")
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        values["setup_s"] = statistics.median(scaled for _, scaled in setups)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
        _, tail_pct, samples = tail(passes[0].times)
        report["passes"] = len(passes)
        report["item_ms_tail"] = {"percentile": tail_pct, "samples_per_pass": samples}
        report["unscaled"] = timings(passes, "raw")
        report["unscaled"]["setup_s"] = statistics.median(raw for raw, _ in setups)
        report["kernel_ms_median"] = 1e3 * statistics.median(k for run in passes for k in run.kernel_s)
        report["setup_s_runs"] = setups
        strata = passes[0].strata
        attempted, failed = sum(len(run.times) for run in passes), sum(run.failed for run in passes)
    report["fail_frac"] = {"value": failed / attempted, "unit": "fraction"}
    print(json.dumps({"meta": metadata(args, strata), "metrics": metrics, "report": report}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
