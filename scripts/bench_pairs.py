"""Run the benchmark on two revisions in alternating pairs and write BENCH_<label>.json.

usage: python3 scripts/bench_pairs.py --label NAME [--base REV] [--change REV]
           [--pairs 10] [--seed 1]

Both revisions are extracted with `git archive` into fresh temporary
directories, and `bench/run.py --trace 0` runs there for run_seconds from
BENCHMARK.json, on every workload it lists, in --pairs pairs per workload
(at least 10); pair i runs the base first when i is even and the change
first when i is odd.  --base defaults to HEAD and --change to the staged
tree (`git write-tree`), so the default compares the index with the last
commit.

The JSON holds both revisions, the Python and mpmath versions the runs
reported, the src/ line count per module of each side and their
difference, every run's metrics, `correct` and `failed`, and per workload
and end-to-end metric each side's median and quartiles, the pairs the
change won and lost (by the metric's direction in BENCHMARK.json), whether
the change's median is within the metric's bound, and whether a gain is
claimable: at least nine tenths of the pairs won, and the medians apart by
more than the base's interquartile range.  Uses the standard library only.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True, check=True).stdout.strip()


def extract(rev: str, into: Path) -> None:
    data = subprocess.run(["git", "-C", str(ROOT), "archive", rev], capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        tar.extractall(into, filter="data")


def src_lines(tree: Path) -> dict[str, int]:
    return {p.stem: len(p.read_text().splitlines()) for p in sorted((tree / "src" / "fujitacert").glob("*.py"))}


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    done = subprocess.run(argv + ["--trace", "0"], cwd=tree, capture_output=True, text=True, timeout=20 * seconds + 600)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} in {tree} exited {done.returncode}:\n{done.stderr[-2000:]}")
    report, result = (json.loads(line) for line in done.stdout.splitlines()[-2:])
    return {
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "passes": report["report"]["passes"],
        "python": report["meta"]["python"],
        "mpmath": report["meta"]["mpmath"],
    }


def quartiles(values: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def summarize(pairs: list[dict], metrics: list[dict]) -> dict:
    out = {}
    for metric in metrics:
        name, higher = metric["name"], metric["better"] == "higher"
        base = [p["base"]["metrics"][name] for p in pairs]
        change = [p["change"]["metrics"][name] for p in pairs]
        wins = sum((c > b) if higher else (c < b) for b, c in zip(base, change))
        losses = sum((c < b) if higher else (c > b) for b, c in zip(base, change))
        qb, qc = quartiles(base), quartiles(change)
        worse_by = (qb["median"] - qc["median"] if higher else qc["median"] - qb["median"]) / qb["median"]
        out[name] = {
            "base": qb,
            "change": qc,
            "change_over_base": qc["median"] / qb["median"],
            "wins": wins,
            "losses": losses,
            "within_bound": worse_by <= metric["bound"],
            "gain_claimable": wins >= 0.9 * len(pairs)
            and abs(qc["median"] - qb["median"]) > qb["q3"] - qb["q1"],
        }
    return out


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--base", default="HEAD")
    parser.add_argument("--change", default=None, help="default: the staged tree")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.pairs < 10:
        parser.error("--pairs must be at least 10")

    revisions = {"base": git("rev-parse", args.base), "change": args.change or git("write-tree")}
    seconds = spec["run_seconds"]
    with tempfile.TemporaryDirectory() as tmp:
        trees = {side: Path(tmp) / side for side in revisions}
        for side, rev in revisions.items():
            extract(rev, trees[side])
        lines = {side: src_lines(tree) for side, tree in trees.items()}
        results, versions = {}, set()
        for workload in (w["name"] for w in spec["workloads"]):
            pairs = []
            for i in range(args.pairs):
                order = ("base", "change") if i % 2 == 0 else ("change", "base")
                pair = {"order": list(order)}
                for side in order:
                    pair[side] = run_once(trees[side], workload, args.seed, seconds)
                    versions.add((pair[side].pop("python"), pair[side].pop("mpmath")))
                    print(workload, i, side, json.dumps(pair[side]["metrics"]), file=sys.stderr, flush=True)
                pairs.append(pair)
            results[workload] = {
                "summary": summarize(pairs, spec["end_to_end"]),
                "correct": {side: all(p[side]["correct"] for p in pairs) for side in revisions},
                "failed": {side: sum(p[side]["failed"] for p in pairs) for side in revisions},
                "pairs": pairs,
            }
    modules = sorted(set(lines["base"]) | set(lines["change"]))
    report = {
        "label": args.label,
        "revisions": {side: {"given": given, "id": revisions[side]} for side, given in (("base", args.base), ("change", args.change or "index"))},
        "versions": [{"python": py, "mpmath": mp} for py, mp in sorted(versions)],
        "settings": {"pairs": args.pairs, "seed": args.seed, "seconds": seconds, "command": spec["command"]},
        "src_lines": {
            **lines,
            "net": {m: lines["change"].get(m, 0) - lines["base"].get(m, 0) for m in modules},
        },
        "workloads": results,
    }
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
