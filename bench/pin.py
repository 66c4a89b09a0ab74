"""Regenerate the benchmark's pinned expected outputs in ``pins/``.

usage: python3 bench/pin.py

The pins are the correctness reference of every benchmark run, so run this
only at a commit whose outputs are known to be right, and review the diff.
It writes:

* ``oracle_sweep.json``: every irreducible (n; m; j) with n <= 12, with the
  closure kind, group order and form signature (criterion and oracle must
  agree, and the form signature must equal the eigenspace signature);
* ``enumerate_normalize.json``: per n, the class count and the digest of
  the records of ``enumerate --all --normalize`` (each record holds its
  class, so the digest covers the class list);
* ``certify_stream.json``: a fixed pool of random admissible families per n
  (``--oracle`` at 25 <= n <= 97, plain at 25 values of n in [1000, 10007])
  with the digest of each ``certify`` record.
"""

from __future__ import annotations

import itertools
import json
import random
import sys
from math import gcd
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

from fujitacert import cli, eigenspace, monodromy, surfaces, sweep  # noqa: E402

from workloads import PINS, RecordSink, certify_argv, enumerate_argv  # noqa: E402

ORACLE_N = range(4, 13)
ENUMERATE_N = (5, 7, 11, 13)
POOL_PER_N = 16


def weight_tuples(n: int):
    """Every valid (m0..m3) for n, enumerated here so the pins do not lean on the library's enumerators."""
    for m in itertools.product(range(1, n - 2), repeat=4):
        if sum(m) == n and gcd(gcd(gcd(gcd(m[0], m[1]), m[2]), m[3]), n) == 1:
            yield m


def oracle_population() -> list:
    rows = []
    for n in ORACLE_N:
        for m in weight_tuples(n):
            w = eigenspace.WeightTuple(n=n, m=m)
            for j in range(1, n):
                if not monodromy.is_irreducible(w, j):
                    continue
                triple = monodromy.triple_from_weights(w, j)
                criterion, closure = sweep.sweep_instance(w, j)
                _, sig = monodromy.invariant_hermitian_form(triple)
                if monodromy.has_common_eigenvector(triple):
                    raise SystemExit(f"irreducibility mismatch at n={n} m={m} j={j}")
                if criterion.kind != closure.kind or sig != eigenspace.signature(w, j):
                    raise SystemExit(f"criterion/oracle mismatch at n={n} m={m} j={j}")
                rows.append([n, list(m), j, closure.kind, closure.order, list(sig)])
    return rows


def cli_pin(argv) -> tuple:
    sink = RecordSink()
    code = cli.main(list(argv), out=sink, err=sys.stderr)
    if code != 0 or sink.failed_checks:
        raise SystemExit(f"{' '.join(argv)}: exit {code}, {sink.failed_checks} failed checks")
    return sink.summary()


def large_ns() -> list[int]:
    """25 values of n spread geometrically over [1000, 10007], each coprime to 6."""
    out = []
    for k in range(25):
        n = round(1000 * (10007 / 1000) ** (k / 24))
        while gcd(n, 6) != 1:
            n += 1
        out.append(n)
    return out


def random_family(n: int, rng: random.Random):
    units = [x for x in range(1, n) if gcd(x, n) == 1]
    while True:
        m = [rng.choice(units) for _ in range(3)]
        m.append(n - sum(m))
        nw = [rng.choice(units) for _ in range(2)]
        nw.append(n - sum(nw))
        if m[3] > 0 and nw[2] > 0 and surfaces.admissibility_reason(n, m, nw) is None:
            return m, nw


def certify_pool() -> list[dict]:
    families = []
    strata = [(n, True) for n in range(25, 98) if gcd(n, 6) == 1]
    strata += [(n, False) for n in large_ns()]
    for n, oracle in strata:
        rng = random.Random(f"certify-pool-{n}")
        chosen = []
        while len(chosen) < POOL_PER_N:
            fam = random_family(n, rng)
            if fam not in chosen:
                chosen.append(fam)
        for m, nw in chosen:
            _, digest = cli_pin(certify_argv(n, m, nw, oracle))
            families.append({"n": n, "m": m, "nw": nw, "oracle": oracle, "digest": digest})
    return families


def write_rows(name: str, rows, head: str = "", tail: str = "") -> None:
    body = ",\n".join(json.dumps(row) for row in rows)
    (PINS / f"{name}.json").write_text(f"{head}[\n{body}\n]{tail}\n")


def main() -> None:
    PINS.mkdir(exist_ok=True)
    write_rows("oracle_sweep", oracle_population())
    enum = {}
    for n in ENUMERATE_N:
        classes, digest = cli_pin(enumerate_argv(n))
        enum[str(n)] = {"classes": classes, "digest": digest}
    (PINS / "enumerate_normalize.json").write_text(json.dumps(enum, indent=1) + "\n")
    write_rows("certify_stream", certify_pool(), head='{"families": ', tail="}")


if __name__ == "__main__":
    main()
