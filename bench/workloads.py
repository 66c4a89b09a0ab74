"""The benchmark's three workloads: seeded passes, item runners, gate.

Every workload turns a seed into a pass: a fixed list of items, stratified
so that any two seeds put the same number of items of each stratum into
it.  A run repeats its pass as time allows, so the items a run times, and
the item its tail falls on, do not depend on the speed of the host or the
program.  Each item runs through the library's public functions and is
checked against outputs pinned at the seed commit (``pins/``, written by
``pin.py``); an exception, a wrong exit code, a failed ``checks`` entry or
a digest mismatch fails the item.

Library functions are looked up on their modules at call time, so the
tracer's rebinding of those names (``tracer.py``) sees every call.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache
from math import ceil
from pathlib import Path
from time import perf_counter

from fujitacert import cli, eigenspace, monodromy, sweep

PINS = Path(__file__).resolve().parent / "pins"


@dataclass(frozen=True)
class Item:
    stratum: str
    inputs: tuple
    expected: tuple


@dataclass(frozen=True)
class Outcome:
    ok: bool
    gate_s: float  # time the gate itself spent inside the item; excluded from timings
    records: int  # JSON records the item emitted


def _load(name: str):
    return json.loads((PINS / f"{name}.json").read_text())


def canonical(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False).encode()


class RecordSink:
    """Stdout for ``cli.main`` that digests each JSON record as it is written.

    Only a record's ``command``, ``result`` and ``checks`` enter the digest,
    so a ``schema_version`` bump is not a failure while a changed verdict,
    order, class or invariant is.  A record's ``result`` holds its family,
    so for ``enumerate`` the digest covers the class list.  Nothing is kept
    beyond the current line.
    """

    def __init__(self):
        self.records = 0
        self.failed_checks = 0
        self.busy_s = 0.0
        self._partial = ""
        self._digest = hashlib.sha256()

    def write(self, text: str) -> int:
        t0 = perf_counter()
        lines = (self._partial + text).split("\n")
        self._partial = lines.pop()
        for line in lines:
            record = json.loads(line)
            self.records += 1
            self.failed_checks += sum(not c["passed"] for c in record["checks"])
            self._digest.update(canonical([record["command"], record["result"], record["checks"]]))
        self.busy_s += perf_counter() - t0
        return len(text)

    def summary(self) -> tuple[int, str]:
        """(records, digest), as pinned."""
        if self._partial:
            raise ValueError("output ended inside a record")
        return self.records, self._digest.hexdigest()


# ---------------------------------------------------------------------------
# seeded, stratified passes


def interleave(sizes: dict[str, int]) -> list[str]:
    """One slot per item, each stratum spread evenly over the sequence.

    Any prefix holds every stratum in proportion to its size (within one
    item), and the slot order does not depend on the seed.
    """
    keyed = [((i + 0.5) / size, rank) for rank, size in enumerate(sizes.values()) for i in range(size)]
    labels = list(sizes)
    return [labels[rank] for _, rank in sorted(keyed)]


def stratified_pass(members: dict[str, list[Item]], quota: dict[str, int], seed: int) -> list[Item]:
    """quota[label] members of each stratum, chosen by the seed, strata interleaved."""
    rng = random.Random(seed)
    chosen = {label: iter(rng.sample(members[label], quota[label])) for label in members}
    return [next(chosen[label]) for label in interleave(quota)]


# ---------------------------------------------------------------------------
# oracle_sweep: the n <= 12 criterion-vs-oracle population

# share of each stratum in a pass, rounded up so that every stratum is in it;
# 1472 of the 3671 instances, 13 of them the order-600 closures that set the tail
ORACLE_SHARE = 0.4


@lru_cache(maxsize=None)
def _oracle_members() -> dict[str, list[Item]]:
    members: dict[str, list[Item]] = {}
    for n, m, j, kind, order, sig in _load("oracle_sweep"):
        label = f"n{n}/{kind}" + (f"/{order}" if order else "")
        members.setdefault(label, []).append(Item(label, (n, tuple(m), j), (kind, order, tuple(sig))))
    return members


def oracle_pass(seed: int) -> list[Item]:
    members = _oracle_members()
    return stratified_pass(members, {k: ceil(ORACLE_SHARE * len(v)) for k, v in members.items()}, seed)


def run_oracle_item(item: Item) -> Outcome:
    """run_sweep's three cross-checks on one irreducible instance."""
    n, m, j = item.inputs
    kind, order, sig = item.expected
    w = eigenspace.WeightTuple(n=n, m=m)
    irreducible = monodromy.is_irreducible(w, j)
    triple = monodromy.triple_from_weights(w, j)
    irreducible_oracle = not monodromy.has_common_eigenvector(triple)
    criterion, closure = sweep.sweep_instance(w, j)
    _, form_signature = monodromy.invariant_hermitian_form(triple)
    ok = (
        irreducible
        and irreducible_oracle
        and criterion.kind == closure.kind == kind
        and closure.order == order
        and tuple(form_signature) == tuple(eigenspace.signature(w, j)) == sig
    )
    return Outcome(ok, 0.0, 0)


# ---------------------------------------------------------------------------
# CLI workloads: enumerate_normalize and certify_stream


def run_cli_item(item: Item) -> Outcome:
    sink = RecordSink()
    code = cli.main(list(item.inputs), out=sink, err=sys.stderr)
    ok = code == 0 and sink.failed_checks == 0 and sink.summary() == item.expected
    return Outcome(ok, sink.busy_s, sink.records)


def enumerate_argv(n: int) -> tuple[str, ...]:
    return ("enumerate", "--n-min", str(n), "--n-max", str(n), "--all", "--normalize")


# n of the commands in one round of a pass, and rounds in a pass: 16 items.
# n = 11 comes five times a round, so that the median and the tail (the
# 11th-largest item) both fall on n = 11 commands, which take about 1.4 s,
# long enough for the calibration samples to follow the host; an n = 7
# command (about 40 ms) is not.
ENUMERATE_ROUND = (5, 7, 11, 11, 11, 11, 11, 13)
ENUMERATE_ROUNDS = 2


def enumerate_pass(seed: int) -> list[Item]:
    """ENUMERATE_ROUNDS rounds of the commands of ENUMERATE_ROUND.

    These commands are the workload's whole input, so every seed runs the
    same items in the same order; an item's time depends on the heap its
    predecessor leaves, so the order is not varied either.
    """
    pins = _load("enumerate_normalize")
    return [
        Item(f"n{n}", enumerate_argv(n), (pins[str(n)]["classes"], pins[str(n)]["digest"]))
        for n in ENUMERATE_ROUND * ENUMERATE_ROUNDS
    ]


def certify_argv(n: int, m, nw, oracle: bool) -> tuple[str, ...]:
    argv = ("certify", "-n", str(n), "-m", ",".join(map(str, m)), "--nw", ",".join(map(str, nw)))
    return argv + ("--oracle",) if oracle else argv


# families of each n in a pass (of 16 pinned per n): 350 items
CERTIFY_PER_N = 7


@lru_cache(maxsize=None)
def _certify_members() -> dict[str, list[Item]]:
    pins = _load("certify_stream")
    members: dict[str, list[Item]] = {}
    for fam in pins["families"]:
        label = f"n{fam['n']}/" + ("oracle" if fam["oracle"] else "plain")
        argv = certify_argv(fam["n"], fam["m"], fam["nw"], fam["oracle"])
        members.setdefault(label, []).append(Item(label, argv, (1, fam["digest"])))
    # in each round of a pass the oracle strata and the plain strata alternate, each by ascending n
    oracle = [k for k in members if k.endswith("/oracle")]
    plain = [k for k in members if k.endswith("/plain")]
    return {label: members[label] for pair in zip(oracle, plain) for label in pair}


def certify_pass(seed: int) -> list[Item]:
    members = _certify_members()
    return stratified_pass(members, dict.fromkeys(members, CERTIFY_PER_N), seed)


# ---------------------------------------------------------------------------
# the workload table


@dataclass(frozen=True)
class Workload:
    name: str
    items: Callable[[int], list[Item]]  # seed -> the pass
    run: Callable[[Item], Outcome]
    trace_items: int  # leading items of the pass in one traced run
    levels: Callable[[], list[int]]  # cyclotomic levels whose caches set-up warms


def _oracle_levels() -> list[int]:
    return sorted({item.inputs[0] for items in _oracle_members().values() for item in items})


def _certify_levels() -> list[int]:
    members = _certify_members()
    return sorted({int(item.inputs[2]) for items in members.values() for item in items if "--oracle" in item.inputs})


WORKLOADS = {
    w.name: w
    for w in (
        # cyclotomic and monodromy do almost all the work; FINITE closures set the tail
        Workload("oracle_sweep", oracle_pass, run_oracle_item, trace_items=600, levels=_oracle_levels),
        # surfaces.canonical_family does ~90% of the work, cyclotomic none
        Workload("enumerate_normalize", enumerate_pass, run_cli_item, trace_items=8, levels=lambda: []),
        # certify, eigenspace, records and cli; monodromy at large levels with early exit
        Workload("certify_stream", certify_pass, run_cli_item, trace_items=100, levels=_certify_levels),
    )
}
