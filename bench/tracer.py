"""Per-layer tracing from outside the library.

``Tracer.patched()`` rebinds the public functions of each layer, in every
fujitacert module that holds them (``sweep.group_closure``,
``certify.group_closure``, ``cli.group_closure``, ...), and the
``CyclotomicNumber`` multiply and inverse on the class, so calls made
inside the package are traced too.  Each call records a span: name, start,
end, parent span and item id, kept in memory in flat arrays and written
out when the run ends.  A span's self time is its duration minus the
durations of its child spans; the library is single-threaded, so no layer
waits on another and no wait time is recorded.
"""

from __future__ import annotations

import gzip
import sys
from array import array
from collections import Counter
from contextlib import contextmanager
from functools import wraps
from pathlib import Path
from time import perf_counter

from fujitacert import cyclotomic

import workloads

# (module, attribute) of each traced function; the span name is "module.attribute"
TRACED = (
    ("residues", "units"),
    ("eigenspace", "eigenspace_table"),
    ("cyclotomic", "real_sign"),
    ("monodromy", "mat_mul"),
    ("monodromy", "has_finite_order"),
    ("monodromy", "infinite_order_witness"),
    ("monodromy", "group_closure"),
    ("monodromy", "invariant_hermitian_form"),
    ("monodromy", "is_irreducible"),
    ("monodromy", "finiteness_by_signature"),
    ("surfaces", "canonical_family"),
    ("certify", "certify"),
    ("certify", "splitting"),
    ("records", "certificate_dict"),
    ("records", "dumps_record"),
    ("cli", "main"),
    ("sweep", "sweep_instance"),
)

# (class, attribute, span name) of each traced method
TRACED_METHODS = (
    (cyclotomic.CyclotomicNumber, "__mul__", "cyclotomic.mul"),
    (cyclotomic.CyclotomicNumber, "__rmul__", "cyclotomic.mul"),
    (cyclotomic.CyclotomicNumber, "inverse", "cyclotomic.inverse"),
    # the gate's own parsing, so that it is not counted as cli.main self time
    (workloads.RecordSink, "write", "bench.gate"),
)

# reported metric -> unit; "<span>.calls" and "<span>.self_s" come from the spans
PER_LAYER = {
    "cyclotomic.mul.calls": "count",
    "cyclotomic.mul.self_s": "s",
    "cyclotomic.inverse.calls": "count",
    "cyclotomic.inverse.self_s": "s",
    "cyclotomic.real_sign.calls": "count",
    "cyclotomic.real_sign.self_s": "s",
    "monodromy.group_closure.self_s": "s",
    "monodromy.has_finite_order.calls": "count",
    "monodromy.has_finite_order.self_s": "s",
    "monodromy.mat_mul.calls": "count",
    "monodromy.closure_elements": "count",
    "monodromy.mat_mul_per_element": "ratio",
    "monodromy.infinite_order_witness.self_s": "s",
    "monodromy.invariant_hermitian_form.self_s": "s",
    "monodromy.is_irreducible.calls": "count",
    "monodromy.is_irreducible.self_s": "s",
    "eigenspace.eigenspace_table.self_s": "s",
    "monodromy.finiteness_by_signature.self_s": "s",
    "sweep.sweep_instance.self_s": "s",
    "residues.units.calls": "count",
    "surfaces.canonical_family.calls": "count",
    "surfaces.canonical_family.self_s": "s",
    "surfaces.family_orbit.images": "count",
    "surfaces.classes_per_orbit_image": "ratio",
    "certify.certify.calls": "count",
    "certify.certify.self_s": "s",
    "certify.splitting.self_s": "s",
    "certify.weight_tuples_per_certify": "ratio",
    "records.certificate_dict.self_s": "s",
    "records.dumps_record.self_s": "s",
    "records.bytes_out": "bytes",
    "cli.main.self_s": "s",
    "trace_overhead_frac": "ratio",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Tracer:
    """In-memory spans plus per-name call counts and self times."""

    def __init__(self):
        self.item = -1
        self.names: list[str] = []
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.counts: Counter = Counter()
        self.weight_tuples: set = set()
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_item = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._open: list[int] = []
        self._child_s: list[float] = []

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
        return self.names.index(name)

    def call_count(self, name: str) -> int:
        return self.calls[self.names.index(name)] if name in self.names else 0

    def wrap(self, name: str, fn):
        nid = self._name_id(name)
        calls, self_s, open_, child_s = self.calls, self.self_s, self._open, self._child_s
        names, parents, items = self.span_name.append, self.span_parent.append, self.span_item.append
        starts, ends = self.span_start.append, self.span_end

        @wraps(fn)
        def traced(*args, **kwargs):
            idx = len(ends)
            names(nid)
            parents(open_[-1] if open_ else -1)
            items(self.item)
            ends.append(0.0)
            open_.append(idx)
            child_s.append(0.0)
            t0 = perf_counter()
            starts(t0)
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                ends[idx] = t1
                open_.pop()
                inner = child_s.pop()
                self_s[nid] += t1 - t0 - inner
                calls[nid] += 1
                if child_s:
                    child_s[-1] += t1 - t0

        return traced

    # -- counters that need a call's arguments or result -------------------

    def _count_closure(self, fn):
        @wraps(fn)
        def counted(*args, **kwargs):
            before = self.call_count("monodromy.mat_mul")
            verdict = fn(*args, **kwargs)
            if verdict.kind == "FINITE":
                self.counts["closure_elements"] += verdict.order
                self.counts["closure_mat_mul"] += self.call_count("monodromy.mat_mul") - before
            return verdict

        return counted

    def _count_orbit(self, fn):
        @wraps(fn)
        def counted(*args, **kwargs):
            for image in fn(*args, **kwargs):
                self.counts["orbit_images"] += 1
                yield image

        return counted

    def _count_certify(self, fn):
        @wraps(fn)
        def counted(f, *args, **kwargs):
            self.weight_tuples.add((f.w.n, f.w.m))
            return fn(f, *args, **kwargs)

        return counted

    def _count_bytes(self, fn):
        @wraps(fn)
        def counted(*args, **kwargs):
            text = fn(*args, **kwargs)
            self.counts["bytes_out"] += len(text) if text.isascii() else len(text.encode())
            return text

        return counted

    @contextmanager
    def patched(self):
        """Rebind every traced name for the duration of the block."""
        modules = [m for name, m in sys.modules.items() if name == "fujitacert" or name.startswith("fujitacert.")]
        counters = {
            "monodromy.group_closure": self._count_closure,
            "certify.certify": self._count_certify,
            "records.dumps_record": self._count_bytes,
        }
        replacements = {}
        for mod, attr in TRACED:
            name = f"{mod}.{attr}"
            original = getattr(sys.modules[f"fujitacert.{mod}"], attr)
            replacements[original] = self.wrap(name, counters.get(name, lambda f: f)(original))
        orbit = sys.modules["fujitacert.surfaces"].family_orbit  # a generator: counted, not spanned
        replacements[orbit] = self._count_orbit(orbit)
        undo = []
        for original, replacement in replacements.items():
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        undo.append((module, key, original))
                        setattr(module, key, replacement)
        for cls, attr, name in TRACED_METHODS:
            undo.append((cls, attr, cls.__dict__[attr]))
            setattr(cls, attr, self.wrap(name, cls.__dict__[attr]))
        try:
            yield self
        finally:
            for target, key, original in reversed(undo):
                setattr(target, key, original)

    # -- results -------------------------------------------------------------

    def per_layer(self, classes: int) -> dict[str, float]:
        """Every PER_LAYER metric except trace_overhead_frac, which needs two runs."""
        out: dict[str, float] = {}
        for metric in PER_LAYER:
            span, _, field = metric.rpartition(".")
            if field == "calls":
                out[metric] = self.call_count(span)
            elif field == "self_s":
                out[metric] = self.self_s[self.names.index(span)] if span in self.names else 0.0
        certifies = self.call_count("certify.certify")
        out["monodromy.closure_elements"] = self.counts["closure_elements"]
        out["monodromy.mat_mul_per_element"] = _ratio(self.counts["closure_mat_mul"], self.counts["closure_elements"])
        out["surfaces.family_orbit.images"] = self.counts["orbit_images"]
        out["surfaces.classes_per_orbit_image"] = _ratio(classes, self.counts["orbit_images"])
        out["certify.weight_tuples_per_certify"] = _ratio(len(self.weight_tuples), certifies)
        out["records.bytes_out"] = self.counts["bytes_out"]
        return out

    def write_spans(self, path: Path) -> None:
        """One tab-separated line per span: id, name, parent id, item, start, end."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.span_start[0] if self.span_start else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\tname\tparent\titem\tstart_s\tend_s\n")
            for i, (nid, parent, item, start, end) in enumerate(
                zip(self.span_name, self.span_parent, self.span_item, self.span_start, self.span_end)
            ):
                fh.write(f"{i}\t{self.names[nid]}\t{parent}\t{item}\t{start - t0:.7f}\t{end - t0:.7f}\n")
