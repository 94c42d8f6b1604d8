"""Tracing from outside the program: spans, phase timing and kernel timings.

A span records name, start, end and parent, and runs under its own Spark job
group, so the jobs it ran can be read back per span. Spans are kept in
memory and written out when the benchmark ends.

Layer boundaries are traced without touching the program:

* MICE phases, through a ``TimingLog`` subclass passed as ``timing=``;
* ``cofactor_ring``, ``triple_sum``, the factorized folds and ``fit``, by
  rebinding the names their callers imported to tracing wrappers for the
  duration of one traced op.
"""
from __future__ import annotations

import functools
import importlib
import pickle
import statistics
import time
from contextlib import contextmanager, nullcontext

from repro.mice import TimingLog
from repro.models import train_ridge
from repro.ring.triple import lift_block, lift_grouped


class Spans:
    """In-memory span log; ``detail`` turns on spans below the op steps."""

    def __init__(self, sc) -> None:
        self.sc = sc
        self.detail = False
        self.op = None
        self.records: list[dict] = []
        self._stack: list[dict] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        rec = {"id": len(self.records), "op": self.op, "name": name,
               "parent": parent["id"] if parent else None,
               "group": f"perfbench-{len(self.records)}",
               "start": time.perf_counter(), "end": None}
        self.records.append(rec)
        self._stack.append(rec)
        self.sc.setJobGroup(rec["group"], name)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()
            if parent is not None:
                self.sc.setJobGroup(parent["group"], parent["name"])
            else:
                self.sc.setLocalProperty("spark.jobGroup.id", None)

    def inner(self, name: str):
        return self.span(name) if self.detail else nullcontext({})

    def of_op(self, op) -> list[dict]:
        return [r for r in self.records if r["op"] == op]

    def subtree_groups(self, root: dict) -> list[str]:
        inside = {root["id"]}
        for r in self.records[root["id"] + 1:]:
            if r["parent"] in inside:
                inside.add(r["id"])
        return [self.records[i]["group"] for i in sorted(inside)]


class SpanTimingLog(TimingLog):
    """A ``TimingLog`` whose phases are also spans named ``mice.<variant>.*``."""

    def __init__(self, spans: Spans, variant: str) -> None:
        super().__init__()
        self._spans = spans
        self._variant = variant

    @contextmanager
    def time(self, name: str):
        phase = name.rsplit(".", 1)[-1]
        with self._spans.span(f"mice.{self._variant}.{phase}"), super().time(name):
            yield


#: name -> (span name, modules whose imported binding is rebound)
TRACED = {
    "cofactor_ring": ("ring.cofactor_ring", ["repro.mice.baseline",
                                             "repro.mice.low",
                                             "repro.mice.high",
                                             "repro.ring.spark_agg"]),
    "triple_sum": ("ring.triple_sum", ["repro.ring.spark_agg"]),
    "fact_fold": ("fold.fact_fold", ["repro.datasets.plans"]),
    "keyed_fold": ("fold.keyed_fold", ["repro.datasets.plans"]),
    "final_fold": ("fold.final_fold", ["repro.datasets.plans"]),
    "fit": ("models.fit", ["repro.mice.baseline", "repro.mice.low",
                           "repro.mice.high", "repro.mice.factorized_low"]),
}


class _CountedRows:
    """Stands in for the keyed DataFrame ``final_fold`` collects, and records
    how many keyed partial triples it returned and their pickled bytes."""

    def __init__(self, df, rec: dict) -> None:
        self._df = df
        self._rec = rec

    def collect(self):
        rows = self._df.collect()
        self._rec["partials"] = len(rows)
        self._rec["partial_bytes"] = sum(len(r["t"]) for r in rows)
        return rows


def _wrap(fn, span_name: str, spans: Spans):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with spans.span(span_name) as rec:
            if span_name == "fold.final_fold":
                args = (_CountedRows(args[0], rec), *args[1:])
            return fn(*args, **kwargs)
    return traced


@contextmanager
def installed(spans: Spans):
    """Rebind every traced name to a span-recording wrapper, then restore."""
    saved = []
    for attr, (span_name, modules) in TRACED.items():
        for name in modules:
            module = importlib.import_module(name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, _wrap(original, span_name, spans))
    try:
        yield
    finally:
        for module, attr, original in saved:
            setattr(module, attr, original)


# ---------------------------------------------------------------- kernels --
KERNEL_ROWS = 10_000
KERNEL_REPS = 7


def _median_ms(fn) -> float:
    fn()
    times = []
    for _ in range(KERNEL_REPS):
        t0 = time.perf_counter()
        fn()
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)


def kernel_metrics(inp) -> dict[str, float]:
    """Time the ``repro.ring.triple`` kernels on batches of the workload's
    own prejoined data, in process, with no Spark."""
    schema, wl = inp.schema, inp.wl
    batch = inp.joined.iloc[:KERNEL_ROWS]
    other = inp.joined.iloc[KERNEL_ROWS:2 * KERNEL_ROWS]
    fact_attrs = list(wl.grouped_attrs)
    rest = [a for a in schema.names if a not in fact_attrs]
    t1, t2 = lift_block(batch, schema), lift_block(other, schema)
    left = lift_block(batch, schema, fact_attrs)
    right = lift_block(batch, schema, rest)
    blob = pickle.dumps(t1)
    return {
        "kernel.lift_block.ms": _median_ms(lambda: lift_block(batch, schema)),
        "kernel.lift_grouped.ms": _median_ms(
            lambda: lift_grouped(batch, schema, fact_attrs, list(wl.group_by))),
        "kernel.ring_add.ms": _median_ms(lambda: t1 + t2),
        "kernel.ring_mul.ms": _median_ms(lambda: left * right),
        "kernel.pickle_roundtrip.ms": _median_ms(
            lambda: pickle.loads(pickle.dumps(t1))),
        "kernel.triple_kb": len(blob) / 1024.0,
        "kernel.dense_solve.ms": _median_ms(
            lambda: train_ridge(t1, inp.target, l2=1e-3)),
    }
