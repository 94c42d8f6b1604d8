"""Metric names, units, and how they are computed from ops and spans."""
from __future__ import annotations

import statistics

from workloads import ROUNDS, STEPS, TIMED_STEPS, VARIANTS

#: MICE phases per variant, as the variants name them in ``TimingLog``,
#: plus ``output``, the forcing write
PHASES = {
    "baseline": ("prepare", "cofactor", "train", "update", "output"),
    "low": ("prepare", "partition", "global_cofactor", "delta_cofactor",
            "train", "update", "output"),
    "high": ("prepare", "partition", "complete_cofactor", "cofactor",
             "train", "update", "output"),
    "factorized_low": ("prepare", "partition", "global_cofactor",
                       "delta_cofactor", "train", "update", "output"),
}

END_TO_END = {
    "setup_s": "s",
    **{f"round_s.{v}": "s" for v in ROUNDS},
    "train_s.factorized": "s",
    "train_s.prejoined": "s",
    **{f"impute_rmse.{v}": "value" for v in ROUNDS},
}

SPARK = {"jobs": "count", "tasks": "count", "busy_s": "s",
         "input_rows": "count", "persisted_mb": "MB", "busy_ratio": "ratio"}
KERNELS = ("lift_block", "lift_grouped", "ring_add", "ring_mul",
           "pickle_roundtrip", "dense_solve")

PER_LAYER = {
    **{f"mice.{v}.{p}.{k}": u for v in VARIANTS for p in PHASES[v]
       for k, u in (("s", "s"), ("jobs", "count"))},
    **{f"spark.{s}.{k}": u for s in STEPS for k, u in SPARK.items()},
    "ring.cofactor_ring.calls": "count",
    "ring.cofactor_ring.s": "s",
    "ring.triple_sum.s": "s",
    "fold.fact_fold.s": "s",
    "fold.keyed_fold.s": "s",
    "fold.final_fold.s": "s",
    "fold.partials": "count",
    "fold.partial_mb": "MB",
    "models.fit.calls": "count",
    "models.fit.s": "s",
    **{f"kernel.{k}.ms": "ms" for k in KERNELS},
    "kernel.triple_kb": "KiB",
    "trace.overhead_pct": "%",
}


def _median(ops: list[dict], step: str, key: str) -> float | None:
    vals = [r[key] for o in ops for r in o["steps"]
            if r["step"] == step and r.get(key) is not None]
    return statistics.median(vals) if vals else None


def end_to_end(ops: list[dict], setup_s: float) -> dict:
    """Medians over the untraced ops of one run."""
    m = {"setup_s": setup_s,
         "train_s.factorized": _median(ops, "train_factorized", "wall_s"),
         "train_s.prejoined": _median(ops, "train_prejoined", "wall_s")}
    for v in ROUNDS:
        m[f"round_s.{v}"] = _median(ops, v, "wall_s")
        m[f"impute_rmse.{v}"] = _median(ops, v, "rmse")
    return m


def _op_layers(op: dict, recs: list[dict], cores: int) -> dict:
    """Per-layer metrics of one traced op from its step stats and spans."""

    def total(name: str, key: str | None = None) -> float:
        return sum(r["end"] - r["start"] if key is None else r.get(key, 0)
                   for r in recs if r["name"] == name)

    def calls(name: str) -> int:
        return sum(r["name"] == name for r in recs)

    m = {}
    for v in VARIANTS:
        for p in PHASES[v]:
            m[f"mice.{v}.{p}.s"] = total(f"mice.{v}.{p}")
            m[f"mice.{v}.{p}.jobs"] = total(f"mice.{v}.{p}", "jobs_incl")
    steps = {r["step"]: r for r in op["steps"]}
    for s in STEPS:
        st = steps[s]
        for k in SPARK:
            if k != "busy_ratio":
                m[f"spark.{s}.{k}"] = st[k]
        wall = st.get("wall_s")
        m[f"spark.{s}.busy_ratio"] = st["busy_s"] / (wall * cores) if wall else 0.0
    m["ring.cofactor_ring.calls"] = calls("ring.cofactor_ring")
    m["ring.cofactor_ring.s"] = total("ring.cofactor_ring")
    m["ring.triple_sum.s"] = total("ring.triple_sum")
    for f in ("fact_fold", "keyed_fold", "final_fold"):
        m[f"fold.{f}.s"] = total(f"fold.{f}")
    m["fold.partials"] = total("fold.final_fold", "partials")
    m["fold.partial_mb"] = total("fold.final_fold", "partial_bytes") / 1e6
    m["models.fit.calls"] = calls("models.fit")
    m["models.fit.s"] = total("models.fit")
    return m


def per_layer(spans, traced: list[dict], untraced: list[dict],
              kernels: dict, cores: int) -> dict:
    """Per-layer metrics: medians over the traced ops, the kernel timings,
    and the tracing overhead against the untraced ops of the same run."""
    tracker = spans.sc.statusTracker()
    per_op = []
    for op in traced:
        recs = spans.of_op(op["label"])
        for r in recs:
            r["jobs_incl"] = len(tracker.getJobIdsForGroup(r["group"]))
        for r in reversed(recs):  # a child span is recorded after its parent
            if r["parent"] is not None:
                spans.records[r["parent"]]["jobs_incl"] += r["jobs_incl"]
        per_op.append(_op_layers(op, recs, cores))
    out = {k: statistics.median(m[k] for m in per_op) for k in per_op[0]}
    out.update(kernels)

    def op_wall(ops: list[dict]) -> float:
        # over the warmed-up steps only: the first untraced op runs High and
        # the factorized round for the first time in the process
        return statistics.mean(
            sum(r.get("wall_s", 0.0) for r in o["steps"]
                if r["step"] in TIMED_STEPS)
            for o in ops)

    base = op_wall(untraced)
    out["trace.overhead_pct"] = (op_wall(traced) - base) / base * 100.0
    return out
