"""Workloads: seeded inputs, the steps of one op, and their output checks.

Every workload runs the same steps on its own dataset, so every metric
exists on every workload:

* ``train_factorized`` — cofactor of the clean join through the dataset's
  factorized plan (``repro.datasets.plans``), then ridge for the target;
* ``train_prejoined``  — the same model via ``cofactor_ring`` over the
  prejoined table;
* ``baseline``/``low``/``high`` — one ``run_mice(iters=1, noise=True)``
  round over the prejoined table with missing values;
* ``factorized_low``   — one ``mice_low_factorized`` round over the fact
  table with missing values.

``TIMED_OP`` is the op of an untraced run. High and the factorized round
run in traced runs only, where their phases and Spark counts are reported.

A round ends with a ``noop`` write of the imputed table, so the lazy output
is forced inside the timed window. Missing values are injected into fact
columns only, so the factorized and materialized rounds impute the same
cells. Each input row carries ``row_key`` so the checks can align outputs
with the ground truth.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import duckdb
import numpy as np
import pandas as pd

import repro.ring.spark_agg as spark_agg
from repro.datasets import flight, inject_missing, retailer
from repro.datasets.plans import flight_plan, retailer_plan
from repro.mice import run_mice
from repro.mice.factorized_low import mice_low_factorized
from repro.models import train_ridge

ROW_KEY = "row_key"
#: rounds timed end to end; High and the factorized round cost more than a
#: run's time budget allows, so they run in traced runs only
ROUNDS = ("baseline", "low")
VARIANTS = (*ROUNDS, "high", "factorized_low")
TIMED_STEPS = ("train_factorized", "train_prejoined", *ROUNDS)
STEPS = (*TIMED_STEPS, "high", "factorized_low")
#: the op of an untraced run: learning takes one to three seconds, so it runs
#: twice, interleaved with the rounds
TIMED_OP = ("train_factorized", "train_prejoined", "baseline",
            "train_factorized", "train_prejoined", "low")
DATASETS = {"flight": (flight, flight_plan), "retailer": (retailer, retailer_plan)}


@dataclass(frozen=True)
class Workload:
    dataset: str
    sf: float
    rate: float
    incomplete: tuple[str, ...]
    #: key and attributes of the ``lift_grouped`` kernel: what the
    #: dataset's first factorized fold groups the fact by
    group_by: tuple[str, ...]
    grouped_attrs: tuple[str, ...]


WORKLOADS = {
    # 25k-row wide fact, every round bound by the per-job floor
    "flight_mice": Workload(
        "flight", sf=0.005, rate=0.2, incomplete=("arr_delay", "diverted"),
        group_by=("route_id",), grouped_attrs=tuple(flight.FACT_ATTRS),
    ),
    # 50k-row narrow fact in a 5-table snowflake: factorized folds and
    # keyed triples do most of the work
    "retailer_normalized": Workload(
        "retailer", sf=0.05, rate=0.2,
        incomplete=("inventoryunits",),
        group_by=("locn", "dateid"),
        grouped_attrs=tuple(retailer.FACT_ATTRS + retailer.ITEM_ATTRS),
    ),
}


class CheckFailed(Exception):
    """An op's output failed a correctness check."""


def require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


@dataclass
class Inputs:
    """One workload's seeded inputs, loaded and checkpointed in Spark."""

    wl: Workload
    seed: int
    ds: object
    plan: object
    truth: pd.DataFrame      # clean incomplete columns, indexed by row_key
    mask: pd.DataFrame       # True where a cell was masked, same index
    joined: pd.DataFrame     # clean prejoined table
    sdf: dict                # name -> checkpointed Spark DataFrame
    reference: tuple         # DuckDB (N, SUM, SUM²) of the target

    @property
    def schema(self):
        return self.ds.schema

    @property
    def target(self) -> str:
        return self.ds.target


def build_inputs(spark, wl: Workload, seed: int) -> Inputs:
    """Generate, mask and load the workload's tables; build its plan."""
    module, make_plan = DATASETS[wl.dataset]
    ds = module.generate(sf=wl.sf, seed=seed)
    fact = ds.tables[ds.fact].copy()
    fact[ROW_KEY] = np.arange(len(fact), dtype=np.int64)
    masked, mask = inject_missing(fact, list(wl.incomplete), wl.rate, "MCAR",
                                  seed=seed + 1)
    joined = ds.join({**ds.tables, ds.fact: fact})
    frames = {
        "fact_clean": fact,
        "fact_masked": masked,
        "joined_clean": joined,
        "joined_masked": ds.join({**ds.tables, ds.fact: masked}),
    }
    sdf = {k: spark.createDataFrame(v).localCheckpoint(eager=True)
           for k, v in frames.items()}
    t = ds.target
    reference = duckdb.query_df(
        joined, "j", f"SELECT count(*), sum({t}), sum({t} * {t}) FROM j"
    ).fetchone()
    mask.index = fact[ROW_KEY].to_numpy()
    return Inputs(
        wl=wl, seed=seed, ds=ds, plan=make_plan(spark, ds),
        truth=fact.set_index(ROW_KEY)[list(wl.incomplete)], mask=mask,
        joined=joined, sdf=sdf, reference=tuple(float(x) for x in reference),
    )


# ------------------------------------------------------------------ steps --
def train_factorized(inp: Inputs):
    triple = inp.plan.cofactor(inp.sdf["fact_clean"])
    return triple, train_ridge(triple, inp.target, l2=1e-3)


def train_prejoined(inp: Inputs):
    triple = spark_agg.cofactor_ring(inp.sdf["joined_clean"], inp.schema)
    return triple, train_ridge(triple, inp.target, l2=1e-3)


def mice_round(inp: Inputs, variant: str, timing=None):
    """One MICE iteration of ``variant``; returns the (unforced) result."""
    inc = list(inp.wl.incomplete)
    if variant == "factorized_low":
        return mice_low_factorized(inp.sdf["fact_masked"], inp.plan, inc,
                                   iters=1, noise=True, seed=inp.seed,
                                   timing=timing)
    return run_mice(inp.sdf["joined_masked"], inp.schema, inc, variant=variant,
                    iters=1, noise=True, seed=inp.seed, timing=timing)


def force(df) -> None:
    df.write.format("noop").mode("overwrite").save()


# ----------------------------------------------------------------- checks --
def check_train(inp: Inputs, triple, model) -> None:
    """The triple matches DuckDB on the target's N, SUM, SUM²; θ is finite."""
    t = inp.target
    got = (triple.n, triple.sum_of(t), triple.q_of(t, t))
    for g, want, what in zip(got, inp.reference, ("N", "SUM", "SUM²")):
        require(math.isclose(g, want, rel_tol=1e-9, abs_tol=1e-6),
                f"{what}({t}) = {g}, DuckDB says {want}")
    require(bool(np.isfinite(model.theta).all()), "ridge weights not finite")


def check_same_triple(factorized, prejoined) -> None:
    require(factorized.allclose(prejoined, rtol=1e-7, atol=1e-4),
            "factorized triple differs from the prejoined ring triple")


def check_round(inp: Inputs, result) -> float:
    """Check an imputed table and return its RMSE over masked cells of the
    continuous columns, in the columns' own units, averaged over columns.

    Not divided by the column's std: at these scale factors the std of a
    generated column swings with the seed (Retailer's ``inventoryunits``
    follows a dozen census populations), while the noise a good model
    cannot remove does not."""
    inc = list(inp.wl.incomplete)
    out = result.df.select(ROW_KEY, *inc).toPandas().set_index(ROW_KEY)
    require(len(out) == len(inp.truth),
            f"rows in {len(inp.truth)} != rows out {len(out)}")
    out = out.sort_index()
    require(out.index.equals(inp.truth.index), "row keys changed")
    schema = inp.schema
    errors = []
    for c in inc:
        col, true, miss = out[c], inp.truth[c], inp.mask[c]
        require(bool(col.notna().all()), f"nulls left in {c}")
        require(bool((col[~miss].to_numpy() == true[~miss].to_numpy()).all()),
                f"observed cells of {c} changed")
        if schema.is_cat(c):
            require(bool(col.isin(true.unique()).all()),
                    f"{c} imputed outside its domain")
        elif miss.any():
            diff = col[miss].to_numpy(dtype=float) - true[miss].to_numpy(dtype=float)
            errors.append(math.sqrt(float(np.mean(diff ** 2))))
    rmse = float(np.mean(errors))
    require(math.isfinite(rmse), f"impute_rmse is {rmse}")
    return rmse
