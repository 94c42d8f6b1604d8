"""MICE Low over *normalized* data (Section 6.3, Figure 6).

Algorithm 2 unchanged; only the cofactor ring SUM is evaluated differently:
a factorized plan pushes it past the joins, so the wide join is never
materialized. Missing values live in the fact table only (as in the paper's
setup, so the factorized and materialized variants generate identical
imputations); predictions for the (small) missing partitions enrich just
those rows with dimension attributes via broadcast joins.

The comparator is ``mice_low`` over the pre-joined table, whose preprocess
phase pays the join materialization and whose updates rewrite wide rows.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from pyspark.sql import DataFrame

from repro.ring.schema import AttrSchema
from repro.ring.triple import Triple
from .baseline import MiceResult
from .low import _mice_low
# perfbench/spans.py rebinds `fit` in this module by name; the shared loop
# calls it through repro.mice.low, which is traced as well
from .step import fit  # noqa: F401
from .timing import TimingLog


@dataclass
class FactorizedPlan:
    """Dataset-specific factorized evaluation plan.

    ``cofactor(fact_df)`` computes the cofactor Triple of ``fact_df ⋈ dims``
    without materializing the join; ``enrich(fact_df)`` joins dimension
    attributes onto the given (small) fact subset for prediction.
    """

    schema: AttrSchema
    fact_attrs: list[str]
    cofactor: Callable[[DataFrame], Triple]
    enrich: Callable[[DataFrame], DataFrame]
    categories: dict[str, list]


def mice_low_factorized(
    fact: DataFrame,
    plan: FactorizedPlan,
    incomplete: list[str],
    *,
    iters: int = 1,
    noise: bool = True,
    seed: int = 0,
    l2: float = 1e-3,
    timing: TimingLog | None = None,
) -> MiceResult:
    """Algorithm 2 with factorized cofactor evaluation over the join tree."""
    for a in incomplete:
        if a not in plan.fact_attrs:
            raise ValueError(f"{a!r} is not a fact attribute — the factorized "
                             "variant imputes fact columns only")
    return _mice_low(
        fact, plan.schema, incomplete, cofactor=plan.cofactor,
        enrich=plan.enrich, categories=plan.categories,
        iters=iters, noise=noise, seed=seed, l2=l2, timing=timing,
    )
