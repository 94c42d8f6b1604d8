"""MICE preprocessing: row ids, missing masks, initial mean/mode imputation.

Mirrors line 1 of both Algorithm 1 and 2: every missing value is replaced by
the column mean (continuous) or mode (categorical) so the first cofactor
pass sees a complete dataset; the original missingness is retained in
boolean ``__miss_<attr>`` columns that drive training-set selection and
prediction targets throughout the iterations.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.ring.schema import AttrSchema

MASK_PREFIX = "__miss_"
RID = "__rid"


def mask_col(attr: str) -> str:
    return f"{MASK_PREFIX}{attr}"


@dataclass
class Prepared:
    """Initially-imputed dataset plus metadata shared by all MICE variants."""

    df: DataFrame
    schema: AttrSchema
    incomplete: list[str]
    init_values: dict[str, Any]
    categories: dict[str, list] = field(default_factory=dict)


def prepare(df: DataFrame, schema: AttrSchema, incomplete: list[str],
            categories: dict[str, list] | None = None) -> Prepared:
    """Add ``__rid``/mask columns and impute initial mean/mode values.

    ``df`` holds the schema attributes it has columns for: all of them for a
    prejoined table, the fact attributes for the fact table of a factorized
    plan. Unless ``categories`` is given, also collects the global category
    domain of every categorical attribute (so model parameter vectors stay
    aligned across ``C ± ΔC`` updates, cf. Section 4 — new categories can
    never appear after mode imputation).
    """
    for a in incomplete:
        if a not in schema._index:
            raise ValueError(f"incomplete attribute {a!r} not in schema")
    present = [a for a in schema.names if a in df.columns]
    out = df
    # cast continuous analysis attributes to double once, up front
    for a in present:
        if not schema.is_cat(a):
            out = out.withColumn(a, F.col(a).cast("double"))
    out = out.withColumn(RID, F.monotonically_increasing_id())
    for a in incomplete:
        out = out.withColumn(mask_col(a), F.col(a).isNull())

    cont_inc = [a for a in incomplete if not schema.is_cat(a)]
    cat_inc = [a for a in incomplete if schema.is_cat(a)]
    # loud guard: attributes not declared incomplete must be fully observed,
    # otherwise cofactor lifts would see NaNs mid-iteration. It shares the
    # initial means' job.
    others = [a for a in present if a not in set(incomplete)]
    aggs = [F.avg(F.col(a)).alias(a) for a in cont_inc] + [
        F.sum(F.col(a).isNull().cast("long")).alias(a) for a in others
    ]
    row = out.agg(*aggs).collect()[0] if aggs else None
    bad = [a for a in others if (row[a] or 0) > 0]
    if bad:
        raise ValueError(
            f"attributes {bad} contain nulls but are not declared "
            "incomplete — declare them or pre-impute them"
        )
    init: dict[str, Any] = {}
    for a in cont_inc:
        if row[a] is None:
            raise ValueError(f"continuous attribute {a!r} has no observed values")
        init[a] = float(row[a])
    for a in cat_inc:
        mode = (
            out.filter(F.col(a).isNotNull())
            .groupBy(a)
            .count()
            .orderBy(F.desc("count"), F.asc(a))
            .limit(1)
            .collect()
        )
        if not mode:
            raise ValueError(f"categorical attribute {a!r} has no observed values")
        init[a] = mode[0][a]
    for a, v in init.items():
        out = out.withColumn(a, F.coalesce(F.col(a), F.lit(v)))

    if categories is None:
        categories = {
            a: sorted(r[a] for r in out.select(a).distinct().collect()
                      if r[a] is not None)
            for a in present if schema.is_cat(a)
        }

    # coalesce to core count: downstream partitions inherit this count,
    # so per-attribute delta scans schedule ~2×cores tasks instead of
    # hundreds of near-empty ones (which would dominate Low's runtime)
    dp = out.sparkSession.sparkContext.defaultParallelism
    out = out.coalesce(dp).localCheckpoint(eager=True)
    return Prepared(df=out, schema=schema, incomplete=list(incomplete),
                    init_values=init, categories=categories)
