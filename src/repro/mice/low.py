"""MICE Algorithm 2 — computation sharing for low missing rates.

One global cofactor Triple ``C`` is computed over the initially-imputed data
once, outside the loop (excluding the all-missing partition, which belongs
to no training set). Per attribute the training cofactor is derived by ring
subtraction, ``C_train = C − ΔC``, where ``ΔC`` scans only the two small
partitions holding rows with that attribute missing (its single-missing
subpartition plus the ≥2-missing overflow). After imputing, ``C`` is
restored incrementally: ``C = C_train + ΔC'`` with ``ΔC'`` over the freshly
imputed rows — the expensive full-data scan never recurs.

Partition membership is fixed (masks never change), so empty partitions are
skipped without issuing Spark jobs, and each ΔC is a single unioned scan.
"""
from __future__ import annotations

from functools import partial, reduce
from typing import Callable

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.ring import cofactor_ring
from repro.ring.schema import AttrSchema
from repro.ring.triple import Triple
from .baseline import MiceResult
from .partition import partition
from .prep import mask_col, prepare
from .step import attr_seed, fit, impute_column
from .timing import TimingLog


def union_cofactor(pieces: list[tuple[DataFrame, int]],
                   cofactor: Callable[[DataFrame], Triple],
                   schema: AttrSchema) -> Triple:
    """Cofactor of the union of the non-empty ``(df, count)`` pieces."""
    dfs = [df for df, count in pieces if count != 0]
    if not dfs:
        return Triple.zero(schema)
    return cofactor(reduce(DataFrame.unionByName, dfs))


def mice_low(
    df: DataFrame,
    schema: AttrSchema,
    incomplete: list[str],
    *,
    iters: int = 1,
    noise: bool = True,
    seed: int = 0,
    l2: float = 1e-3,
    timing: TimingLog | None = None,
) -> MiceResult:
    """Run Algorithm 2 with the low-missing-rate partitioning."""
    # bound per call, so a rebound `cofactor_ring` (perfbench's tracer) is used
    return _mice_low(
        df, schema, incomplete,
        cofactor=partial(cofactor_ring, schema=schema), enrich=lambda d: d,
        iters=iters, noise=noise, seed=seed, l2=l2, timing=timing,
    )


def _mice_low(df: DataFrame, schema: AttrSchema, incomplete: list[str], *,
              cofactor: Callable[[DataFrame], Triple],
              enrich: Callable[[DataFrame], DataFrame],
              categories: dict[str, list] | None = None, iters: int,
              noise: bool, seed: int, l2: float,
              timing: TimingLog | None) -> MiceResult:
    """Algorithm 2 over ``df``, prejoined or the fact table of a factorized
    plan: ``cofactor`` maps rows of ``df`` to the cofactor Triple of their
    join, ``enrich`` adds the model features ``df`` lacks."""
    timing = timing or TimingLog()
    with timing.time("preprocess.prepare"):
        prep = prepare(df, schema, incomplete, categories)
    with timing.time("preprocess.partition"):
        parts = partition(prep, mode="low")

    def delta_cofactor(attr: str) -> Triple:
        """ΔC over the rows with ``attr`` missing, in one pass (Alg. 2 l. 5/9)."""
        return union_cofactor([
            (parts.single[attr], parts.count_of(attr)),
            (parts.overflow.filter(F.col(mask_col(attr))), parts.count_of("overflow")),
        ], cofactor, schema)

    with timing.time("preprocess.global_cofactor"):
        # C over everything that can appear in a training set (Alg. 2 line 2);
        # the all-missing partition is excluded (never trained on). One pass.
        c_global = union_cofactor([
            (parts.complete, parts.count_of("complete")),
            (parts.overflow, parts.count_of("overflow")),
            *[(parts.single[a], parts.count_of(a)) for a in incomplete],
        ], cofactor, schema)

    for it in range(iters):
        for ai, attr in enumerate(incomplete):
            with timing.time("iter.delta_cofactor"):
                delta = delta_cofactor(attr)
            c_train = (c_global - delta).prune(tol=0.0)
            with timing.time("iter.train"):
                model = fit(c_train, attr, prep, l2=l2)
            if model is None:
                continue
            s = attr_seed(seed, it, ai)

            def imputed(part: DataFrame, offset: int) -> DataFrame:
                col = impute_column(model, attr, prep, s + offset, noise)
                out = enrich(part).withColumn(attr, col)
                # `drop`, as a `select` re-analyses the prediction (~0.1 s)
                out = out.drop(*[c for c in out.columns if c not in part.columns])
                return out.localCheckpoint(eager=True)

            with timing.time("iter.update"):
                # single[attr] is fully recreated; overflow and the
                # all-missing partition are touched only on masked rows.
                if parts.count_of(attr) != 0:
                    parts.single[attr] = imputed(parts.single[attr], 0)
                if parts.count_of("overflow") != 0:
                    parts.overflow = imputed(parts.overflow, 1)
                if parts.count_of("none") != 0:
                    parts.none = imputed(parts.none, 2)
            with timing.time("iter.delta_cofactor"):
                d2 = delta_cofactor(attr)
            c_global = c_train + d2

    return MiceResult(df=parts.union_all(), timing=timing, prep=prep)
