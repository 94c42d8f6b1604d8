"""MICE with observed-count partitioning (paper's HIGH variant).

The complete partition (every incomplete attribute observed) contributes the
same Triple to every training set, so its cofactor is computed once outside
the loop. Per attribute the training cofactor is the precomputed complete
part plus one fresh unioned scan of two small partitions: the subpartition
whose only observed attribute is the target, and the ≥2-observed overflow
filtered to rows where the target is observed. At high missing rates those
partitions shrink, making training cheap; updates touch only the non-empty
partitions holding rows with the target missing.
"""
from __future__ import annotations

from functools import partial

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.ring import cofactor_ring
from repro.ring.schema import AttrSchema
from .baseline import MiceResult
from .low import union_cofactor
from .partition import partition
from .prep import mask_col, prepare
from .step import apply_imputation, attr_seed, fit
from .timing import TimingLog


def mice_high(
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
    """Run the HIGH variant (shared complete-part cofactor + partition pruning)."""
    timing = timing or TimingLog()
    ring = partial(cofactor_ring, schema=schema)
    with timing.time("preprocess.prepare"):
        prep = prepare(df, schema, incomplete)
    with timing.time("preprocess.partition"):
        parts = partition(prep, mode="high")
    with timing.time("preprocess.complete_cofactor"):
        c_complete = union_cofactor(
            [(parts.complete, parts.count_of("complete"))], ring, schema
        )

    for it in range(iters):
        for ai, attr in enumerate(incomplete):
            with timing.time("iter.cofactor"):
                c_train = c_complete + union_cofactor([
                    (parts.single[attr], parts.count_of(attr)),
                    (parts.overflow.filter(~F.col(mask_col(attr))),
                     parts.count_of("overflow")),
                ], ring, schema)
            with timing.time("iter.train"):
                model = fit(c_train, attr, prep, l2=l2)
            if model is None:
                continue
            s = attr_seed(seed, it, ai)
            with timing.time("iter.update"):
                # rows with `attr` missing live in: every other single-observed
                # subpartition, the overflow (masked rows), and `none`.
                for j, other in enumerate(prep.incomplete):
                    if other != attr and parts.count_of(other) != 0:
                        parts.single[other] = apply_imputation(
                            parts.single[other], model, attr, prep, s + 3 + j, noise
                        )
                if parts.count_of("overflow") != 0:
                    parts.overflow = apply_imputation(
                        parts.overflow, model, attr, prep, s + 1, noise
                    )
                if parts.count_of("none") != 0:
                    parts.none = apply_imputation(
                        parts.none, model, attr, prep, s + 2, noise
                    )
    return MiceResult(df=parts.union_all(), timing=timing, prep=prep)
