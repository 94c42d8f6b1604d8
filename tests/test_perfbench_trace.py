"""perfbench's ``--trace 1`` rebinds names by module (``perfbench/spans.py``):
every name it rebinds must exist, and MICE must call through it."""
import importlib
from pathlib import Path

import pytest

from repro.datasets import flight, inject_missing
from repro.datasets.plans import flight_plan
from repro.mice import mice_low
from repro.mice.factorized_low import mice_low_factorized

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def spans():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        yield importlib.import_module("spans")


def test_traced_names_exist(spans):
    for attr, (_, modules) in spans.TRACED.items():
        for name in modules:
            assert hasattr(importlib.import_module(name), attr), f"{name}.{attr}"


def test_low_calls_go_through_traced_names(spark, spans):
    ds = flight.generate(sf=0.0002, seed=4)
    masked, _ = inject_missing(ds.tables["flights"], ["arr_delay"], 0.2,
                               "MCAR", seed=1)
    joined = ds.join(dict(ds.tables, flights=masked))
    log = spans.Spans(spark.sparkContext)
    log.detail = True
    with spans.installed(log):
        mice_low(spark.createDataFrame(joined), ds.schema, ["arr_delay"],
                 noise=False)
        low = [r["name"] for r in log.records]
        mice_low_factorized(spark.createDataFrame(masked),
                            flight_plan(spark, ds), ["arr_delay"], noise=False)
        factorized = [r["name"] for r in log.records[len(low):]]
    assert "ring.cofactor_ring" in low and "models.fit" in low
    assert "fold.final_fold" in factorized and "models.fit" in factorized
