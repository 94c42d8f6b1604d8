"""Factorized plans and MICE over normalized data (Figure 6 machinery)."""
import numpy as np
import pytest
from pyspark.sql import functions as F

from repro.datasets import flight, inject_missing, retailer
from repro.datasets.plans import flight_plan, retailer_plan
from repro.mice import mice_low
from repro.mice.factorized_low import mice_low_factorized
from repro.ring import cofactor_ring

FL_INCOMPLETE = ["arr_delay", "taxi_out", "diverted"]
#: Spark jobs of one noise-free round on ``fl_masked``, as measured when the
#: gate was added; a change may lower them, never raise them
LOW_ROUND_JOBS = 41
FACTORIZED_ROUND_JOBS = 64


@pytest.fixture(scope="module")
def fl(spark):
    ds = flight.generate(sf=0.0004, seed=21)
    return dict(ds=ds, plan=flight_plan(spark, ds),
                fact=spark.createDataFrame(ds.tables["flights"]))


@pytest.fixture(scope="module")
def fl_masked(spark, fl):
    """Flight with three fact columns 30 % MCAR, so the overflow and
    all-missing partitions are non-empty; ``row_key`` identifies a row."""
    ds = fl["ds"]
    fact = ds.tables["flights"]
    fact = fact.assign(row_key=np.arange(len(fact)))
    masked, _ = inject_missing(fact, FL_INCOMPLETE, 0.3, "MCAR", seed=5)
    joined = ds.join(dict(ds.tables, flights=masked))
    return dict(rows=len(masked), fact=spark.createDataFrame(masked),
                joined=spark.createDataFrame(joined))


@pytest.fixture(scope="module")
def rt(spark):
    ds = retailer.generate(sf=0.005, seed=22)
    return dict(ds=ds, plan=retailer_plan(spark, ds),
                fact=spark.createDataFrame(ds.tables["inventory"]))


class TestPlansCofactor:
    def test_flight_plan_matches_materialized(self, spark, fl):
        ds = fl["ds"]
        fac = fl["plan"].cofactor(fl["fact"])
        mat = cofactor_ring(spark.createDataFrame(ds.joined()), ds.schema)
        assert fac.allclose(mat, rtol=1e-6, atol=1e-2)

    def test_retailer_plan_matches_materialized(self, spark, rt):
        ds = rt["ds"]
        fac = rt["plan"].cofactor(rt["fact"])
        mat = cofactor_ring(spark.createDataFrame(ds.joined()), ds.schema)
        assert fac.allclose(mat, rtol=1e-6, atol=1e-2)

    def test_flight_plan_attr_subset(self, spark, fl):
        ds = fl["ds"]
        attrs = ["distance", "airtime", "base_dist", "fleet_age"]
        plan = flight_plan(spark, ds, attrs=attrs)
        fac = plan.cofactor(fl["fact"])
        mat = cofactor_ring(spark.createDataFrame(ds.joined()), ds.schema,
                            attrs=attrs)
        assert fac.allclose(mat, rtol=1e-6, atol=1e-2)

    def test_enrich_adds_dim_attributes(self, fl):
        enriched = fl["plan"].enrich(fl["fact"])
        assert "base_dist" in enriched.columns
        assert "otp_score" in enriched.columns
        assert enriched.count() == fl["fact"].count()

    def test_retailer_enrich_no_fanout(self, rt):
        enriched = rt["plan"].enrich(rt["fact"])
        assert enriched.count() == rt["fact"].count()
        assert "population" in enriched.columns


class TestFactorizedMice:
    def test_matches_materialized_mice(self, spark, rt):
        """Same imputations from normalized and pre-joined execution."""
        ds = rt["ds"]
        fact_pdf = ds.tables["inventory"]
        masked, mask = inject_missing(fact_pdf, ["inventoryunits"], 0.2,
                                      "MCAR", seed=3)
        fact_sdf = spark.createDataFrame(masked)
        res_f = mice_low_factorized(fact_sdf, rt["plan"], ["inventoryunits"],
                                    iters=1, noise=False)
        out_f = res_f.df.orderBy("locn", "dateid", "ksn", "__rid").toPandas()

        tables = dict(ds.tables)
        tables["inventory"] = masked
        joined = ds.join(tables)
        res_m = mice_low(spark.createDataFrame(joined), ds.schema,
                         ["inventoryunits"], iters=1, noise=False)
        out_m = (
            res_m.df.orderBy("locn", "dateid", "ksn", "__rid").toPandas()
        )
        np.testing.assert_allclose(
            out_f["inventoryunits"].to_numpy(),
            out_m["inventoryunits"].to_numpy(),
            rtol=1e-5, atol=1e-3,
        )

    def test_flight_matches_materialized_mice(self, fl, fl_masked):
        """Overflow and all-missing partitions, LDA predictions through
        ``enrich``, and two iterations: factorized Low ≡ prejoined Low."""
        kw = dict(iters=2, noise=False)
        out_f = mice_low_factorized(fl_masked["fact"], fl["plan"],
                                    FL_INCOMPLETE, **kw).df.toPandas()
        out_m = mice_low(fl_masked["joined"], fl["ds"].schema,
                         FL_INCOMPLETE, **kw).df.toPandas()
        assert len(out_f) == len(out_m) == fl_masked["rows"]
        out_f = out_f.set_index("row_key").sort_index()
        out_m = out_m.set_index("row_key").sort_index()
        assert out_f.index.is_unique
        assert out_f.index.equals(out_m.index)
        for a in ("arr_delay", "taxi_out"):
            np.testing.assert_allclose(out_f[a].to_numpy(), out_m[a].to_numpy(),
                                       rtol=0, atol=1e-6)
        assert (out_f["diverted"].to_numpy() == out_m["diverted"].to_numpy()).all()

    def test_imputation_beats_mean(self, spark, rt):
        ds = rt["ds"]
        fact_pdf = ds.tables["inventory"]
        masked, mask = inject_missing(fact_pdf, ["inventoryunits"], 0.3,
                                      "MCAR", seed=4)
        res = mice_low_factorized(spark.createDataFrame(masked), rt["plan"],
                                  ["inventoryunits"], iters=1, noise=False)
        out = res.df.orderBy("__rid").toPandas().reset_index(drop=True)
        src = masked.reset_index(drop=True)
        miss = mask["inventoryunits"].to_numpy()
        truth = fact_pdf["inventoryunits"].to_numpy()[miss]
        # __rid order == original row order for a driver-created DataFrame
        got = out["inventoryunits"].to_numpy()[miss]
        rmse = np.sqrt(((got - truth) ** 2).mean())
        mean_rmse = np.sqrt(((src["inventoryunits"].mean() - truth) ** 2).mean())
        assert rmse < 0.9 * mean_rmse

    def test_non_fact_attribute_rejected(self, spark, rt):
        with pytest.raises(ValueError, match="fact attribute"):
            mice_low_factorized(rt["fact"], rt["plan"], ["population"])


def _round_jobs(spark, group: str, run) -> int:
    """Spark jobs that ``run()`` issues, counted under its own job group."""
    sc = spark.sparkContext
    sc.setJobGroup(group, group)
    try:
        run()
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
    return len(sc.statusTracker().getJobIdsForGroup(group))


class TestJobCounts:
    """Job count of one Low round, normalized and prejoined: job counts do
    not depend on machine noise, so they gate changes to the loop."""

    def test_low_round(self, spark, fl, fl_masked):
        jobs = _round_jobs(spark, "test-jobs-low", lambda: mice_low(
            fl_masked["joined"], fl["ds"].schema, FL_INCOMPLETE, noise=False))
        assert jobs <= LOW_ROUND_JOBS, jobs

    def test_factorized_low_round(self, spark, fl, fl_masked):
        jobs = _round_jobs(spark, "test-jobs-factorized",
                           lambda: mice_low_factorized(
                               fl_masked["fact"], fl["plan"], FL_INCOMPLETE,
                               noise=False))
        assert jobs <= FACTORIZED_ROUND_JOBS, jobs
