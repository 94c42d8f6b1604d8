"""Benchmark of MICE rounds and of join learning, timed from outside.

Run from the repository root:

    python3 perfbench/run.py --workload flight_mice --seed 1 --seconds 10 --trace 0

Set-up (session start, the median of ``SETUP_REPS`` seeded data set-ups,
one untimed warm-up op) is timed as ``setup_s``. Then ops run, in one
process on ``local[4]``, until ``--seconds`` have passed; an op runs the
workload's timed steps and checks each step's output outside its timed
window. With ``--trace 0`` the last stdout line carries the end-to-end
metrics. With ``--trace 1`` an untraced and a traced op of every step run,
and it carries the per-layer metrics. A JSON record with provenance, per-op
Spark counts and the spans goes to ``.perfbench_out/``.
"""
import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from contextlib import nullcontext  # noqa: E402

CORES = min(4, os.cpu_count() or 1)
DRIVER_MEM = "2g"
SETUP_REPS = 2        # data set-ups per run; setup_s takes their median
DEADLINE_S = 150.0    # start no op that could end after this

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work", str(os.getpid()))
OUT = os.path.join(ROOT, ".perfbench_out")

if not os.path.isfile(os.path.join(SRC, "repro", "mice", "__init__.py")):
    sys.exit("perfbench: src/repro not found; run from the repository root")
sys.path.insert(0, SRC)

import numpy  # noqa: E402
import pandas  # noqa: E402
import pyarrow  # noqa: E402
import pyspark  # noqa: E402
from pyspark import SparkContext  # noqa: E402

from repro.eval.session import get_spark  # noqa: E402
import sparkstats  # noqa: E402
from metrics import END_TO_END, PER_LAYER, end_to_end, per_layer  # noqa: E402
from spans import SpanTimingLog, Spans, installed, kernel_metrics  # noqa: E402
from workloads import (STEPS, TIMED_OP, TIMED_STEPS, WORKLOADS,  # noqa: E402
                       build_inputs, check_round, check_same_triple,
                       check_train, force, mice_round, train_factorized,
                       train_prejoined)


def start_spark():
    """Start ``local[4]`` through the program's own session factory, with
    Spark, JVM and Python temp files kept inside the checkout."""
    os.makedirs(WORK)
    tempfile.tempdir = WORK
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["TMPDIR"] = WORK
    os.environ["SPARK_LOCAL_DIRS"] = WORK
    os.environ["SPARK_MASTER"] = f"local[{CORES}]"
    os.environ["SPARK_DRIVER_MEM"] = DRIVER_MEM
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--driver-memory {DRIVER_MEM} "
        # no hsperfdata file in the system temp directory
        f"--driver-java-options '-Djava.io.tmpdir={WORK} -XX:-UsePerfData' "
        f"--conf spark.local.dir={WORK} "
        f"--conf spark.sql.warehouse.dir={os.path.join(WORK, 'warehouse')} "
        "--conf spark.ui.showConsoleProgress=false "
        "--conf spark.ui.retainedJobs=10000 "
        "--conf spark.ui.retainedStages=20000 "
        "pyspark-shell"
    )
    spark = get_spark("perfbench")
    spark.sparkContext.setLogLevel("ERROR")
    return spark


class Bench:
    """Runs ops of one workload's steps on its loaded inputs."""

    def __init__(self, sc, inp) -> None:
        self.sc = sc
        self.inp = inp
        self.spans = Spans(sc)

    def run_step(self, step: str, traced: bool):
        if step == "train_factorized":
            return train_factorized(self.inp)
        if step == "train_prejoined":
            return train_prejoined(self.inp)
        timing = SpanTimingLog(self.spans, step) if traced else None
        result = mice_round(self.inp, step, timing)
        with self.spans.inner(f"mice.{step}.output"):
            force(result.df)
        return result

    def check_step(self, step: str, out, triples: dict) -> float | None:
        if step.startswith("train_"):
            check_train(self.inp, *out)
            triples[step] = out[0]
            if step == "train_prejoined" and "train_factorized" in triples:
                check_same_triple(triples["train_factorized"], out[0])
            return None
        return check_round(self.inp, out)

    def run_op(self, label: str, steps: tuple[str, ...],
               traced: bool = False) -> dict:
        """Run the steps in order, check outputs, release what each step
        persisted; a step that raises or fails a check fails the op."""
        sc, spans = self.sc, self.spans
        spans.op, spans.detail = label, traced
        op = {"label": label, "traced": traced, "steps": [], "errors": []}
        triples: dict = {}
        with installed(spans) if traced else nullcontext():
            for step in steps:
                keep = sparkstats.persisted_ids(sc)
                rec = {"step": step}
                try:
                    with spans.span(step) as root:
                        t0 = time.perf_counter()
                        out = self.run_step(step, traced)
                        rec["wall_s"] = time.perf_counter() - t0
                    rec["rmse"] = self.check_step(step, out, triples)
                except Exception as e:  # noqa: BLE001 - counted as a failed op
                    op["errors"].append(f"{step}: {type(e).__name__}: {e}")
                sparkstats.drain(sc)
                rec.update(sparkstats.group_stats(sc, spans.subtree_groups(root)))
                rec["persisted_mb"] = sparkstats.persisted_mb(
                    sc, sparkstats.persisted_ids(sc) - keep)
                sparkstats.release(sc, keep)
                op["steps"].append(rec)
        return op


def git_sha() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10,
                              check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None


def src_sha256() -> str:
    h = hashlib.sha256()
    for d, dirs, files in os.walk(SRC):
        dirs[:] = sorted(x for x in dirs if x != "__pycache__")
        for f in sorted(files):
            if f.endswith(".py"):
                p = os.path.join(d, f)
                h.update(os.path.relpath(p, SRC).encode())
                h.update(open(p, "rb").read())
    return h.hexdigest()


def provenance(args, sc, inp) -> dict:
    wl = inp.wl
    return {
        "git_sha": git_sha(), "src_sha256": src_sha256(),
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(), "master": sc.master,
        "driver_memory": sc.getConf().get("spark.driver.memory"),
        "spark": pyspark.__version__, "pyarrow": pyarrow.__version__,
        "numpy": numpy.__version__, "pandas": pandas.__version__,
        "python": sys.version.split()[0], "dataset": wl.dataset, "sf": wl.sf,
        "rate": wl.rate, "incomplete": list(wl.incomplete),
        "rows": {"fact": len(inp.truth), "joined": len(inp.joined)},
    }


def bench(args) -> tuple[dict, dict]:
    spark = start_spark()
    sc = spark.sparkContext
    session_s = time.perf_counter() - T0
    wl = WORKLOADS[args.workload]

    data_s = []
    for rep in range(SETUP_REPS):
        keep = sparkstats.persisted_ids(sc)
        t0 = time.perf_counter()
        inp = build_inputs(spark, wl, args.seed)
        data_s.append(time.perf_counter() - t0)
        if rep < SETUP_REPS - 1:
            sparkstats.release(sc, keep)
    b = Bench(sc, inp)
    t0 = time.perf_counter()
    warmup = b.run_op("warmup", TIMED_STEPS)
    warmup_s = time.perf_counter() - t0
    setup_s = session_s + statistics.median(data_s) + warmup_s

    ops, traced, untraced = [], [], []
    t_loop = time.perf_counter()
    last = warmup_s
    while not ops or (time.perf_counter() - t_loop < args.seconds
                      and time.perf_counter() - T0 + last < DEADLINE_S):
        t0 = time.perf_counter()
        k = len(ops)
        if args.trace:
            # untraced ops on both sides of the traced one, so that the
            # process warming up over the run does not bias the overhead
            ops += [b.run_op(f"op{k}", STEPS),
                    b.run_op(f"op{k + 1}.traced", STEPS, traced=True),
                    b.run_op(f"op{k + 2}", TIMED_STEPS)]
            untraced += [ops[-3], ops[-1]]
            traced.append(ops[-2])
        else:
            ops.append(b.run_op(f"op{k}", TIMED_OP))
        last = time.perf_counter() - t0

    if args.trace:
        metrics = per_layer(b.spans, traced, untraced, kernel_metrics(inp),
                            CORES)
        units = PER_LAYER
    else:
        metrics = end_to_end(ops, setup_s)
        units = END_TO_END
    failed = sum(bool(o["errors"]) for o in ops)
    counts = {o["label"]: [[r["step"], r.get("jobs"), r.get("tasks")]
                           for r in o["steps"]]
              for o in [warmup, *ops]}
    record = {
        "provenance": provenance(args, sc, inp),
        "setup": {"session_s": session_s, "data_s": data_s,
                  "warmup_s": warmup_s, "setup_s": setup_s},
        "counts": counts,
        "ops": [warmup, *ops],
        "spans": b.spans.records if args.trace else [],
    }
    result = {
        "correct": failed == 0 and all(m is not None for m in metrics.values()),
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": metrics.get(k), "unit": u}
                    for k, u in units.items()},
    }
    return result, record


def stop_spark() -> None:
    """Stop the context, then the gateway JVM, and wait for it to exit."""
    sc = SparkContext._active_spark_context
    if sc is not None:
        sc.stop()
    gateway = SparkContext._gateway
    if gateway is not None:
        gateway.shutdown()
        proc = getattr(gateway, "proc", None)
        if proc is not None:
            proc.stdin.close()
            proc.wait(timeout=60)
        SparkContext._gateway = None


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    try:
        result, record = bench(args)
    finally:
        stop_spark()
        shutil.rmtree(WORK, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(WORK))
        except OSError:  # another run is still using it
            pass
    os.makedirs(OUT, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w") as f:
        json.dump(record, f, indent=1, default=str)
    for op in record["ops"]:
        for err in op["errors"]:
            print(f"perfbench: {op['label']}: {err}", file=sys.stderr)
    print(json.dumps({"provenance": record["provenance"],
                      "counts": record["counts"]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
