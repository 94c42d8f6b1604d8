"""Spark engine counters read from outside the program.

Every step of an op runs under its own Spark job group, so its jobs can be
read back from ``StatusTracker``; per-stage task time and input records come
from the status store, which is kept with the UI disabled. Persisted blocks
are read from the block manager's RDD storage info.
"""
from __future__ import annotations


def drain(sc) -> None:
    """Wait until the listener bus has delivered every event to the store."""
    sc._jsc.sc().listenerBus().waitUntilEmpty(10_000)


def group_stats(sc, groups: list[str]) -> dict:
    """Jobs, tasks, busy seconds and input rows of the jobs in ``groups``."""
    tracker = sc.statusTracker()
    store = sc._jsc.sc().statusStore()
    jobs = [j for g in groups for j in tracker.getJobIdsForGroup(g)]
    stages = set()
    for j in jobs:
        info = tracker.getJobInfo(j)
        if info is not None:
            stages.update(info.stageIds)
    tasks, busy_ms, rows = 0, 0, 0
    for s in stages:
        info = tracker.getStageInfo(s)
        if info is None:  # skipped: its shuffle output was reused
            continue
        tasks += info.numCompletedTasks
        try:
            data = store.lastStageAttempt(s)
        except Exception:  # py4j error: no attempt recorded for the stage
            continue
        busy_ms += data.executorRunTime()
        rows += data.inputRecords()
    return {"jobs": len(jobs), "tasks": tasks, "busy_s": busy_ms / 1000.0,
            "input_rows": rows}


def persisted_ids(sc) -> set[int]:
    return {int(k) for k in sc._jsc.getPersistentRDDs().keySet()}


def persisted_mb(sc, ids: set[int]) -> float:
    """Memory plus disk size of the persisted RDDs among ``ids``."""
    total = 0
    for info in sc._jsc.sc().getRDDStorageInfo():
        if info.id() in ids:
            total += info.memSize() + info.diskSize()
    return total / 1e6


def release(sc, keep: set[int]) -> None:
    """Unpersist every persisted RDD not in ``keep``, blocking until gone."""
    rdds = sc._jsc.getPersistentRDDs()
    for k in list(rdds.keySet()):
        if int(k) not in keep:
            rdds.get(k).unpersist(True)
