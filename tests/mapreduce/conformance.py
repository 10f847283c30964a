"""Cross-backend conformance harness: one equivalence grid, every backend.

The execution backend may only change *where* independent map chunks,
bucket ranges, and ready-wave jobs run — never any output, counter, or
simulated time.  This module is the single home of that contract:

* the **grid** — every planner (ours, YSmart, Hive, Pig) on the paper's
  mobile Q1–Q4 plus the TPC-H q3/q5/q7 extensions;
* the **digest** — the full observable outcome of one execution (result
  rows in order, raw composites, makespan, merge time, and every per-job
  metric including shuffle bytes and reducer input bytes);
* the **drivers** — run one (query, planner) under a chosen backend and
  assert its digest is bit-identical to the serial reference;
* the **worker helpers** — spawn real ``repro worker serve`` daemons as
  subprocesses (or the fault-injecting test worker, ``fault_worker.py``)
  for the distributed backend's legs, and the serial reference rows a
  daemon's answer to a SQL query must equal.

``tests/mapreduce/test_exec_backends.py`` parameterizes the grid over
serial|thread|process|distributed, and
``tests/mapreduce/test_distributed_faults.py`` re-runs grid entries
while killing or stalling workers mid-phase; both import everything from
here, replacing the per-backend test copies that existed before.

Serial reference digests and plans are memoized per process: planning is
deterministic, so every backend leg (and every fault-injection re-run)
compares against the same reference without re-paying the planner.
"""

from __future__ import annotations

import contextlib
import os
from functools import lru_cache

from repro.baselines import HivePlanner, PigPlanner, YSmartPlanner
from repro.core.executor import PlanExecutor
from repro.core.planner import ThetaJoinPlanner
from repro.mapreduce.config import PAPER_CLUSTER_KP64, ClusterConfig
from repro.mapreduce.runtime import SimulatedCluster

METHOD_PLANNERS = {
    "ours": ThetaJoinPlanner,
    "ysmart": YSmartPlanner,
    "hive": HivePlanner,
    "pig": PigPlanner,
}

#: The paper's benchmark grid: mobile Q1–Q4 at 20 GB, TPC-H q3/5/7 at 200.
QUERY_IDS = (
    "mobile-1",
    "mobile-2",
    "mobile-3",
    "mobile-4",
    "tpch-3",
    "tpch-5",
    "tpch-7",
)

#: Backends every grid entry must agree across.
BACKENDS = ("serial", "thread", "process", "distributed")


# ----------------------------------------------------------------------
# grid construction (memoized: queries and plans are deterministic)
# ----------------------------------------------------------------------


@lru_cache(maxsize=None)
def grid_query(query_id: str):
    kind, _, number = query_id.partition("-")
    if kind == "mobile":
        from repro.workloads.mobile import mobile_benchmark_query

        return mobile_benchmark_query(int(number), 20)
    if kind == "tpch":
        from repro.workloads.tpch import tpch_benchmark_query

        return tpch_benchmark_query(int(number), 200)
    raise ValueError(f"unknown grid query {query_id!r}")


@lru_cache(maxsize=None)
def grid_plan(query_id: str, planner_name: str):
    planner_cls = METHOD_PLANNERS[planner_name]
    return planner_cls(PAPER_CLUSTER_KP64).plan(grid_query(query_id))


# ----------------------------------------------------------------------
# outcome digest
# ----------------------------------------------------------------------


def outcome_digest(outcome):
    """Everything observable about one execution, hashable-comparable."""
    report = outcome.report
    return (
        tuple(map(tuple, outcome.result.rows)),
        tuple(outcome.composites),
        report.makespan_s,
        report.merge_time_s,
        report.output_records,
        tuple(
            (
                metrics.job_name,
                metrics.num_map_tasks,
                metrics.num_reduce_tasks,
                metrics.map_output_records,
                metrics.map_output_bytes,
                metrics.shuffle_bytes,
                tuple(metrics.reducer_input_bytes),
                metrics.reduce_comparisons,
                metrics.output_records,
                metrics.output_bytes,
                metrics.map_time_s,
                metrics.copy_time_s,
                metrics.reduce_time_s,
                metrics.total_time_s,
            )
            for metrics in report.job_metrics
        ),
    )


# ----------------------------------------------------------------------
# drivers
# ----------------------------------------------------------------------


@contextlib.contextmanager
def execution_env(**overrides):
    """Temporarily set (value) or delete (``None``) ``REPRO_*`` vars."""
    saved = {name: os.environ.get(name) for name in overrides}
    try:
        for name, value in overrides.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = str(value)
        yield
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


def _backend_overrides(backend: str, workers_addrs=(), **extra):
    overrides = {
        "REPRO_EXEC_BACKEND": backend,
        "REPRO_EXEC_WORKERS": "2",
        "REPRO_WORKERS_ADDRS": ",".join(workers_addrs) or None,
    }
    overrides.update(extra)
    return overrides


def run_with_backend(backend: str, query_id: str, planner_name: str,
                     workers_addrs=(), **extra_env):
    """Execute one grid entry under ``backend``; returns its digest."""
    plan = grid_plan(query_id, planner_name)
    query = grid_query(query_id)
    with execution_env(**_backend_overrides(backend, workers_addrs, **extra_env)):
        outcome = PlanExecutor(SimulatedCluster(PAPER_CLUSTER_KP64)).execute(
            plan, query
        )
    return outcome_digest(outcome)


def serial_reference_rows(sql: str, method: str = "ours", volume: int = 0, seed: int = 0):
    """Rows of ``sql`` over the mobile relation set, planned by ``method``
    and run in this process on the serial backend — what a daemon's
    answer to the same query must equal."""
    from repro.relational.sql import parse_join_query
    from repro.workloads import workload_relations

    query = parse_join_query(sql, workload_relations("mobile", volume, seed), name="reference")
    config = ClusterConfig()
    plan = METHOD_PLANNERS[method](config).plan(query)
    outcome = PlanExecutor(SimulatedCluster(config)).execute(plan, query)
    return [tuple(row) for row in outcome.result.rows]


@lru_cache(maxsize=None)
def serial_digest(query_id: str, planner_name: str):
    """The serial reference digest every other backend must reproduce."""
    return run_with_backend("serial", query_id, planner_name)


def assert_backend_matches_serial(backend: str, query_id: str,
                                  workers_addrs=(), **extra_env):
    """One grid row: every planner's digest under ``backend`` must be
    bit-identical to the serial reference."""
    for planner_name in METHOD_PLANNERS:
        expected = serial_digest(query_id, planner_name)
        assert expected[0], (
            f"{query_id}/{planner_name}: degenerate case, no rows"
        )
        got = run_with_backend(
            backend, query_id, planner_name, workers_addrs, **extra_env
        )
        assert got == expected, (
            f"{query_id}/{planner_name}: {backend} backend diverged from serial"
        )


def assert_distributed_really_dispatched(workers_addrs):
    """Guard against a vacuously-green distributed leg: the distributed
    backend of ``workers_addrs`` (the pool the test module spawned) must
    exist and may not have degraded to serial (no reachable workers /
    unshippable closure)."""
    from repro.mapreduce.backend import live_distributed_backend

    backend = live_distributed_backend(workers_addrs)
    assert backend is not None, "no distributed backend was ever created"
    assert not backend._noted_degraded, (
        "distributed backend degraded to serial during the run"
    )


# ----------------------------------------------------------------------
# worker daemons (subprocess helpers)
# ----------------------------------------------------------------------


@contextlib.contextmanager
def worker_pool(count: int = 2, faults=()):
    """``count`` daemons for a ``with`` block; yields their addresses.

    Spawning/teardown mechanics live with the daemon itself
    (:func:`repro.mapreduce.worker.spawn_daemon`); this wrapper only
    adds the pool shape.  When ``faults[i]`` is present, the i-th worker
    is the fault-injecting test worker (``fault_worker.py``) with that
    fault, ``(MODE, AFTER_TASKS[, DELAY_S])`` — how fault-injection
    tests arm exactly one flaky worker in an otherwise healthy pool;
    ``()`` arms none, leaving the ``fault`` verb to the chaos harness.
    """
    from fault_worker import spawn_fault_worker
    from repro.mapreduce.worker import spawn_daemon, stop_daemons

    procs = []
    addrs = []
    try:
        for index in range(count):
            if index < len(faults):
                proc, addr = spawn_fault_worker(*faults[index])
            else:
                proc, addr = spawn_daemon()
            procs.append(proc)
            addrs.append(addr)
        yield addrs
    finally:
        stop_daemons(procs)
