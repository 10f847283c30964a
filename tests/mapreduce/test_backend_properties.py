"""Property-based ordering invariants of the execution backends.

Every backend promises ``run_tasks(fn, count) == [fn(0), ..., fn(count-1)]``
— results in submission order, each index folded exactly once — for any
task count, any per-task duration skew, and (distributed) any worker
failure point.  Hypothesis drives those dimensions; the distributed
cases run against real in-process worker servers, one of them the test
worker (``fault_worker.py``) whose ``drop`` fault severs every
connection mid-batch (``kill`` would take the test runner with it —
subprocess kill/stall live in ``test_distributed_faults.py``).

Hypothesis is an optional dependency: the whole module skips when it is
not installed.
"""

import threading
import time

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.mapreduce.backend import (  # noqa: E402
    DistributedBackend,
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
)
from repro.mapreduce.config import settings_scope  # noqa: E402
from fault_worker import FaultSpec, FaultyWorkerServer  # noqa: E402
from repro.mapreduce.worker import WorkerServer  # noqa: E402

RELAXED = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def jitter(index: int, seed: int) -> float:
    """Deterministic per-task duration skew (0–3 ms) from the drawn seed:
    enough to shuffle completion order without slowing the suite."""
    return ((index * 2654435761 + seed) % 7) * 0.0005


@given(
    count=st.integers(min_value=0, max_value=40),
    workers=st.integers(min_value=2, max_value=4),
    seed=st.integers(min_value=0, max_value=2**31),
)
@RELAXED
def test_thread_backend_orders_and_folds_once(count, workers, seed):
    backend = ThreadBackend(workers)
    executed = []
    lock = threading.Lock()

    def fn(index):
        time.sleep(jitter(index, seed))
        with lock:
            executed.append(index)
        return ("result", index, index * 3 + 1)

    try:
        results = backend.run_tasks(fn, count)
    finally:
        backend.close()
    assert results == [("result", index, index * 3 + 1) for index in range(count)]
    # No retries exist on the thread backend: exactly one execution each.
    assert sorted(executed) == list(range(count))


@given(
    count=st.integers(min_value=0, max_value=16),
    seed=st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=5, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_process_backend_orders_results(count, seed):
    backend = ProcessBackend(2)

    def fn(index):
        time.sleep(jitter(index, seed))
        return ("result", index, index * 7 + seed % 11)

    try:
        results = backend.run_tasks(fn, count)
    finally:
        backend.close()
    assert results == [("result", index, index * 7 + seed % 11) for index in range(count)]


@given(count=st.integers(min_value=0, max_value=40))
@RELAXED
def test_serial_backend_is_the_reference(count):
    assert SerialBackend().run_tasks(lambda index: index * index, count) == [
        index * index for index in range(count)
    ]


@given(
    count=st.integers(min_value=2, max_value=24),
    fail_after=st.integers(min_value=1, max_value=10),
    retries=st.integers(min_value=0, max_value=3),
    seed=st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_distributed_orders_and_folds_once_under_worker_loss(
    count, fail_after, retries, seed
):
    """Random failure point, random retry budget: submission order and
    exactly-once folding must survive a worker dropping mid-batch.

    The servers run in-process, so the task closure's side effects are
    visible here: every index runs at least once (retries may run one
    more than once — folding, not execution, is what is exactly-once).
    """
    flaky = FaultyWorkerServer(fault=FaultSpec("drop", fail_after)).start()
    healthy = WorkerServer().start()
    backend = DistributedBackend(
        (flaky.address, healthy.address),
        heartbeat_s=0.1,
        connect_timeout_s=2.0,
    )
    executed = []
    lock = threading.Lock()

    def fn(index):
        time.sleep(jitter(index, seed))
        with lock:
            executed.append(index)
        return ("result", index, index * 13 + 1)

    try:
        # The retry budget is read per batch, on the calling thread.
        with settings_scope({"REPRO_TASK_RETRIES": str(retries)}):
            results = backend.run_tasks(fn, count)
    finally:
        backend.close()
        flaky.stop()
        healthy.stop()
    assert results == [("result", index, index * 13 + 1) for index in range(count)]
    assert set(executed) == set(range(count))
