"""Cancellation-safety invariants of the cooperative token machinery.

The serve layer's promise is that *whenever* a query dies — explicit
cancel, expired deadline, at any point in a batch, with or without a
worker dying at the same time — the backend is left clean:

* in-flight task accounting returns to exactly zero (nothing leaks);
* the fleet stays usable — the very next batch on the same backend
  instance completes with bit-identical, index-ordered results.

Hypothesis drives the cancel point and task-duration skew; the
distributed cases run real in-process :class:`WorkerServer` daemons.
The module skips when hypothesis is not installed.
"""

import threading
import time

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.errors import DeadlineExceeded, QueryCancelled  # noqa: E402
from repro.mapreduce.backend import DistributedBackend, ThreadBackend  # noqa: E402
from repro.mapreduce.cancel import CancellationToken, check_cancelled  # noqa: E402
from repro.mapreduce.config import (  # noqa: E402
    CURRENT_QUERY,
    query_scope,
    settings_scope,
)
from fault_worker import FaultSpec, FaultyWorkerServer  # noqa: E402
from repro.mapreduce.worker import WorkerServer  # noqa: E402

# ----------------------------------------------------------------------
# token semantics (plain unit tests)
# ----------------------------------------------------------------------


def current_token():
    return CURRENT_QUERY.get().token


class TestCancellationToken:
    def test_unfired_token_is_silent(self):
        token = CancellationToken()
        assert token.fired() is None
        token.check()  # no raise

    def test_cancel_raises_query_cancelled(self):
        token = CancellationToken(label="q7")
        token.cancel("operator said so")
        assert token.fired() == "cancelled"
        with pytest.raises(QueryCancelled, match="operator said so"):
            token.check()

    def test_first_cancel_reason_wins(self):
        token = CancellationToken()
        token.cancel("first")
        token.cancel("second")
        with pytest.raises(QueryCancelled, match="first"):
            token.check()

    def test_deadline_fires_and_raises(self):
        token = CancellationToken(deadline_s=0.005)
        time.sleep(0.02)
        assert token.fired() == "deadline"
        with pytest.raises(DeadlineExceeded):
            token.check()

    def test_cancel_outranks_expired_deadline(self):
        token = CancellationToken(deadline_s=0.001)
        time.sleep(0.01)
        token.cancel()
        assert token.fired() == "cancelled"

    def test_scope_is_thread_local_and_reentrant(self):
        outer = CancellationToken(label="outer")
        inner = CancellationToken(label="inner")

        def snapshot(_index=None):
            query = CURRENT_QUERY.get()
            return query.token, dict(query.overrides), query.settings, query.in_task

        assert current_token() is None
        pool = ThreadBackend(2)
        try:
            with query_scope(token=outer), settings_scope({"REPRO_TASK_RETRIES": "7"}):
                assert current_token() is outer
                assert CURRENT_QUERY.get().settings.task_retries == 7
                with query_scope(token=inner):
                    assert current_token() is inner
                assert current_token() is outer
                seen = []
                worker = threading.Thread(target=lambda: seen.append(snapshot()))
                worker.start()
                worker.join()
                # Pool/dispatcher threads must NOT inherit the session's
                # token or knobs; only a pool task is marked in-task.
                assert seen == [(None, {}, None, False)]
                assert pool.run_tasks(snapshot, 4) == [(None, {}, None, True)] * 4
        finally:
            pool.close()
        assert current_token() is None

    def test_check_cancelled_is_noop_without_scope(self):
        check_cancelled()  # must never raise outside a scope


# ----------------------------------------------------------------------
# property: random cancel points leave the backend clean and usable
# ----------------------------------------------------------------------


def _jitter(index: int, seed: int) -> float:
    return ((index * 2654435761 + seed) % 7) * 0.0005


def _run_cancelled_batch(backend, count, seed, cancel_after_s):
    """One batch under a token cancelled from a timer thread; returns the
    outcome kind ('completed' | 'cancelled')."""
    token = CancellationToken(label="prop")
    timer = threading.Timer(cancel_after_s, token.cancel)
    timer.start()

    def fn(index):
        time.sleep(_jitter(index, seed))
        return ("result", index)

    try:
        with query_scope(token=token):
            results = backend.run_tasks(fn, count)
    except QueryCancelled:
        return "cancelled"
    finally:
        timer.cancel()
    assert results == [("result", index) for index in range(count)]
    return "completed"


@given(
    count=st.integers(min_value=2, max_value=30),
    seed=st.integers(min_value=0, max_value=2**31),
    cancel_after_ms=st.integers(min_value=0, max_value=25),
)
@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_random_cancel_points_leave_no_inflight_and_survivors_usable(
    count, seed, cancel_after_ms
):
    workers = [WorkerServer().start(), WorkerServer().start()]
    backend = DistributedBackend(
        tuple(w.address for w in workers),
        heartbeat_s=0.1,
        connect_timeout_s=2.0,
    )
    try:
        _run_cancelled_batch(backend, count, seed, cancel_after_ms / 1000.0)
        # Invariant 1: nothing is left on the wire, whether the batch
        # completed, was abandoned mid-flight, or never started.
        assert backend.tasks_in_flight == 0
        # Invariant 2: the fleet is immediately usable for the next
        # query — full, ordered, bit-identical results, no token.
        follow_up = backend.run_tasks(lambda index: index * 17 + 1, count)
        assert follow_up == [index * 17 + 1 for index in range(count)]
        assert backend.tasks_in_flight == 0
    finally:
        backend.close()
        for worker in workers:
            worker.stop()


@given(
    count=st.integers(min_value=4, max_value=24),
    seed=st.integers(min_value=0, max_value=2**31),
    fail_after=st.integers(min_value=1, max_value=6),
    cancel_after_ms=st.integers(min_value=0, max_value=20),
)
@settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_cancel_racing_worker_loss_still_leaves_zero_inflight(
    count, seed, fail_after, cancel_after_ms
):
    """The worst race: a worker drops its connections *while* the query
    is being cancelled.  Whatever interleaving happens, accounting must
    return to zero and the survivor must serve the next batch."""
    flaky = FaultyWorkerServer(fault=FaultSpec("drop", fail_after)).start()
    healthy = WorkerServer().start()
    backend = DistributedBackend(
        (flaky.address, healthy.address),
        heartbeat_s=0.1,
        connect_timeout_s=2.0,
    )
    try:
        _run_cancelled_batch(backend, count, seed, cancel_after_ms / 1000.0)
        assert backend.tasks_in_flight == 0
        follow_up = backend.run_tasks(lambda index: ("ok", index), count)
        assert follow_up == [("ok", index) for index in range(count)]
        assert backend.tasks_in_flight == 0
    finally:
        backend.close()
        flaky.stop()
        healthy.stop()


def test_expired_deadline_abandons_instead_of_retrying():
    """A dead-by-deadline query must not burn the fleet's retry budget:
    after the token fires, lost/undone indices are abandoned and the
    batch raises ``DeadlineExceeded`` instead of falling back locally."""
    worker = WorkerServer().start()
    backend = DistributedBackend(
        (worker.address,), heartbeat_s=0.1, connect_timeout_s=2.0
    )

    def slow(index):
        time.sleep(0.05)
        return index

    token = CancellationToken(deadline_s=0.08, label="expiring")
    try:
        started = time.monotonic()
        with query_scope(token=token), settings_scope({"REPRO_TASK_RETRIES": "5"}):
            with pytest.raises(DeadlineExceeded):
                backend.run_tasks(slow, 40)
        elapsed = time.monotonic() - started
        assert backend.tasks_in_flight == 0
        # Abandoned, not retried-to-completion: 40 tasks x 50ms on one
        # worker would take ~2s serially; a dead-by-deadline batch must
        # bail out within a couple of dispatcher poll intervals instead.
        assert elapsed < 1.0
    finally:
        backend.close()
        worker.stop()
