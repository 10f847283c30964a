"""Fault injection for the distributed backend: lose workers, keep bits.

The coordinator's contract is that worker loss is invisible in the
output: tasks from a dead or frozen worker are retried on the survivors
(or, with nobody left, run locally), results fold exactly once per index
in index order, and the final digest of a real query grid entry stays
bit-identical to the serial reference — *including* a run where a worker
daemon is killed mid-phase (the acceptance scenario).

Worker daemons are real subprocesses; the flaky one is the test worker
(``fault_worker.py``) armed with ``kill`` or ``stall`` on its N-th
task: ``kill`` exits the process the way a crashed host would
(sockets die instantly), ``stall`` freezes every handler including
heartbeats the way a hung host would (only the heartbeat thread can
notice).
"""

import threading

import pytest

import conformance
from repro.mapreduce.backend import DistributedBackend, close_backends
from repro.mapreduce.dispatch import BatchState
from repro.mapreduce.wire import dial

#: Heartbeat fast enough that stall detection doesn't dominate test time.
FAST_HEARTBEAT = 0.2


@pytest.fixture(autouse=True)
def _shutdown_pools():
    yield
    close_backends()


def answers(addr):
    """Whether the daemon at ``addr`` completes a handshake within a
    second (a killed one refuses, a stalled one never replies)."""
    try:
        sock, _info = dial(addr, 1.0)
    except OSError:
        return False
    sock.close()
    return True


def flaky_takes_first(monkeypatch, flaky_addr):
    """Make a fault armed on the flaky daemon's first task fire, whatever
    the dispatcher race: until the flaky daemon's dispatcher has taken an
    index, every other dispatcher waits before taking one, so the first
    batch's first index is the flaky daemon's.  Its peers then retry that
    index once the fault is detected."""
    took = threading.Event()
    take = BatchState.take
    flaky_thread = f"repro-dispatch-{flaky_addr}"

    def flaky_first(state, draining):
        mine = threading.current_thread().name == flaky_thread
        if not mine:
            took.wait(timeout=30.0)
        got = take(state, draining)
        if mine and got is not None:
            took.set()
        return got

    monkeypatch.setattr(BatchState, "take", flaky_first)


def make_backend(addrs, **overrides):
    kwargs = dict(heartbeat_s=FAST_HEARTBEAT, connect_timeout_s=2.0)
    kwargs.update(overrides)
    return DistributedBackend(tuple(addrs), **kwargs)


class TestTaskLevelRetry:
    def test_kill_mid_batch_retries_on_survivor(self):
        """One worker dies after its 3rd task; every index still comes
        back exactly once, in order, computed correctly."""
        table = {"scale": 3}

        def fn(index):
            return index * table["scale"] + 1

        with conformance.worker_pool(2, faults=[("kill", "3"), ()]) as addrs:
            backend = make_backend(addrs)
            try:
                results = backend.run_tasks(fn, 24)
                assert results == [fn(index) for index in range(24)]
                handles = backend._handles
                assert handles[addrs[0]].dead.is_set(), "flaky worker not marked dead"
                assert handles[addrs[1]].alive, "survivor should stay connected"
                # Everything resolved remotely: the survivor absorbed the
                # dead worker's queue, no local fallback was needed.
                assert not backend._noted_degraded
            finally:
                backend.close()

    def test_stall_mid_batch_detected_by_heartbeat(self):
        """A frozen worker answers nothing — not even heartbeats; the
        coordinator must notice via the ping thread and move on."""
        with conformance.worker_pool(2, faults=[("stall", "2"), ()]) as addrs:
            backend = make_backend(addrs)
            try:
                results = backend.run_tasks(lambda index: index * index, 16)
                assert results == [index * index for index in range(16)]
                assert backend._handles[addrs[0]].dead.is_set()
            finally:
                backend.close()

    def test_all_workers_dead_falls_back_locally(self):
        """With every worker gone mid-batch the leftovers run locally —
        still exactly once per index, still in order."""
        with conformance.worker_pool(2, faults=[("kill", "2"), ("kill", "2")]) as addrs:
            backend = make_backend(addrs)
            try:
                results = backend.run_tasks(lambda index: index + 100, 12)
                assert results == [index + 100 for index in range(12)]
                assert backend._noted_degraded  # local fallback happened
            finally:
                backend.close()

    def test_no_workers_at_all_degrades_to_serial(self):
        backend = make_backend(("127.0.0.1:1",), connect_timeout_s=0.2)
        try:
            assert backend.run_tasks(lambda index: index, 5) == list(range(5))
            assert backend._noted_degraded
        finally:
            backend.close()

    def test_restarted_daemon_rejoins_after_backoff(self):
        """A worker restarted on the same host:port must rejoin a
        long-lived coordinator (redial with backoff), not be blacklisted
        for the process lifetime."""
        from repro.mapreduce.worker import WorkerServer

        first = WorkerServer().start()
        port = first.port
        steady = WorkerServer().start()
        backend = make_backend((first.address, steady.address))
        try:
            assert backend.run_tasks(lambda i: i, 4) == [0, 1, 2, 3]
            first.stop()  # the host goes away...
            assert backend.run_tasks(lambda i: i * 2, 4) == [0, 2, 4, 6]
            restarted = WorkerServer(port=port).start()  # ...and comes back
            try:
                for _ in range(6):  # backoff: rejoin within a few batches
                    backend.run_tasks(lambda i: i, 3)
                    handle = backend._handles.get(restarted.address)
                    if handle is not None and handle.alive:
                        break
                handle = backend._handles.get(restarted.address)
                assert handle is not None and handle.alive, (
                    "restarted daemon never rejoined the pool"
                )
            finally:
                restarted.stop()
        finally:
            backend.close()
            steady.stop()

    def test_task_exception_propagates_not_retried(self):
        """A task that *raises* is a result, not a worker fault: the
        exception re-raises at the coordinator with its real type."""
        def boom(index):
            if index == 2:
                raise ValueError("task 2 exploded")
            return index

        with conformance.worker_pool(1) as addrs:
            backend = make_backend(addrs)
            try:
                with pytest.raises(ValueError, match="task 2 exploded"):
                    backend.run_tasks(boom, 6)
            finally:
                backend.close()


class TestMidPhaseKillEquivalence:
    """The acceptance scenario: a full grid entry, bit-identical to
    serial, while a worker daemon dies mid-phase."""

    @pytest.mark.parametrize("query_id", ["mobile-2", "tpch-3"])
    def test_grid_entry_with_mid_phase_kill(self, query_id, monkeypatch):
        # A lone job ships whole, so a grid entry is only a handful of
        # tasks, shared between the daemons as their dispatchers race;
        # the flaky daemon takes the first one (flaky_takes_first), which
        # is the task its fault is armed on, and must really be gone by
        # the end.
        with conformance.worker_pool(2, faults=[("kill", "1"), ()]) as addrs:
            flaky_takes_first(monkeypatch, addrs[0])
            conformance.assert_backend_matches_serial(
                "distributed",
                query_id,
                workers_addrs=addrs,
                REPRO_WORKER_HEARTBEAT_S=FAST_HEARTBEAT,
            )
            assert not answers(addrs[0]), "the flaky daemon never died"
            assert answers(addrs[1])

    def test_grid_entry_with_mid_phase_stall(self, monkeypatch):
        with conformance.worker_pool(2, faults=[("stall", "1"), ()]) as addrs:
            flaky_takes_first(monkeypatch, addrs[0])
            conformance.assert_backend_matches_serial(
                "distributed",
                "mobile-1",
                workers_addrs=addrs,
                REPRO_WORKER_HEARTBEAT_S=FAST_HEARTBEAT,
            )
            assert not answers(addrs[0]), "the flaky daemon never stalled"
            assert answers(addrs[1])
