"""Straggler hedging and the per-worker circuit breaker.

Hedging may only ever change *latency*: a speculative duplicate of a
slow task races the original, the first completion folds
(``results.setdefault``), the loser is dropped.  These tests pin that
contract three ways — a deterministic unit drive of ``_dispatch`` over
fake worker handles, a hypothesis sweep over random straggler points and
worker losses, and a live two-daemon integration run with one worker
slowed by fault injection.

The breaker tests cover its state machine directly: trip at N
consecutive batch losses, exponentially growing cooldown, trust decay on
clean batches, and the dial-skip in ``_live_handles``.
"""

import contextlib
import threading
import time

import pytest
from hypothesis import given, settings as hsettings, strategies as st

import conformance
from repro.mapreduce import dispatch as dispatch_mod
from repro.mapreduce.backend import DistributedBackend, close_backends
from repro.mapreduce.worker_handle import WorkerLost


@pytest.fixture(autouse=True)
def _clean_pools():
    yield
    close_backends()


@contextlib.contextmanager
def policy(**overrides):
    """Patch the dispatch policy's hedge/breaker constants for a block
    (a context manager, not the ``monkeypatch`` fixture, so hypothesis
    examples can each enter it)."""
    values = dict(
        HEDGE_QUANTILE=0.5,
        HEDGE_FACTOR=2.0,
        HEDGE_MIN_SAMPLES=2,
        HEDGE_MAX_PER_TASK=1,
        BREAKER_THRESHOLD=3,
        BREAKER_COOLDOWN_BATCHES=4,
    )
    values.update(overrides)
    with pytest.MonkeyPatch.context() as patch:
        for name, value in values.items():
            patch.setattr(dispatch_mod, name, value)
        yield


class FakeHandle:
    """A scripted in-process stand-in for one worker's dispatcher handle."""

    def __init__(self, addr, delays=None, lose_at=()):
        self.addr = addr
        self.delays = delays or {}
        self.lose_at = set(lose_at)
        self.dead = threading.Event()
        self.draining = threading.Event()
        self.ran = []

    def register(self, token, slim, blobs=None, account=None):
        pass

    def run_task(self, token, index):
        if index in self.lose_at:
            self.mark_dead()
            raise WorkerLost(self.addr)
        time.sleep(self.delays.get(index, 0.005))
        self.ran.append(index)
        return (index, self.addr)

    def unregister(self, token):
        pass

    def mark_dead(self):
        self.dead.set()


def dispatch(backend, handles, count, **overrides):
    def local(index):
        return (index, "local")

    with policy(**overrides):
        return backend._dispatch(local, b"", {}, count, handles, None, False, 2)


class TestHedging:
    def test_straggler_is_hedged_and_folds_exactly_once(self):
        backend = DistributedBackend(())
        count = 10
        # Worker a is slow on *every* task, so whichever index it pulls
        # first becomes the straggler; b races through the rest, goes
        # idle with a's index in flight — the hedge trigger state — and
        # folds the hedge copy long before a's primary completes.
        a = FakeHandle("a", delays={index: 0.8 for index in range(count)})
        b = FakeHandle("b")
        out = dispatch(backend, [a, b], count)
        assert [value[0] for value in out] == list(range(count))
        assert backend.counters["hedges_launched"] >= 1
        assert backend.counters["hedge_wins"] >= 1
        # Every folded value came from b: the hedge won the straggler,
        # and a's eventual completion was dropped, not double-folded.
        assert all(value[1] == "b" for value in out)
        assert backend.tasks_in_flight == 0

    def test_hedge_budget_is_bounded_per_task(self):
        backend = DistributedBackend(())
        count = 8
        # Two idle workers compete to hedge the slow worker's one index;
        # the per-task budget must hold at 1 despite the contention.
        handles = [
            FakeHandle("a", delays={index: 0.6 for index in range(count)}),
            FakeHandle("b"),
            FakeHandle("c"),
        ]
        out = dispatch(backend, handles, count, HEDGE_MAX_PER_TASK=1)
        assert [value[0] for value in out] == list(range(count))
        assert backend.counters["hedges_launched"] == 1

    def test_hedging_off_launches_nothing(self):
        backend = DistributedBackend(())
        a = FakeHandle("a", delays={2: 0.4})
        b = FakeHandle("b")
        out = dispatch(backend, [a, b], 6, HEDGE_MAX_PER_TASK=0)
        assert [value[0] for value in out] == list(range(6))
        assert backend.counters["hedges_launched"] == 0

    @hsettings(max_examples=12, deadline=None)
    @given(
        count=st.integers(min_value=4, max_value=9),
        straggler=st.integers(min_value=0, max_value=8),
        lost=st.sets(st.integers(min_value=0, max_value=8), max_size=2),
        lose_straggler_primary=st.booleans(),
    )
    def test_random_straggler_points_never_double_fold(
        self, count, straggler, lost, lose_straggler_primary
    ):
        """Whatever the straggler index, whichever indices die on one
        worker, each index folds exactly once and nothing leaks."""
        straggler = straggler % count
        lost = {index % count for index in lost}
        backend = DistributedBackend(())
        a = FakeHandle(
            "a",
            delays={straggler: 0.25},
            lose_at=lost | ({straggler} if lose_straggler_primary else set()),
        )
        b = FakeHandle("b")  # healthy survivor: retries + hedges land here
        out = dispatch(backend, [a, b], count, HEDGE_MIN_SAMPLES=1)
        assert len(out) == count
        assert [value[0] for value in out] == list(range(count))
        # Exactly-once folding: every value is a real completion, no
        # index resolved twice, no in-flight accounting leaked.
        assert backend.tasks_in_flight == 0
        assert backend.counters["hedge_wins"] <= backend.counters["hedges_launched"]


class TestBreaker:
    def test_trips_at_threshold_with_exponential_cooldown(self):
        backend = DistributedBackend(("x:1",))
        with policy():
            for _ in range(3):
                backend.breaker.record_loss("x:1", backend._batches)
            state = backend.breaker.state()["x:1"]
            assert state["trips"] == 1
            assert state["failures"] == 0  # streak resets on trip
            assert state["open_until"] == backend._batches + 4
            assert backend.counters["breaker_trips"] == 1
            for _ in range(3):
                backend.breaker.record_loss("x:1", backend._batches)
        assert backend.breaker.state()["x:1"]["open_until"] == (
            backend._batches + 8  # cooldown doubles with each trip
        )

    def test_clean_batches_decay_trust_debt(self):
        backend = DistributedBackend(("x:1",))
        with policy():
            for _ in range(6):
                backend.breaker.record_loss("x:1", backend._batches)
        assert backend.breaker.state()["x:1"]["trips"] == 2
        backend.breaker.record_ok("x:1")
        assert backend.breaker.state()["x:1"]["trips"] == 1
        backend.breaker.record_ok("x:1")
        assert backend.breaker.state()["x:1"]["trips"] == 0

    def test_open_breaker_skips_the_dial(self):
        backend = DistributedBackend(("127.0.0.1:9",))
        with backend._lock:
            backend.breaker._state["127.0.0.1:9"] = {
                "failures": 0,
                "trips": 1,
                "open_until": backend._batches + 100,
            }
            live = backend._live_handles()
        assert live == []
        assert backend.counters["breaker_skips"] == 1
        # Not even a redial-backoff entry: the breaker pre-empts dialing.
        assert "127.0.0.1:9" not in backend._redial

    def test_losses_recorded_per_batch_end(self):
        backend = DistributedBackend(())
        lossy = FakeHandle("lossy", lose_at={0, 1, 2, 3, 4, 5, 6, 7})
        healthy = FakeHandle("ok")
        out = dispatch(backend, [lossy, healthy], 8, BREAKER_THRESHOLD=1)
        assert [value[0] for value in out] == list(range(8))
        assert backend.breaker.state()["lossy"]["trips"] == 1
        assert "ok" not in backend.breaker.state() or (
            backend.breaker.state()["ok"]["failures"] == 0
        )


class TestLiveFleet:
    def test_slowed_daemon_is_hedged_around(self, tmp_path):
        """Integration: a real two-daemon fleet where one worker sleeps
        1 s per task mid-batch; the healthy daemon hedges the straggler
        and the batch still folds bit-identically."""
        with conformance.worker_pool(2, faults=[(), ("slow", "4", "1.0")]) as addrs:
            with conformance.execution_env(
                REPRO_CACHE_DIR=str(tmp_path / "cache")
            ), policy(HEDGE_MIN_SAMPLES=3):
                backend = DistributedBackend(tuple(addrs))
                try:

                    def task(index):
                        time.sleep(0.05)
                        return index * index

                    out = backend.run_tasks(task, 12)
                    assert out == [index * index for index in range(12)]
                    assert backend.counters["hedges_launched"] >= 1
                    assert backend.counters["hedge_wins"] >= 1
                    assert backend.tasks_in_flight == 0
                finally:
                    backend.close()
