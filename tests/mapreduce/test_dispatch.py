"""``dispatch.BatchState`` driven directly — no sockets, no threads.

The distributed backend's dispatcher threads only move values between
this object and the wire, so every dispatch decision can be checked by
calling it the way a dispatcher would: ``take`` an index, then report it
``done``, ``lost`` or ``failed``.
"""

import time

import pytest

from repro.mapreduce import dispatch as dispatch_mod
from repro.mapreduce.dispatch import BatchState


def take_all(state):
    taken = []
    while state.pending:
        taken.append(state.take())
    return taken


class TestRequeueOrAbandon:
    def test_lost_worker_requeues_within_the_retry_budget(self):
        state = BatchState(count=2, task_retries=2, hedging=False)
        assert state.take() == (0, False)
        state.lost(0)  # attempt 1 of 1 + 2 retries
        assert list(state.pending) == [1, 0]
        assert state.take() == (1, False)
        state.done(1, "one")
        for attempt in (2, 3):
            assert state.take() == (0, False)
            assert state.attempts[0] == attempt
            state.lost(0)
        # Third loss: the budget (1 try + 2 retries) is spent — the index
        # is left for the caller's local fallback, not queued again.
        assert not state.pending
        assert state.in_flight == 0
        assert state.take() is None
        assert state.missing() == [0]

    def test_fired_token_abandons_instead_of_requeueing(self):
        fired = []
        state = BatchState(3, task_retries=5, hedging=False, fired=lambda: bool(fired))
        assert state.take() == (0, False)
        fired.append("deadline")
        state.lost(0)
        assert 0 not in state.pending  # abandoned: nobody will read it
        assert state.take() is None  # and nothing new is pulled
        assert state.missing() == [0, 1, 2]

    def test_task_error_ends_the_batch(self):
        state = BatchState(3, task_retries=2, hedging=False)
        index, _ = state.take()
        boom = ValueError("boom")
        state.failed(index, boom)
        assert state.failure is boom
        assert state.in_flight == 0
        assert state.take() is None  # peers stop pulling too


class TestExactlyOnceFold:
    def test_first_completion_wins_and_a_late_duplicate_is_dropped(self):
        state = BatchState(1, task_retries=1, hedging=False)
        index, _ = state.take()
        state.lost(index)  # presumed dead ...
        assert state.take() == (0, False)  # ... retried elsewhere
        assert state.done(0, "retry") is True
        assert state.done(0, "zombie") is False  # the first worker resurfaces
        assert state.results == {0: "retry"}


class TestHedging:
    @pytest.fixture(autouse=True)
    def _policy(self, monkeypatch):
        monkeypatch.setattr(dispatch_mod, "HEDGE_MIN_SAMPLES", 1)
        monkeypatch.setattr(dispatch_mod, "HEDGE_QUANTILE", 0.5)
        monkeypatch.setattr(dispatch_mod, "HEDGE_FACTOR", 2.0)
        monkeypatch.setattr(dispatch_mod, "HEDGE_MAX_PER_TASK", 1)

    def straggling(self):
        """Index 0 folded quickly, index 1 in flight and overdue."""
        state = BatchState(2, task_retries=2, hedging=True)
        assert take_all(state) == [(0, False), (1, False)]
        state.done(0, "fast")
        time.sleep(0.02)  # >> 2 x the one completed duration
        return state

    def test_idle_worker_hedges_the_straggler_and_the_loser_is_dropped(self):
        state = self.straggling()
        assert state.take() == (1, True)
        assert state.attempts[1] == 1  # a hedge is not a retry
        assert state.done(1, "hedge") is True
        assert state.done(1, "primary") is False
        assert state.results == {0: "fast", 1: "hedge"}
        assert state.in_flight == 0

    def test_lost_primary_with_a_live_hedge_is_not_requeued(self):
        state = self.straggling()
        assert state.take() == (1, True)
        state.lost(1)  # the primary's worker dies; the hedge IS the retry
        assert not state.pending
        state.done(1, "hedge")
        assert state.missing() == []

    def test_worker_lost_after_the_fold_requeues_nothing(self):
        state = self.straggling()
        assert state.take() == (1, True)
        state.done(1, "hedge")
        state.lost(1)  # the primary's worker dies with the index folded
        assert not state.pending
        assert state.in_flight == 0
        assert state.take() is None

    def test_hedge_budget_is_one_copy_per_index(self):
        state = self.straggling()
        assert state.take() == (1, True)
        state.done(1, "hedge")  # in_flight 1: the primary is still out
        assert state._pick_hedge() is None
