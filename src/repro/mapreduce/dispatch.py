"""Resilience policy of the distributed backend, free of sockets.

Two decisions live here, each with one owner:

* :class:`BatchState` — for one ``run_tasks`` batch: which index a free
  worker takes next (a fresh one, a speculative copy of a straggler, or
  none), what a completion folds, and whether the index of a lost worker
  is re-queued or abandoned.  The backend's dispatcher threads only move
  values between it and the wire, so a test can drive it with no worker
  at all.
* :class:`CircuitBreaker` — across batches: which worker addresses are
  quarantined, and for how long.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Tuple

#: Straggler hedging: an idle dispatcher speculatively re-dispatches an
#: in-flight task once its elapsed time exceeds ``HEDGE_FACTOR`` x the
#: ``HEDGE_QUANTILE``-th completed-task duration of the same batch, with
#: at least ``HEDGE_MIN_SAMPLES`` completions seen (the batch calibrates
#: itself) and at most ``HEDGE_MAX_PER_TASK`` speculative copies per task
#: index (0 turns hedging off).
HEDGE_QUANTILE = 0.95
HEDGE_FACTOR = 3.0
HEDGE_MIN_SAMPLES = 3
HEDGE_MAX_PER_TASK = 1

#: Circuit breaker: ``BREAKER_THRESHOLD`` consecutive batches a worker
#: ends dead open its breaker for ``BREAKER_COOLDOWN_BATCHES`` batches,
#: doubling per consecutive trip (the daemon is quarantined instead of
#: endlessly re-dialed).
BREAKER_THRESHOLD = 3
BREAKER_COOLDOWN_BATCHES = 8


class BatchState:
    """Pending / in-flight / folded indices of one batch (guarded by ``cond``).

    Exactly-once folding: the first completion of an index wins; a
    zombie's or a hedge loser's late duplicate is dropped, so hedging can
    change latency only.  A hedge does not burn the index's retry budget
    (``attempts``): it is extra capacity spent, not a failure observed.
    """

    def __init__(
        self,
        count: int,
        task_retries: int,
        hedging: bool,
        fired: Callable[[], bool] = lambda: False,
    ) -> None:
        self.cond = threading.Condition()
        self.pending: Deque[int] = deque(range(count))
        self.results: Dict[int, object] = {}
        self.attempts = [0] * count
        #: The exception a task raised on a worker; ends the batch.
        self.failure: Optional[BaseException] = None
        self.in_flight = 0
        self._count = count
        self._task_retries = task_retries
        self._hedging = hedging and HEDGE_MAX_PER_TASK > 0
        #: True once the query's cancellation token fired.
        self._fired = fired
        self._durations: List[float] = []  # completed-task wall times
        self._dispatched_at: Dict[int, float] = {}  # index -> primary dispatch
        self._copies: Dict[int, int] = {}  # index -> copies on the wire
        self._hedges: Dict[int, int] = {}  # index -> hedges launched

    def take(self) -> Optional[Tuple[int, bool]]:
        """The next ``(index, is_hedge)`` for a free worker, or ``None``
        when its dispatcher should exit (batch failed, query cancelled,
        or nothing pending and nothing in flight).

        An idle dispatcher must not exit while a peer still holds an index
        in flight: if that peer's worker dies its index is re-queued, and
        this survivor is the one meant to retry it.  The 50 ms poll bounds
        how long an expired deadline goes unnoticed while idling
        — and is where an idle survivor spots a straggler worth hedging.
        """
        with self.cond:
            while True:
                if self.failure is not None or self._fired():
                    return None
                if self.pending:
                    index, is_hedge = self.pending.popleft(), False
                    self.attempts[index] += 1
                    self._dispatched_at[index] = time.monotonic()
                elif self.in_flight == 0:
                    return None
                else:
                    candidate = self._pick_hedge() if self._hedging else None
                    if candidate is None:
                        self.cond.wait(0.05)
                        continue
                    index, is_hedge = candidate, True
                    self._hedges[index] = self._hedges.get(index, 0) + 1
                self._copies[index] = self._copies.get(index, 0) + 1
                self.in_flight += 1
                return index, is_hedge

    def _pick_hedge(self) -> Optional[int]:
        """The most-overdue hedgeable index, or None.  ``cond`` held.

        "Overdue" is quantile-based per the batch's own completed tasks
        (the ``HEDGE_*`` policy at the top of this module)."""
        if len(self._durations) < max(1, HEDGE_MIN_SAMPLES):
            return None
        ordered = sorted(self._durations)
        rank = min(len(ordered) - 1, int(HEDGE_QUANTILE * len(ordered)))
        now = time.monotonic()
        best, best_elapsed = None, ordered[rank] * HEDGE_FACTOR
        for index, started in self._dispatched_at.items():
            if index in self.results or self._copies.get(index, 0) <= 0:
                continue
            if self._hedges.get(index, 0) >= HEDGE_MAX_PER_TASK:
                continue
            elapsed = now - started
            if elapsed > best_elapsed:
                best, best_elapsed = index, elapsed
        return best

    def _landed(self, index: int) -> None:
        self.in_flight -= 1
        self._copies[index] -= 1
        self.cond.notify_all()

    def done(self, index: int, value: object) -> bool:
        """Fold one completion; True when it was the index's first."""
        with self.cond:
            first = index not in self.results
            if first:
                self.results[index] = value
                self._durations.append(time.monotonic() - self._dispatched_at[index])
            self._landed(index)
            return first

    def failed(self, index: int, error: BaseException) -> None:
        """The task itself raised: the batch is over (not retryable)."""
        with self.cond:
            self.failure = error
            self._landed(index)

    def lost(self, index: int) -> None:
        """The worker running ``index`` vanished.  Retry on the survivors
        while budget remains — unless the query is already cancelled or
        past its deadline, in which case the index is *abandoned*:
        re-running work nobody will read would spend fleet capacity other
        queries need.  A hedged index with another copy still on the wire
        is not re-queued either — the survivor IS the retry."""
        with self.cond:
            self._landed(index)
            if (
                not self._fired()
                and index not in self.results
                and self._copies[index] <= 0
                and self.attempts[index] <= self._task_retries
            ):
                self.pending.append(index)

    def missing(self) -> List[int]:
        """Indices no worker resolved (all lost, or retry budget spent)."""
        return [index for index in range(self._count) if index not in self.results]


class CircuitBreaker:
    """Per-worker quarantine: addr -> {failures, trips, open_until}.

    A worker that keeps dying mid-batch trips its breaker and is skipped
    (no dial, no dispatch) until batch number ``open_until``; the cooldown
    doubles with each trip so a flapping daemon costs reconnect churn only
    occasionally, while a recovered one halves its trip count per clean
    batch and soon rejoins at full trust.  ``account(name, delta)`` is the
    backend's counter sink (``breaker_trips`` / ``breaker_skips``).
    """

    def __init__(self, account: Callable[[str, int], None]) -> None:
        self._account = account
        self._lock = threading.Lock()
        self._state: Dict[str, Dict[str, int]] = {}

    def is_open(self, addr: str, batch: int) -> bool:
        """Whether ``addr`` sits out batch number ``batch`` (counted)."""
        with self._lock:
            state = self._state.get(addr)
            skip = state is not None and batch < state["open_until"]
        if skip:
            self._account("breaker_skips", 1)
        return skip

    def record_loss(self, addr: str, batch: int) -> None:
        """Batch ``batch`` ended with ``addr`` dead; trip at
        :data:`BREAKER_THRESHOLD` consecutive losses for an exponentially
        growing number of batches."""
        with self._lock:
            state = self._state.setdefault(
                addr, {"failures": 0, "trips": 0, "open_until": 0}
            )
            state["failures"] += 1
            tripped = state["failures"] >= BREAKER_THRESHOLD
            if tripped:
                state["open_until"] = batch + (
                    BREAKER_COOLDOWN_BATCHES * 2 ** min(state["trips"], 6)
                )
                state["trips"] += 1
                state["failures"] = 0
        if tripped:
            self._account("breaker_trips", 1)

    def record_ok(self, addr: str) -> None:
        """A clean batch on ``addr``: reset its loss streak, decay trust
        debt (trips halve, so past flapping is forgiven gradually)."""
        with self._lock:
            state = self._state.get(addr)
            if state is not None:
                state["failures"] = 0
                state["trips"] //= 2

    def score(self, handles, batch: int) -> None:
        """Score every worker of a finished batch exactly once: ended
        dead is a loss against its address, alive a clean batch."""
        for handle in handles:
            if handle.dead.is_set():
                self.record_loss(handle.addr, batch)
            else:
                self.record_ok(handle.addr)

    def state(self) -> Dict[str, Dict[str, int]]:
        """Snapshot of per-worker breaker state (the service's ``stats`` verb)."""
        with self._lock:
            return {addr: dict(state) for addr, state in self._state.items()}
