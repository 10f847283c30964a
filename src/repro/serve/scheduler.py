"""Fair multi-tenant admission scheduling for ``repro serve``.

PR 6 admitted queries through a single FIFO deque: correct, but blind
to *who* is asking.  One heavy client could fill every queue seat and
every concurrency slot, and a high-priority operator query waited behind
an arbitrary backlog.  :class:`FairScheduler` replaces the deque with a
workload-isolation layer (the Polynesia argument: mixed tenants stay
healthy only when one tenant's load cannot consume another's share):

* **Priorities with anti-starvation aging** — every submit carries a
  ``priority`` in ``[PRIORITY_MIN, PRIORITY_MAX]`` (higher dequeues
  first).  A queued session's *effective* priority grows by one level
  per ``aging_s`` seconds waited, so under a saturating high-priority
  flood a low-priority query is delayed at most roughly
  ``priority-gap x aging_s`` — bounded, never starved.  ``aging_s = 0``
  disables aging (pure priority order).
* **Per-client quotas** — at most ``client_max_queued`` queue seats and
  ``client_max_running`` concurrency slots per ``client_id`` (0 = no
  cap).  The queue quota sheds at submit with a structured
  ``quota-exceeded`` error; the running quota makes a client's queued
  work *ineligible* while its share of slots is full, so other clients'
  queries pass it instead of waiting behind it.
* **Fair tie-breaking** — among sessions whose effective priorities are
  within one level of the best, the scheduler prefers the client with
  the fewest running sessions, then the fewest dequeues so far, then
  global arrival order.  Equal-priority bursts from several clients
  therefore interleave round-robin instead of serving one client's
  burst first.

The scheduler is deliberately **not** self-locking: the coordinator
already serializes admission state under its condition variable, and a
second internal lock would only manufacture ordering questions.  Every
method must be called with that lock held (or from single-threaded
tests).  ``clock`` is injectable so aging is testable without sleeping.

Dequeue and reaping are each one O(queued) pass — the PR 6 reaper's
``deque.remove`` per fired deadline (O(n^2) on deep queues) is gone.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional

from repro.errors import AdmissionRejected, QuotaExceeded
from repro.serve.session import QuerySession

#: Valid priority band; submits outside it are rejected, not clamped
#: (a client asking for priority 99 is confused, not urgent).
PRIORITY_MIN = 0
PRIORITY_MAX = 9
#: Priority of submits that do not ask for one: above explicit
#: background work (0) with room to be outranked either way.
PRIORITY_DEFAULT = 1

#: Clients whose best queued session sits within this many effective
#: priority levels of the global best compete on fairness (fewest
#: running, fewest served) instead of raw priority.
_FAIRNESS_BAND = 1.0


class _ClientState:
    """Mutable per-tenant accounting; lives as long as the service."""

    __slots__ = ("queued", "running", "served", "completed", "quota_rejected")

    def __init__(self) -> None:
        self.queued = 0
        self.running = 0
        self.served = 0  # total dequeues, the round-robin fairness rank
        self.completed = 0
        self.quota_rejected = 0

    def snapshot(self) -> Dict[str, int]:
        return {
            "queued": self.queued,
            "running": self.running,
            "completed": self.completed,
            "quota_rejected": self.quota_rejected,
        }


class FairScheduler:
    """Priority/quota admission queue keyed by ``client_id``."""

    def __init__(
        self,
        max_queue: int,
        max_concurrent: int,
        client_max_running: int = 0,
        client_max_queued: int = 0,
        aging_s: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.max_queue = max(0, int(max_queue))
        self.max_concurrent = max(1, int(max_concurrent))
        self.client_max_running = max(0, int(client_max_running))
        self.client_max_queued = max(0, int(client_max_queued))
        self.aging_s = max(0.0, float(aging_s))
        self._clock = clock
        self._queued: List[QuerySession] = []  # arrival order
        self._clients: Dict[str, _ClientState] = {}
        self._seq = 0
        self.total_running = 0

    # -- bookkeeping -----------------------------------------------------

    def _client(self, client_id: str) -> _ClientState:
        state = self._clients.get(client_id)
        if state is None:
            state = self._clients[client_id] = _ClientState()
        return state

    def __len__(self) -> int:
        return len(self._queued)

    def effective_priority(self, session: QuerySession, now: Optional[float] = None) -> float:
        """Priority plus one level per ``aging_s`` seconds queued."""
        if self.aging_s <= 0:
            return float(session.priority)
        now = self._clock() if now is None else now
        waited = max(0.0, now - getattr(session, "enqueued_at", now))
        return session.priority + waited / self.aging_s

    def _eligible(self, client: _ClientState) -> bool:
        return self.client_max_running <= 0 or client.running < self.client_max_running

    # -- admission -------------------------------------------------------

    def check_admit(self, client_id: str) -> None:
        """Raise the structured shed error one more submit would hit.

        Called, then acted on, under the coordinator's single admission
        lock scope — the check and the matching :meth:`enqueue` are
        atomic with respect to concurrent submits, so the global queue
        bound and the per-client quota can never be overshot by a race.
        """
        client = self._clients.get(client_id)
        queued = client.queued if client else 0
        if self.client_max_queued > 0 and queued >= self.client_max_queued:
            if client:
                client.quota_rejected += 1
            raise QuotaExceeded(
                f"client {client_id!r} already holds {queued} of its "
                f"{self.client_max_queued} queue seat(s)",
                details={
                    "client_id": client_id,
                    "queued": queued,
                    "client_max_queued": self.client_max_queued,
                    "client_max_running": self.client_max_running,
                },
            )
        if len(self._queued) >= self.max_queue:
            raise AdmissionRejected(
                "admission queue is full",
                details={
                    "queued": len(self._queued),
                    "running": self.total_running,
                    "max_queue": self.max_queue,
                    "max_concurrent": self.max_concurrent,
                },
            )

    def enqueue(self, session: QuerySession, force: bool = False) -> None:
        """Seat one validated session (``force`` skips the shed checks —
        the journal-recovery path re-admits sessions that were already
        admitted in a previous process life, whatever today's quotas)."""
        if not force:
            self.check_admit(session.client_id)
        self._seq += 1
        session.sched_seq = self._seq
        session.enqueued_at = self._clock()
        self._client(session.client_id).queued += 1
        self._queued.append(session)

    # -- dequeue ---------------------------------------------------------

    def has_eligible(self) -> bool:
        """Whether :meth:`pop` would find work (slots + quota allowing)."""
        if self.total_running >= self.max_concurrent:
            return False
        return any(
            self._eligible(self._clients[s.client_id]) for s in self._queued
        )

    def pop(self) -> Optional[QuerySession]:
        """Dequeue the next session and charge its client a running slot.

        One pass: the winner maximizes effective priority; clients whose
        best sits within :data:`_FAIRNESS_BAND` of the best compete on
        (fewest running, fewest served, earliest arrival).  Clients at
        their running quota are skipped entirely — their queued work is
        parked, not blocking.
        """
        if self.total_running >= self.max_concurrent:
            return None
        now = self._clock()
        best = None
        best_key = None
        for session in self._queued:
            client = self._clients[session.client_id]
            if not self._eligible(client):
                continue
            eff = self.effective_priority(session, now)
            key = (eff, -client.running, -client.served, -session.sched_seq)
            if best is None:
                best, best_key = session, key
                continue
            # Within the fairness band, the client-load components of the
            # key decide; outside it, raw effective priority does.
            if eff > best_key[0] + _FAIRNESS_BAND:
                best, best_key = session, key
            elif eff >= best_key[0] - _FAIRNESS_BAND and key[1:] > best_key[1:]:
                best, best_key = session, key
        if best is None:
            return None
        self._queued.remove(best)
        client = self._client(best.client_id)
        client.queued -= 1
        client.running += 1
        client.served += 1
        self.total_running += 1
        return best

    def release(self, session: QuerySession) -> None:
        """Return the running slot charged by :meth:`pop`."""
        client = self._client(session.client_id)
        client.running = max(0, client.running - 1)
        self.total_running = max(0, self.total_running - 1)

    def note_terminal(self, session: QuerySession) -> None:
        """Count one finished (any terminal state) session for stats."""
        self._client(session.client_id).completed += 1

    # -- removal ---------------------------------------------------------

    def remove(self, session: QuerySession) -> bool:
        """Drop one still-queued session (client cancel); False if it
        already left the queue (so the caller never terminalizes twice)."""
        try:
            self._queued.remove(session)
        except ValueError:
            return False
        self._client(session.client_id).queued -= 1
        return True

    def reap_fired(self) -> List[QuerySession]:
        """Single pass: remove and return every queued session whose
        cancellation token already fired.  The caller terminalizes (and
        journals) each exactly once; none of them ever cost a slot."""
        fired = [s for s in self._queued if s.token.fired() is not None]
        if not fired:
            return fired
        fired_set = set(id(s) for s in fired)
        self._queued = [s for s in self._queued if id(s) not in fired_set]
        for session in fired:
            self._client(session.client_id).queued -= 1
        return fired

    def drain(self) -> List[QuerySession]:
        """Empty the queue (service shutdown); returns what was queued."""
        drained = self._queued
        self._queued = []
        for session in drained:
            self._client(session.client_id).queued -= 1
        return drained

    # -- observation -----------------------------------------------------

    def queued_sessions(self) -> List[QuerySession]:
        return list(self._queued)

    def client_stats(self) -> Dict[str, Dict[str, int]]:
        """Per-client queued/running/completed/quota_rejected counters."""
        return {
            client_id: state.snapshot()
            for client_id, state in sorted(self._clients.items())
        }

    def stats(self) -> Dict[str, object]:
        return {
            "queued": len(self._queued),
            "running": self.total_running,
            "aging_s": self.aging_s,
            "client_max_running": self.client_max_running,
            "client_max_queued": self.client_max_queued,
            "clients": self.client_stats(),
        }
