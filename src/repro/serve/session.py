"""Query sessions: one submitted query's lifecycle inside the service.

State machine::

    QUEUED -> ADMITTED -> PLANNING -> RUNNING -> DONE
       \\         \\           \\          \\-----> FAILED
        \\         \\           \\---------------> CANCELLED
         \\---------\\---------------------------> TIMED_OUT

Every transition is validated against :data:`TRANSITIONS` under the
session lock, so a race between the session thread finishing and a
``cancel`` request arriving resolves to exactly one terminal state —
the first writer wins, the loser's transition is a no-op (terminal
states accept no successors).  ``done`` is an :class:`threading.Event`
set exactly when a terminal state is entered; ``result`` clients block
on it instead of polling state.

Durable before visible: the terminal writers take an optional ``seal``
callback.  The winner of the terminal race pickles a DONE result once
and calls ``seal(session, state, error, encoded)`` — the coordinator's
journal append, ``encoded`` those bytes or None — *before* the state,
the error or the result becomes observable through :meth:`snapshot` or
``done``, so a client can never be told DONE about an outcome a crash
would lose.
"""

from __future__ import annotations

import pickle
import threading
import time
from typing import Callable, Dict, Mapping, Optional

from repro.errors import (
    DeadlineExceeded,
    QueryCancelled,
    ServiceError,
    error_to_wire,
)
from repro.mapreduce.cancel import CancellationToken

QUEUED = "QUEUED"
ADMITTED = "ADMITTED"
PLANNING = "PLANNING"
RUNNING = "RUNNING"
DONE = "DONE"
FAILED = "FAILED"
CANCELLED = "CANCELLED"
TIMED_OUT = "TIMED_OUT"

TERMINAL_STATES = frozenset({DONE, FAILED, CANCELLED, TIMED_OUT})

#: seal(session, state, error, encoded): make a terminal outcome durable;
#: ``encoded`` is the pickled DONE result (None for the other states).
Seal = Callable[["QuerySession", str, Optional[dict], Optional[bytes]], None]

#: state -> states it may legally move to.  Terminal states accept
#: nothing: the first terminal transition wins, later ones no-op.
TRANSITIONS: Dict[str, frozenset] = {
    QUEUED: frozenset({ADMITTED, CANCELLED, TIMED_OUT, FAILED}),
    ADMITTED: frozenset({PLANNING, CANCELLED, TIMED_OUT, FAILED}),
    PLANNING: frozenset({RUNNING, DONE, FAILED, CANCELLED, TIMED_OUT}),
    RUNNING: frozenset({DONE, FAILED, CANCELLED, TIMED_OUT}),
    DONE: frozenset(),
    FAILED: frozenset(),
    CANCELLED: frozenset(),
    TIMED_OUT: frozenset(),
}


class QuerySession:
    """One query's identity, knobs, cancellation token, and lifecycle."""

    def __init__(
        self,
        query_id: str,
        sql: str,
        workload: str = "mobile",
        volume: int = 0,
        seed: int = 0,
        method: str = "ours",
        deadline_s: Optional[float] = None,
        knobs: Optional[Mapping[str, str]] = None,
        client_id: str = "default",
        priority: int = 1,
    ) -> None:
        self.query_id = query_id
        self.sql = sql
        self.workload = workload
        self.volume = volume
        self.seed = seed
        self.method = method
        self.deadline_s = deadline_s
        self.client_id = client_id
        self.priority = priority
        #: Scheduler bookkeeping, stamped by FairScheduler.enqueue().
        self.sched_seq = 0
        self.enqueued_at = time.monotonic()
        #: Pickled size of ``result``, taken from the one encoding the
        #: seal journals, so the result endpoint's oversize check never
        #: re-pickles per poll (and never races a half-assigned result).
        self.result_bytes = 0
        self.knobs: Dict[str, str] = {
            str(k): str(v) for k, v in (knobs or {}).items()
        }
        #: The deadline budget starts at *submission*, so time spent
        #: queued counts against it — a shed-worthy query must not gain
        #: extra life by waiting.
        self.token = CancellationToken(deadline_s=deadline_s, label=query_id)
        self.state = QUEUED
        self.error: Optional[dict] = None  # wire-shaped taxonomy dict
        self.result: Optional[dict] = None
        #: Set by the coordinator once a client has been handed the
        #: terminal payload (the last page, for a paged DONE result):
        #: delivered sessions are the first the retention window evicts.
        self.delivered = False
        self.done = threading.Event()
        self.submitted_at = time.monotonic()
        self.state_times: Dict[str, float] = {QUEUED: 0.0}
        self._lock = threading.Lock()
        #: A terminal writer won the race and is sealing its outcome; the
        #: state it is about to enter is not observable yet.
        self._sealing = False

    # -- transitions -----------------------------------------------------

    def transition(self, new_state: str) -> bool:
        """Move to ``new_state`` if legal; returns whether it happened."""
        if new_state in TERMINAL_STATES:
            return self._finish(new_state)
        with self._lock:
            if self._sealing or new_state not in TRANSITIONS[self.state]:
                return False
            self.state = new_state
            self.state_times[new_state] = time.monotonic() - self.submitted_at
        return True

    def _finish(
        self,
        state: str,
        error: Optional[dict] = None,
        result: Optional[dict] = None,
        seal: Optional[Seal] = None,
    ) -> bool:
        """Enter terminal ``state`` with its outcome, sealed first; False
        when another terminal writer was there before."""
        with self._lock:
            if self._sealing or state not in TRANSITIONS[self.state]:
                return False
            self._sealing = True
        encoded = _encode(result)
        try:
            if seal is not None:
                seal(self, state, error, encoded)
        finally:
            # Visible whatever the seal did: a journal that cannot be
            # written must not leave clients waiting on ``done`` forever.
            with self._lock:
                self.state = state
                self.error = error
                self.result = result
                self.result_bytes = len(encoded or b"")
                self.state_times[state] = time.monotonic() - self.submitted_at
            self.done.set()
        return True

    def complete(self, result: dict, seal: Optional[Seal] = None) -> bool:
        """Terminal success — unless cancel/deadline already won the race
        (results computed after the fire are discarded, not surfaced)."""
        if self.token.fired() is not None:
            return self.finish_from_token(seal)
        return self._finish(DONE, result=result, seal=seal)

    def fail(self, exc: BaseException, seal: Optional[Seal] = None) -> bool:
        """Terminal failure, classified through the error taxonomy."""
        if isinstance(exc, QueryCancelled):
            target = CANCELLED
        elif isinstance(exc, DeadlineExceeded):
            target = TIMED_OUT
        else:
            target = FAILED
        return self._finish(target, error=error_to_wire(exc), seal=seal)

    def finish_from_token(self, seal: Optional[Seal] = None) -> bool:
        """Terminalize a session whose token fired (queue reap, post-run
        race): same classification :meth:`fail` would produce."""
        fired = self.token.fired()
        if fired == "cancelled":
            return self.fail(QueryCancelled(f"{self.query_id}: cancelled"), seal)
        if fired == "deadline":
            return self.fail(
                DeadlineExceeded(f"{self.query_id}: deadline exceeded"), seal
            )
        return self.fail(ServiceError(f"{self.query_id}: session aborted"), seal)

    def restore_terminal(
        self,
        state: str,
        error: Optional[dict] = None,
        result: Optional[dict] = None,
        result_bytes: int = 0,
    ) -> None:
        """Journal-replay path: place a *recovered* session directly into
        a terminal state it reached in a previous process life;
        ``result_bytes`` is the length of the blob ``result`` was read
        from (the bytes :meth:`_finish` encoded).

        Bypasses :data:`TRANSITIONS` deliberately — the transition was
        validated when it originally happened; replay just restates it.
        Only legal before the session is visible to any other thread
        (the coordinator restores sessions before its admitter starts).
        """
        if state not in TERMINAL_STATES:
            raise ValueError(f"restore_terminal needs a terminal state, got {state!r}")
        with self._lock:
            self.state = state
            self.error = error
            self.result = result
            self.result_bytes = result_bytes
            self.state_times[state] = 0.0
        self.done.set()

    # -- observation -----------------------------------------------------

    def snapshot(self) -> dict:
        """Status-endpoint view: everything but the result rows."""
        with self._lock:
            state = self.state
            error = self.error
            state_times = dict(self.state_times)
        remaining = self.token.deadline_s
        return {
            "query_id": self.query_id,
            "state": state,
            "terminal": state in TERMINAL_STATES,
            "error": error,
            "client_id": self.client_id,
            "priority": self.priority,
            "deadline_s": self.deadline_s,
            "deadline_remaining_s": remaining,
            "state_times": state_times,
            "age_s": time.monotonic() - self.submitted_at,
        }


def _encode(result: Optional[dict]) -> Optional[bytes]:
    """A DONE result pickled as a wire frame would carry it; None when
    there is none or it does not pickle."""
    if result is None:
        return None
    try:
        return pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception:
        return None
