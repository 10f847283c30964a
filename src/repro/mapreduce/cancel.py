"""Cooperative cancellation: deadline budgets and cancel tokens.

One :class:`CancellationToken` travels (implicitly, as the ``token`` of
the query's :class:`~repro.mapreduce.config.QueryContext`, set with
``query_scope(token=...)``) with a query from
the ``repro serve`` session that created it down through every layer
that does work on the session's thread:

* the plan executor checks it between ready waves,
* the simulated runtime checks it between map chunks and bucket ranges,
* the distributed backend checks it between task dispatches — a fired
  token stops dispatchers from pulling new indices and **abandons**
  in-flight work instead of retrying it (a dead-by-deadline query must
  not spend the fleet's retry budget).

The token is *cooperative*: nothing is interrupted mid-task.  That is a
feature — tasks are short (one map chunk, one reduce bucket), so the
reaction latency is bounded by one task plus, on the distributed
backend, one heartbeat window, while results produced before the fire
stay bit-identical to an uncancelled run.

The context lives in a ``contextvars.ContextVar``, and a new thread
starts with an empty context: backend pool/dispatcher threads do *not*
inherit the token (they check it through the closure the dispatch loop
captured instead — see ``DistributedBackend._dispatch``), and a forked
pool worker starts its tasks from an empty context too.
``check_cancelled()`` is therefore a safe no-op inside forked workers,
thread pools, and remote daemons.
"""

from __future__ import annotations

import threading
import time
from typing import Optional

from repro.errors import DeadlineExceeded, QueryCancelled
from repro.mapreduce.config import CURRENT_QUERY


class CancellationToken:
    """One query's cancel flag + optional monotonic deadline."""

    __slots__ = ("label", "_deadline", "_cancelled", "_reason", "_lock")

    def __init__(
        self, deadline_s: Optional[float] = None, label: str = "query"
    ) -> None:
        self.label = label
        self._deadline = (
            time.monotonic() + deadline_s if deadline_s and deadline_s > 0 else None
        )
        self._cancelled = threading.Event()
        self._reason = "cancelled"
        self._lock = threading.Lock()

    # -- firing ----------------------------------------------------------

    def cancel(self, reason: str = "cancelled") -> None:
        """Fire the token as *cancelled* (idempotent; first reason wins)."""
        with self._lock:
            if not self._cancelled.is_set():
                self._reason = reason
                self._cancelled.set()

    # -- observation -----------------------------------------------------

    @property
    def deadline_s(self) -> Optional[float]:
        """Seconds of budget remaining; ``None`` when no deadline is set."""
        if self._deadline is None:
            return None
        return self._deadline - time.monotonic()

    def fired(self) -> Optional[str]:
        """``"cancelled"`` / ``"deadline"`` when the token has fired, else
        ``None``.  Cancellation outranks an expired deadline (an explicit
        cancel is the stronger, earlier-observed signal)."""
        if self._cancelled.is_set():
            return "cancelled"
        if self._deadline is not None and time.monotonic() >= self._deadline:
            return "deadline"
        return None

    def check(self) -> None:
        """Raise the taxonomy error matching a fired token; else no-op."""
        state = self.fired()
        if state == "cancelled":
            raise QueryCancelled(f"{self.label}: {self._reason}")
        if state == "deadline":
            raise DeadlineExceeded(f"{self.label}: deadline exceeded")


# ----------------------------------------------------------------------
# the cooperative checkpoint
# ----------------------------------------------------------------------


def check_cancelled() -> None:
    """Raise if the active query's token (if any) has fired.

    The cooperative checkpoint the runtime/executor layers call between
    independent work items; free when no query scope is active.
    """
    token = CURRENT_QUERY.get().token
    if token is not None:
        token.check()
