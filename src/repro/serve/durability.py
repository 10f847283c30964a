"""The coordinator's session ledger: which sessions exist, which outcomes
are durable, which finished ones stay addressable.

:class:`SessionLedger` owns the three things a ``repro serve`` restart or
a long uptime must not lose track of:

* the **registry** — query id -> :class:`QuerySession`, and the next id;
  every spec passes :func:`validate_spec` on submit and again on replay;
* the **journal** — with ``--journal`` one durable record per lifecycle
  event (submit, state, completed-wave checkpoint digest, terminal
  outcome) in an append-only CRC-framed log
  (:class:`~repro.storage.journal.SessionJournal`), and its replay on
  ``--recover``.  A DONE result is a blob in the blob tier and its
  terminal record holds only the digest, so the journal grows with
  events, not with answer volume;
* the **retention window** — finished sessions stay addressable only
  within the newest :data:`RETAINED_SESSIONS` terminal sessions, their
  result rows summing to at most :data:`RETAINED_RESULT_ROWS`.

The registry and the window are guarded by the service's ``_cond``: the
methods marked *caller holds the service lock* are only called under it
(or by recovery, before any other thread exists).
"""

from __future__ import annotations

import math
import os
from collections import OrderedDict
from typing import Callable, Dict, Optional

from repro.baselines import PLANNERS
from repro.errors import AdmissionRejected, ServiceError, error_to_wire
from repro.mapreduce.config import (
    EXEC_BACKEND_ENV,
    EXEC_BACKENDS,
    EXEC_WORKERS_ENV,
    STRICT_FLEET_ENV,
    TASK_RETRIES_ENV,
)
from repro.serve.scheduler import PRIORITY_DEFAULT, PRIORITY_MAX, PRIORITY_MIN
from repro.serve.session import (
    ADMITTED,
    DONE,
    FAILED,
    PLANNING,
    RUNNING,
    TERMINAL_STATES,
    QuerySession,
)
from repro.storage import SessionJournal, blob_digest, blob_tier

#: Retention window for finished sessions: how many terminal sessions
#: stay addressable, and how many result rows they may hold between
#: them.  The newest terminal session is kept whatever its size.
RETAINED_SESSIONS = 32
RETAINED_RESULT_ROWS = 500_000


WORKLOADS = ("mobile", "tpch")

#: Knobs a query may override for its own session, each with the check
#: its value must pass at submit (values arrive as strings or ints).  The
#: fleet address list and the heartbeat/connect timings are deliberately
#: absent: they are state of the one live distributed backend every
#: session shares, fixed when the service starts.
ALLOWED_KNOBS = {
    EXEC_BACKEND_ENV: lambda text: text.strip().lower() in EXEC_BACKENDS,
    EXEC_WORKERS_ENV: lambda text: 0 <= int(text) <= (os.cpu_count() or 1),
    TASK_RETRIES_ENV: lambda text: int(text) >= 0,
    STRICT_FLEET_ENV: lambda text: text in ("0", "1"),
}


def _knob_value_ok(name: str, value: object) -> bool:
    try:
        return ALLOWED_KNOBS[name](str(value))
    except ValueError:
        return False


def _integer(spec: dict, name: str) -> int:
    try:
        return int(spec.get(name, 0) or 0)
    except (TypeError, ValueError, OverflowError):
        raise AdmissionRejected(f"{name!r} must be an integer") from None


def validate_spec(spec: object, default_deadline_s: Optional[float] = None) -> dict:
    """The one check a query spec passes: a live submit and a journal
    replay alike.  Returns the normalized spec — exactly the keyword
    arguments of :class:`QuerySession` beyond its id, and what the
    submit record journals — or raises ``AdmissionRejected``.

    Validation is deliberately cheap (type/enum checks only): load
    shedding must cost O(1) however overloaded the service is.
    """
    if not isinstance(spec, dict):
        raise AdmissionRejected("submit payload must be a dict")
    sql = spec.get("sql")
    if not isinstance(sql, str) or not sql.strip():
        raise AdmissionRejected("submit requires a non-empty 'sql' string")
    workload = spec.get("workload", "mobile")
    if workload not in WORKLOADS:
        raise AdmissionRejected(
            f"unknown workload {workload!r}",
            details={"allowed": list(WORKLOADS)},
        )
    method = spec.get("method", "ours")
    if not isinstance(method, str) or method not in PLANNERS:
        raise AdmissionRejected(
            f"unknown method {method!r}",
            details={"allowed": sorted(PLANNERS)},
        )
    knobs = spec.get("knobs") or {}
    if not isinstance(knobs, dict):
        raise AdmissionRejected("'knobs' must be a dict")
    bad = sorted(str(name) for name in set(knobs) - set(ALLOWED_KNOBS))
    if bad:
        raise AdmissionRejected(
            f"knob(s) not overridable per query: {', '.join(bad)}",
            details={"rejected": bad, "allowed": sorted(ALLOWED_KNOBS)},
        )
    # A typo must not silently run serial, nor an absurd worker count
    # key one more pool into the daemon for its lifetime.
    bad = sorted(name for name in knobs if not _knob_value_ok(name, knobs[name]))
    if bad:
        raise AdmissionRejected(
            "invalid value for knob(s): "
            + ", ".join(f"{name}={knobs[name]!r}" for name in bad),
            details={"rejected": bad},
        )
    deadline_s = spec.get("deadline_s", default_deadline_s)
    if deadline_s is not None:
        if isinstance(deadline_s, bool):
            raise AdmissionRejected("'deadline_s' must be a number")
        try:
            deadline_s = float(deadline_s)
        except (TypeError, ValueError, OverflowError):
            raise AdmissionRejected("'deadline_s' must be a number") from None
        # ``not > 0`` also refuses nan; inf would mean no deadline at all.
        if not 0 < deadline_s < math.inf:
            raise AdmissionRejected("'deadline_s' must be a finite number > 0")
    client_id = spec.get("client_id", "default")
    if not isinstance(client_id, str) or not client_id.strip():
        raise AdmissionRejected("'client_id' must be a non-empty string")
    client_id = client_id.strip()
    if len(client_id) > 128:
        raise AdmissionRejected("'client_id' must be <= 128 characters")
    priority = spec.get("priority", PRIORITY_DEFAULT)
    if (
        not isinstance(priority, int)
        or isinstance(priority, bool)
        or not (PRIORITY_MIN <= priority <= PRIORITY_MAX)
    ):
        raise AdmissionRejected(
            f"'priority' must be an integer in "
            f"[{PRIORITY_MIN}, {PRIORITY_MAX}]",
            details={"min": PRIORITY_MIN, "max": PRIORITY_MAX},
        )
    return {
        "sql": sql,
        "workload": workload,
        "volume": _integer(spec, "volume"),
        "seed": _integer(spec, "seed"),
        "method": method,
        "deadline_s": deadline_s,
        "knobs": {name: str(value) for name, value in knobs.items()},
        "client_id": client_id,
        "priority": priority,
    }


def _is_result(value: object) -> bool:
    """Whether a decoded blob is a DONE result: a dict with list rows."""
    return isinstance(value, dict) and isinstance(value.get("rows"), list)


class SessionLedger:
    def __init__(self, journal_path: Optional[str] = None) -> None:
        self.sessions: Dict[str, QuerySession] = {}
        #: Query ids are ``q1, q2, ...``; an id below this that is not in
        #: ``sessions`` was evicted, which needs no record of its own.
        self.next_id = 1
        self.evicted = 0
        #: Retained terminal sessions, oldest first: query id -> result
        #: rows held.
        self._terminal_rows: "OrderedDict[str, int]" = OrderedDict()
        self._retained_rows = 0
        self.journal: Optional[SessionJournal] = None
        if journal_path is not None:
            self.journal = SessionJournal(journal_path)  # fsync per record
        self._blobs = None
        self.recovered: Dict[str, object] = {
            "records": 0,
            "torn": False,
            "done": 0,
            "other_terminal": 0,
            "resumed": 0,
            "requeued": 0,
            "result_lost": 0,
        }

    # -- journal ---------------------------------------------------------

    def append(self, record: dict) -> None:
        if self.journal is not None:
            self.journal.append(record)

    def _blob_store(self):
        """The blob tier DONE results live in (lazy; a journal-less
        service never touches the cache directory)."""
        if self._blobs is None:
            self._blobs = blob_tier()
        return self._blobs

    def seal(
        self,
        session: QuerySession,
        state: str,
        error: Optional[dict],
        encoded: Optional[bytes],
    ) -> None:
        """Journal a session's terminal outcome (the session calls this
        before the outcome is observable).  This is the one place the
        journal learns an outcome.  A DONE result's pickled bytes
        ``encoded`` go to the blob tier and the record holds their
        digest — None when the put failed, which recovery treats like a
        lost blob: the query re-runs."""
        if self.journal is None:
            return
        digest = None
        if encoded is not None:
            digest = blob_digest(encoded)
            if not self._blob_store().put(digest, encoded):
                digest = None
        self.append(
            {
                "kind": "terminal",
                "id": session.query_id,
                "state": state,
                "error": error,
                "result": digest,
            }
        )

    # -- registry and retention (caller holds the service lock) ----------

    def issue_id(self) -> str:
        query_id = f"q{self.next_id}"
        self.next_id += 1
        return query_id

    def admit(self, session: QuerySession, spec: dict) -> None:
        """Register a new session, durable before visible: once the
        client holds this query id, a crash-and-recover coordinator still
        knows the query — and re-admits it under its original client and
        priority.  ``spec`` is what :func:`validate_spec` returned."""
        self.sessions[session.query_id] = session
        self.append({"kind": "submit", "id": session.query_id, "spec": spec})

    def lookup(self, query_id: object) -> QuerySession:
        session = self.sessions.get(query_id) if isinstance(query_id, str) else None
        if session is not None:
            return session
        details: Dict[str, object] = {"known": sorted(self.sessions)[-8:]}
        number = query_id[1:] if isinstance(query_id, str) else ""
        if (
            number.isdecimal()
            and query_id == f"q{int(number)}"
            and 0 < int(number) < self.next_id
        ):
            # Issued once, gone now: evicted from the retention window.
            details["expired"] = True
        raise ServiceError(f"unknown query id {query_id!r}", details=details)

    @property
    def retained(self) -> int:
        return len(self._terminal_rows)

    def retain_terminal(self, session: QuerySession) -> None:
        """Enter a terminal session into the retention window and evict
        what no longer fits: fully-delivered sessions first, then the
        oldest; never the newest, never a live one."""
        rows = len((session.result or {}).get("rows") or ())
        self._terminal_rows[session.query_id] = rows
        self._retained_rows += rows
        while len(self._terminal_rows) > 1 and (
            len(self._terminal_rows) > RETAINED_SESSIONS
            or self._retained_rows > RETAINED_RESULT_ROWS
        ):
            older = list(self._terminal_rows)[:-1]
            victim = next(
                (qid for qid in older if self.sessions[qid].delivered), older[0]
            )
            self._retained_rows -= self._terminal_rows.pop(victim)
            del self.sessions[victim]
            self.evicted += 1

    # -- recovery (startup only) -----------------------------------------

    def recover(self, enqueue: Callable[[QuerySession], None]) -> None:
        """Fold the journal into live session state.

        Replay is order-tolerant per query id: the submit record carries
        the spec, the *last* state record the frontier, and a terminal
        record (when present) wins outright.  Non-terminal sessions are
        re-created under their original ids with **fresh** deadline
        budgets — a query should not be timed out for the coordinator's
        crash — and handed to ``enqueue`` for normal admission; their
        completed waves come back from the checkpoint tier by content
        key, not from the journal.
        """
        records, torn = self.journal.replay()
        specs: Dict[str, dict] = {}
        states: Dict[str, str] = {}
        terminals: Dict[str, dict] = {}
        order: list = []
        for record in records:
            if not isinstance(record, dict):
                continue
            qid = record.get("id")
            if not isinstance(qid, str):
                continue
            kind = record.get("kind")
            if kind == "submit":
                if qid not in specs:
                    order.append(qid)
                specs[qid] = record.get("spec")
            elif kind == "state":
                states[qid] = str(record.get("state"))
            elif kind == "terminal":
                terminals[qid] = record
        max_id = 0
        for qid in order:
            try:
                max_id = max(max_id, int(qid.lstrip("q")))
            except ValueError:
                pass
        self.next_id = max_id + 1
        # The retention window applies to replay as well: terminal
        # sessions older than the newest RETAINED_SESSIONS are counted
        # but never re-materialised (no result read from the blob tier).
        expired = set([qid for qid in terminals if qid in specs][:-RETAINED_SESSIONS])
        restored: Dict[str, QuerySession] = {}
        rejected: list = []
        for qid in order:
            if qid in expired:
                done = terminals[qid].get("state") == DONE
                self.recovered["done" if done else "other_terminal"] += 1
                self.evicted += 1
                continue
            try:
                spec = validate_spec(specs[qid])
            except AdmissionRejected as exc:
                # A submit record that fails the submit check cannot be
                # re-run: it comes back FAILED with that rejection, and
                # replay goes on with the next record.
                session = QuerySession(query_id=qid, sql="")
                session.restore_terminal(FAILED, error=error_to_wire(exc))
                self.sessions[qid] = restored[qid] = session
                rejected.append(qid)
                self.recovered["other_terminal"] += 1
                continue
            session = QuerySession(query_id=qid, **spec)
            terminal = terminals.get(qid)
            if terminal is not None:
                state = str(terminal.get("state", FAILED))
                if state not in TERMINAL_STATES:
                    state = FAILED
                result, result_bytes = None, 0
                if state == DONE:
                    # A DONE record names its result's blob.  A blob that
                    # is gone, corrupt or no result (and a record of any
                    # other form) is not a lost query: fall through to
                    # re-admission and let deterministic re-execution
                    # rebuild the rows.
                    loaded = self._blob_store().decode(
                        terminal.get("result"), _is_result
                    )
                    if loaded is None:
                        self.recovered["result_lost"] += 1
                        terminal = None
                    else:
                        result, result_bytes = loaded
            if terminal is not None:
                session.restore_terminal(
                    state,
                    error=terminal.get("error"),
                    result=result,
                    result_bytes=result_bytes,
                )
                self.sessions[qid] = restored[qid] = session
                key = "done" if state == DONE else "other_terminal"
                self.recovered[key] += 1
                continue
            self.sessions[qid] = session
            enqueue(session)
            key = (
                "resumed"
                if states.get(qid) in (ADMITTED, PLANNING, RUNNING)
                else "requeued"
            )
            self.recovered[key] += 1
        # Rejected specs first, then terminal records in journal order.
        for qid in dict.fromkeys([*rejected, *terminals]):
            if qid in restored:
                self.retain_terminal(restored[qid])
        self.recovered["records"] = len(records)
        self.recovered["torn"] = bool(torn)
