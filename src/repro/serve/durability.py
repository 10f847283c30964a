"""The coordinator's session ledger: which sessions exist, which outcomes
are durable, which finished ones stay addressable.

:class:`SessionLedger` owns the three things a ``repro serve`` restart or
a long uptime must not lose track of:

* the **registry** — query id -> :class:`QuerySession`, and the next id;
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

from collections import OrderedDict
from typing import Callable, Dict, Optional

from repro.errors import ServiceError
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

    def admit(self, session: QuerySession) -> None:
        """Register a new session, durable before visible: once the
        client holds this query id, a crash-and-recover coordinator still
        knows the query — and re-admits it under its original client and
        priority."""
        self.sessions[session.query_id] = session
        self.append(
            {
                "kind": "submit",
                "id": session.query_id,
                "spec": {
                    "sql": session.sql,
                    "workload": session.workload,
                    "volume": session.volume,
                    "seed": session.seed,
                    "method": session.method,
                    "deadline_s": session.deadline_s,
                    "knobs": dict(session.knobs),
                    "client_id": session.client_id,
                    "priority": session.priority,
                },
            }
        )

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
                specs[qid] = record.get("spec") or {}
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
        for qid in order:
            if qid in expired:
                done = terminals[qid].get("state") == DONE
                self.recovered["done" if done else "other_terminal"] += 1
                self.evicted += 1
                continue
            spec = specs[qid]
            try:
                priority = int(spec.get("priority", PRIORITY_DEFAULT))
            except (TypeError, ValueError):
                priority = PRIORITY_DEFAULT
            session = QuerySession(
                query_id=qid,
                sql=str(spec.get("sql", "")),
                workload=str(spec.get("workload", "mobile")),
                volume=int(spec.get("volume", 0) or 0),
                seed=int(spec.get("seed", 0) or 0),
                method=str(spec.get("method", "ours")),
                deadline_s=spec.get("deadline_s"),
                knobs=spec.get("knobs") or {},
                client_id=str(spec.get("client_id") or "default"),
                priority=min(PRIORITY_MAX, max(PRIORITY_MIN, priority)),
            )
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
        for qid in terminals:  # journal order: oldest terminal first
            if qid in restored:
                self.retain_terminal(restored[qid])
        self.recovered["records"] = len(records)
        self.recovered["torn"] = bool(torn)
