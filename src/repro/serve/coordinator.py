"""The ``repro serve`` coordinator daemon.

One long-lived :class:`~repro.mapreduce.wire.FrameServer` (the transport
and frame protocol of the worker daemons: :mod:`repro.mapreduce.wire`)
accepting queries from many clients:

  ==========================================  ===============================
  ``("hello", info)``                          handshake; replies
                                               ``("hello-ack", info)``.
  ``("submit", spec_dict)``                    admit a query (the spec may
                                               carry ``client_id`` and
                                               ``priority``); replies
                                               ``("submitted", query_id)`` or
                                               ``("rejected", error_dict)``.
  ``("status", query_id)``                     lifecycle snapshot.
  ``("result", qid, timeout_s[, off, lim])``   block (bounded) for the
                                               terminal payload; ``offset`` /
                                               ``limit`` page the result rows
                                               (``total_rows`` /
                                               ``next_offset`` ride along).
  ``("cancel", query_id, reason)``             fire the query's token.
  ``("stats",)``                               service counters.
  ==========================================  ===============================

It stops on SIGTERM or ctrl-C (:meth:`~repro.mapreduce.wire.FrameServer.run`);
no verb stops it.  Its worker fleet is the ``REPRO_WORKERS_ADDRS`` (or
``--workers-addrs``) it started with, and no verb changes it: a
different fleet is a restart (``--journal … --recover`` keeps the
queries).

Robustness invariants (argued in DESIGN.md, enforced by tests):

* **Bounded, fair admission** — at most ``max_queue`` queries wait and
  ``max_concurrent`` run; query ``max_queue + 1`` is rejected in O(1)
  with a structured ``admission-rejected`` error, before any planning
  work happens.  An overloaded service stays responsive.  Within the
  bound, dequeue order is the :class:`~repro.serve.scheduler`'s:
  priority with anti-starvation aging, per-client running/queue quotas
  (``quota-exceeded`` is its own taxonomy code), and fair interleaving
  between equal-priority tenants.  The shed/quota check and the queue
  append happen under one ``_cond`` scope, so concurrent submits can
  never overshoot either bound.
* **Bounded replies** — a DONE result whose pickled payload would blow
  the wire's frame cap (or :data:`RESULT_MAX_BYTES`) is *not* sent;
  the client gets a structured ``result-too-large`` error steering it
  to paginated fetch, and the session stays DONE and servable.
* **Bounded memory** — finished sessions are kept for status/result
  lookups only within a fixed retention window
  (:mod:`repro.serve.durability`: the newest ``RETAINED_SESSIONS``
  terminal sessions, their result rows summing to at most
  ``RETAINED_RESULT_ROWS``); beyond it the oldest are
  evicted, fully-delivered ones first, and a later lookup gets the
  ``unknown query id`` error with ``details["expired"]``.  A session
  that is not terminal is never evicted.  Generated relation sets are an
  LRU of :data:`RELATION_SETS_CACHED`.  So the daemon's memory tracks
  concurrency, not the number of queries it has served — across
  ``--recover`` restarts too.
* **Session isolation** — every query runs on its own thread with its
  own :class:`~repro.mapreduce.runtime.SimulatedCluster` (config
  only: it holds no files) and its own
  :class:`~repro.mapreduce.config.QueryContext`: its knobs, resolved
  into settings once when the session starts, and its cancellation
  token.
  Shared state is limited to immutable relations, the planning cache
  (serialized by ``_planning_lock``), and the worker fleet fixed at
  start-up — whose dispatcher already folds results per batch.
* **Deadlines/cancellation are cooperative and terminal** — the token
  fires once; every layer observes it at a work-item boundary; in-flight
  remote tasks of a dead query are abandoned, not retried; the session
  reaches exactly one terminal state and ``done`` is set exactly once.
* **Crash recovery** — with ``--journal`` the coordinator appends one
  durable record per lifecycle event (submit, state, completed-wave
  checkpoint digest, terminal outcome) to an append-only CRC-framed log
  (:class:`~repro.storage.journal.SessionJournal`).  ``--recover``
  replays it on startup, *before* the admitter runs: DONE sessions come
  back serving their result from the blob tier (a terminal record holds
  the digest of the pickled result, never rows; a blob that is gone or
  no result re-runs the query from its submit record),
  FAILED/CANCELLED/TIMED_OUT ones their error, and every non-terminal
  session is re-admitted under its original query id — resuming from
  its last completed wave via the checkpoint tier (the executor
  restores by content key; the journal's wave records exist so tests
  and operators can *prove* which waves were skipped).  A submit is
  journaled before its session becomes visible, and a terminal outcome
  before its state does, so neither an acknowledged query id nor an
  acknowledged result is lost to a crash.
  The journal, its replay and the retention window live in
  :class:`~repro.serve.durability.SessionLedger`; this module is the
  protocol handler and the session runner.
"""

from __future__ import annotations

import os
import threading
from dataclasses import replace
from typing import Dict, Optional, Tuple

from repro.errors import (
    AdmissionRejected,
    ResultTooLarge,
    ServiceError,
    error_to_wire,
)
from repro.baselines import PLANNERS
from repro.core.checkpoint import checkpoint_counters
from repro.core.executor import PlanExecutor
from repro.mapreduce import wire
from repro.mapreduce.backend import live_distributed_backend
from repro.mapreduce.cancel import check_cancelled
from repro.mapreduce.config import (
    EXEC_BACKEND_ENV,
    WORKERS_ADDRS_ENV,
    ClusterConfig,
    ExecutionSettings,
    parse_workers_addrs,
    query_scope,
)
from repro.mapreduce.runtime import SimulatedCluster
from repro.relational.sql import parse_join_query
from repro.serve.durability import SessionLedger, validate_spec
from repro.serve.scheduler import FairScheduler
from repro.serve.session import (
    ADMITTED,
    DONE,
    PLANNING,
    QUEUED,
    RUNNING,
    TERMINAL_STATES,
    QuerySession,
)
from repro.storage import LRUTable
from repro.workloads import workload_relations

#: Generated ``(workload, volume, seed)`` relation sets kept for reuse.
RELATION_SETS_CACHED = 8

#: Byte budget of one ``result`` reply frame (never above the wire's
#: frame cap).  A DONE result whose encoded payload would exceed it is
#: refused with a structured ``result-too-large`` error steering the
#: client to paginated fetch instead of an unframeable reply.
RESULT_MAX_BYTES = 1 << 30


class QueryService(wire.FrameServer):
    """The coordinator: admission queue, session threads, fleet, stats."""

    name = "repro-serve"

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        max_concurrent: int = 4,
        max_queue: int = 16,
        default_deadline_s: Optional[float] = None,
        config: Optional[ClusterConfig] = None,
        journal_path: Optional[str] = None,
        recover: bool = False,
        client_max_running: int = 0,
        client_max_queued: int = 0,
        aging_s: float = 30.0,
    ) -> None:
        if max_concurrent < 1:
            raise ValueError("max_concurrent must be >= 1")
        if max_queue < 0:
            raise ValueError("max_queue must be >= 0")
        if recover and journal_path is None:
            raise ValueError("--recover requires a journal path")
        self.max_concurrent = max_concurrent
        self.max_queue = max_queue
        self.default_deadline_s = default_deadline_s
        self._config = config or ClusterConfig()
        #: The worker daemons every session dispatches to, fixed here.
        self.workers_addrs = parse_workers_addrs(os.environ.get(WORKERS_ADDRS_ENV, ""))
        self._sched = FairScheduler(
            max_queue=max_queue,
            max_concurrent=max_concurrent,
            client_max_running=client_max_running,
            client_max_queued=client_max_queued,
            aging_s=aging_s,
        )
        super().__init__(host, port)

        #: Session registry, journal and retention window; its registry
        #: and window are guarded by ``_cond``.
        self.ledger = SessionLedger(journal_path)
        self._cond = threading.Condition()
        #: Admission closed.  Set under ``_cond`` (not the transport's
        #: own stop flag) so a racing submit either lands before the
        #: shutdown drain or is refused.
        self._closing = False
        #: Planning shares process-global caches (statistics LRU, disk
        #: store); serializing it keeps those structures single-writer
        #: and gives executing queries the cores.
        self._planning_lock = threading.Lock()
        self.stats: Dict[str, int] = {
            "submitted": 0,
            "rejected": 0,
            "done": 0,
            "failed": 0,
            "cancelled": 0,
            "timed_out": 0,
        }
        self._stats_lock = threading.Lock()
        self._relations_cache = LRUTable(RELATION_SETS_CACHED)
        self._relations_lock = threading.Lock()
        if recover:
            # Replay must finish before the admitter thread exists:
            # recovery is the only writer of session state until here.
            # Quotas govern *new* load; work already admitted in a past
            # process life is re-seated unconditionally.
            self.ledger.recover(
                lambda session: self._sched.enqueue(session, force=True)
            )
        self._admitter = threading.Thread(
            target=self._admission_loop, daemon=True, name="repro-serve-admit"
        )
        self._admitter.start()

    @property
    def _running(self) -> int:
        """Live slot count, owned by the scheduler since PR 10."""
        return self._sched.total_running

    # -- lifecycle -------------------------------------------------------

    def stop(self) -> None:
        """Close the listener, cancel live sessions, wake everything."""
        with self._cond:
            self._closing = True
            queued = self._sched.drain()
            self._cond.notify_all()
        for session in queued:
            session.token.cancel("service shutting down")
            session.finish_from_token()
        for session in list(self.ledger.sessions.values()):
            if session.state not in TERMINAL_STATES:
                session.token.cancel("service shutting down")
        super().stop()

    # -- admission -------------------------------------------------------

    def submit(self, spec: dict) -> QuerySession:
        """Validate (:func:`~repro.serve.durability.validate_spec`) and
        enqueue one query; raises ``AdmissionRejected``."""
        spec = validate_spec(spec, self.default_deadline_s)
        with self._cond:
            if self._closing:
                raise AdmissionRejected("service is shutting down")
            # Shed/quota check and queue append share this one lock
            # scope: N concurrent submits racing K free seats admit
            # exactly K, never K+1 (regression-tested).
            try:
                self._sched.check_admit(spec["client_id"])
            except AdmissionRejected:
                with self._stats_lock:
                    self.stats["rejected"] += 1
                raise
            session = QuerySession(query_id=self.ledger.issue_id(), **spec)
            self.ledger.admit(session, spec)
            self._sched.enqueue(session, force=True)
            with self._stats_lock:
                self.stats["submitted"] += 1
            self._cond.notify_all()
        return session

    def _admission_loop(self) -> None:
        while True:
            with self._cond:
                while not self._closing and not self._sched.has_eligible():
                    self._cond.wait(0.1)
                    self._reap_queued_locked()
                if self._closing:
                    return
                session = self._sched.pop()
            if session is None:
                continue
            if session.token.fired() is not None:
                # Died while queued (cancel or deadline): terminal now,
                # never spends a concurrency slot on planning.
                session.finish_from_token(self.ledger.seal)
                self._count_terminal(session)
                self._release_slot(session)
                continue
            self._enter(session, ADMITTED)
            threading.Thread(
                target=self._run_session,
                args=(session,),
                daemon=True,
                name=f"repro-serve-{session.query_id}",
            ).start()

    def _reap_queued_locked(self) -> None:
        """Terminalize queued sessions whose token already fired, so a
        cancelled/expired query never waits for a concurrency slot just
        to die.  Caller holds ``self._cond``.  The scheduler removes all
        fired sessions in one pass (the PR 6 version re-scanned the
        deque per removal, O(n^2) when a deadline wave fires), and each
        is journaled as terminal exactly once, here."""
        for session in self._sched.reap_fired():
            session.finish_from_token(self.ledger.seal)
            self._count_terminal(session)

    def _release_slot(self, session: QuerySession) -> None:
        with self._cond:
            self._sched.release(session)
            self._cond.notify_all()

    def _enter(self, session: QuerySession, state: str) -> None:
        session.transition(state)
        self.ledger.append({"kind": "state", "id": session.query_id, "state": state})

    def _count_terminal(self, session: QuerySession) -> None:
        """Book a session that just went terminal (every terminal path
        funnels through here, after sealing the outcome in the journal)."""
        with self._stats_lock:
            self.stats[session.state.lower()] += 1
        # _cond is an RLock underneath, so this is safe from the reap
        # path (which already holds it) and session threads alike.
        with self._cond:
            self._sched.note_terminal(session)
            self.ledger.retain_terminal(session)

    # -- session execution ----------------------------------------------

    def _relations(self, workload: str, volume: int, seed: int) -> dict:
        key = (workload, volume, seed)
        with self._relations_lock:
            hit, relations = self._relations_cache.lookup(key)
            if not hit:
                relations = workload_relations(workload, volume, seed)
                self._relations_cache.store(key, relations)
        return relations  # type: ignore[return-value]

    def _run_session(self, session: QuerySession) -> None:
        def on_wave(job_id: str, digest: str, restored: bool) -> None:
            # One durable record per completed (or restored) wave: the
            # recovery drill reads these to prove which waves a
            # restarted coordinator did NOT re-execute.
            self.ledger.append(
                {
                    "kind": "wave",
                    "id": session.query_id,
                    "job_id": job_id,
                    "digest": digest,
                    "restored": restored,
                }
            )

        try:
            # The session's knobs over the service's fleet, resolved
            # once, and its token.
            overrides = {
                **session.knobs,
                WORKERS_ADDRS_ENV: ",".join(self.workers_addrs),
            }
            settings = ExecutionSettings.from_env(overrides)
            if settings.backend == "process":
                # The fork-pool backend re-forks per batch and tears pools
                # down globally — unsafe under concurrent sessions.  Threads
                # give the same bit-identical results; pin quietly.
                overrides[EXEC_BACKEND_ENV] = "thread"
                settings = replace(settings, backend="thread")
            with query_scope(
                overrides=overrides,
                settings=settings,
                token=session.token,
            ):
                self._enter(session, PLANNING)
                check_cancelled()
                relations = self._relations(
                    session.workload, session.volume, session.seed
                )
                with self._planning_lock:
                    query = parse_join_query(
                        session.sql, relations, name=session.query_id
                    )
                    planner = PLANNERS[session.method](self._config)
                    plan = planner.plan(query)
                check_cancelled()
                self._enter(session, RUNNING)
                outcome = PlanExecutor(
                    SimulatedCluster(self._config), on_wave=on_wave
                ).execute(plan, query)
            report = outcome.report
            session.complete(
                {
                    "columns": list(outcome.result.schema.names),
                    "rows": outcome.result.rows,
                    "output_records": report.output_records,
                    "makespan_s": report.makespan_s,
                    "merge_time_s": report.merge_time_s,
                    "num_jobs": len(report.job_metrics),
                    "checkpoint_hits": report.checkpoint_hits,
                    "checkpoint_stores": report.checkpoint_stores,
                },
                self.ledger.seal,
            )
        except BaseException as exc:  # noqa: BLE001 - classified by taxonomy
            session.fail(exc, self.ledger.seal)
        finally:
            self._count_terminal(session)
            self._release_slot(session)

    # -- endpoints -------------------------------------------------------

    def _session_or_error(self, query_id: object) -> QuerySession:
        with self._cond:
            return self.ledger.lookup(query_id)

    def status(self, query_id: str) -> dict:
        return self._session_or_error(query_id).snapshot()

    def cancel(self, query_id: str, reason: str = "client cancel") -> dict:
        session = self._session_or_error(query_id)
        session.token.cancel(reason)
        with self._cond:
            if not (session.state == QUEUED and self._sched.remove(session)):
                session = None  # running: its own thread terminalizes it
        if session is not None:
            session.finish_from_token(self.ledger.seal)
            self._count_terminal(session)
            return session.snapshot()
        return self.status(query_id)

    def result(
        self,
        query_id: str,
        timeout_s: float = 60.0,
        offset: Optional[int] = None,
        limit: Optional[int] = None,
    ) -> dict:
        """Terminal payload, blocking up to ``timeout_s``.

        A non-terminal reply (``terminal: False``) is a *poll timeout*,
        not an error — clients loop.  Errors ride in the snapshot's
        ``error`` field as taxonomy dicts.

        ``offset``/``limit`` page the DONE result's rows: the reply's
        ``result`` then carries the slice plus ``total_rows``,
        ``offset``, and ``next_offset`` (``None`` once exhausted), and
        pages concatenate bit-identically to the unpaginated rows.  An
        *unpaginated* fetch of a result whose pickled payload exceeds
        the service's byte budget raises :class:`ResultTooLarge` instead
        of killing the connection mid-send — the session stays DONE and
        the same rows remain fetchable page by page.
        """
        session = self._session_or_error(query_id)
        session.done.wait(max(0.0, min(float(timeout_s), 300.0)))
        payload = session.snapshot()
        if session.state != DONE:
            session.delivered = payload["terminal"]
            return payload
        result = session.result or {}
        max_bytes = min(RESULT_MAX_BYTES, wire.MAX_FRAME_BYTES)
        if offset is None and limit is None:
            if session.result_bytes > max_bytes:
                rows = result.get("rows") or []
                raise ResultTooLarge(
                    f"{query_id}: result is ~{session.result_bytes} pickled "
                    f"bytes (budget {max_bytes}); fetch it in pages",
                    details={
                        "query_id": query_id,
                        "result_bytes": session.result_bytes,
                        "max_bytes": max_bytes,
                        "total_rows": len(rows),
                        "hint": "retry with offset/limit (Client.iter_rows)",
                    },
                )
            payload["result"] = result
            session.delivered = True
            return payload
        rows = result.get("rows") or []
        total_rows = len(rows)
        try:
            start, stop, next_offset = wire.page_bounds(total_rows, offset, limit)
        except ValueError as exc:
            raise ServiceError(str(exc), details={"query_id": query_id})
        if total_rows and session.result_bytes > 0:
            # Proportional estimate: a page of k rows costs about
            # k/total of the full pickle.  Cheap, and safely below the
            # frame cap for any sane limit.
            estimated = session.result_bytes * max(1, stop - start) // total_rows
            if estimated > max_bytes:
                raise ResultTooLarge(
                    f"{query_id}: a {stop - start}-row page is still "
                    f"~{estimated} pickled bytes (budget {max_bytes}); "
                    "reduce 'limit'",
                    details={
                        "query_id": query_id,
                        "estimated_bytes": estimated,
                        "max_bytes": max_bytes,
                        "total_rows": total_rows,
                    },
                )
        page = dict(result)
        page["rows"] = rows[start:stop]
        page["offset"] = start
        page["total_rows"] = total_rows
        page["next_offset"] = next_offset
        payload["result"] = page
        if next_offset is None:
            session.delivered = True
        return payload

    def service_stats(self) -> dict:
        with self._cond:
            queued = len(self._sched)
            running = self._sched.total_running
            scheduler = self._sched.stats()
            retained = self.ledger.retained
            evicted = self.ledger.evicted
        with self._stats_lock:
            counters = dict(self.stats)
        backend = live_distributed_backend(self.workers_addrs)
        shipped = dict(backend.counters) if backend is not None else {}
        data_plane = {
            name: shipped.get(name, 0)
            for name in (
                "bytes_shipped",
                "blob_puts",
                "blob_hits",
                "blob_bytes_reused",
                "registrations",
            )
        }
        resilience = {
            name: shipped.get(name, 0)
            for name in (
                "hedges_launched",
                "hedge_wins",
                "breaker_trips",
                "breaker_skips",
            )
        }
        in_flight = backend.tasks_in_flight if backend is not None else 0
        journal = self.ledger.journal
        breakers = backend.breaker.state() if backend is not None else {}
        counters.update(
            {
                "queued": queued,
                "running": running,
                "max_concurrent": self.max_concurrent,
                "max_queue": self.max_queue,
                "sessions_retained": retained,
                "sessions_evicted": evicted,
                "scheduler": scheduler,
                "clients": scheduler["clients"],
                "fleet": list(self.workers_addrs),
                "tasks_in_flight": in_flight,
                "data_plane": data_plane,
                "resilience": resilience,
                "breakers": breakers,
                "checkpoints": checkpoint_counters(),
                "journal": journal.stats() if journal else None,
                "recovered": dict(self.ledger.recovered),
            }
        )
        return counters

    # -- connection handling (FrameServer hooks) ---------------------------

    def error_reply(self, text: str) -> Tuple:
        return ("error", error_to_wire(ServiceError(text)))

    def oversized_reply(self, exc: wire.WireError) -> Tuple:
        # Defense in depth — the result endpoint's byte budget should
        # catch an oversized result first.
        return (
            "error",
            error_to_wire(
                ResultTooLarge(
                    f"reply exceeds the wire frame cap: {exc}",
                    details={"hint": "retry with offset/limit"},
                )
            ),
        )

    def handle(self, message: Tuple, state: object) -> Tuple:
        kind = message[0]
        try:
            if kind == "submit":
                session = self.submit(message[1])
                return ("submitted", session.query_id)
            if kind == "status":
                return ("status", self.status(message[1]))
            if kind == "result":
                timeout_s = message[2] if len(message) > 2 else 60.0
                offset = message[3] if len(message) > 3 else None
                limit = message[4] if len(message) > 4 else None
                return ("result", self.result(message[1], timeout_s, offset, limit))
            if kind == "cancel":
                reason = message[2] if len(message) > 2 else "client cancel"
                return ("cancelled", self.cancel(message[1], str(reason)))
            if kind == "stats":
                return ("stats", self.service_stats())
            return self.error_reply(f"unknown message kind {kind!r}")
        except AdmissionRejected as exc:
            return ("rejected", error_to_wire(exc))
        except ServiceError as exc:
            return ("error", error_to_wire(exc))


# ----------------------------------------------------------------------
# process helpers (CLI + tests)
# ----------------------------------------------------------------------


def serve(
    host: str,
    port: int,
    journal_path: Optional[str] = None,
    recover: bool = False,
    **service_options,
) -> int:
    """CLI entry: run one coordinator daemon — a :class:`QueryService`
    built with ``service_options`` — until SIGTERM or ctrl-C."""
    service = QueryService(
        host, port, journal_path=journal_path, recover=recover, **service_options
    )
    notes = []
    if journal_path is not None:
        recovered = service.ledger.recovered
        notes.append(
            f"repro-serve journal: {journal_path}"
            + (
                f" (recovered {recovered['records']} records: "
                f"{recovered['done']} done, {recovered['resumed']} resumed, "
                f"{recovered['requeued']} requeued"
                + (", torn tail sealed" if recovered["torn"] else "")
                + ")"
                if recover
                else ""
            )
        )
    if service.workers_addrs:
        notes.append(f"repro-serve fleet: {','.join(service.workers_addrs)}")
    return service.run(notes)


def spawn_service(extra_args: Tuple[str, ...] = (), env_extra: Optional[dict] = None):
    """Spawn one ``repro serve`` subprocess on an OS-assigned port.

    Returns ``(proc, addr)`` (:func:`repro.mapreduce.wire.spawn_listening`)
    — the serve-side mirror of :func:`repro.mapreduce.worker.spawn_daemon`.
    Pass the fleet as ``REPRO_WORKERS_ADDRS`` in ``env_extra``.
    """
    return wire.spawn_listening(
        ("-m", "repro.cli", "serve", "--port", "0", *extra_args),
        env_extra=env_extra,
    )
