"""Pluggable execution backends: serial / thread / process task pools.

The simulated runtime (PR 2/3) reduced both MapReduce phases to lists of
*independent* tasks — map chunks whose :class:`MapBatch` results merge in
deterministic input order, and reduce bucket ranges whose outputs
concatenate in bucket order.  The plan executor's ready waves are
independent in the same way.  This module is the one place that decides
how such task lists actually run:

* ``serial``  — in-line loop (the default; zero overhead, zero risk);
* ``thread``  — a shared :class:`~concurrent.futures.ThreadPoolExecutor`
  (the GIL throttles pure-Python mappers, but the NumPy probe/pair paths
  release it);
* ``process`` — a fork-context :mod:`multiprocessing` pool that runs
  the tasks in forked worker processes;
* ``distributed`` — TCP dispatch to long-lived ``repro worker serve``
  daemons (:class:`DistributedBackend`), which is what finally takes the
  task lists past one machine: heartbeat liveness, per-task retry on
  worker loss, and ordered exactly-once result folding keep outputs
  bit-identical to serial even while workers die mid-phase.

Every backend exposes the same contract — ``run_tasks(fn, count)``
returns ``[fn(0), fn(1), ..., fn(count - 1)]`` **in index order** — so
callers merge results exactly as the serial loop would and outputs stay
bit-identical across backends.

Process backend mechanics
-------------------------
Join-job callables are build-time-compiled closures (condition checks,
merge specs, slab tables) that standard pickling cannot ship, and their
captured inputs can be large.  The process backend therefore never
pickles a task function: the parent **registers** the callable in a
module-level job registry and forks its worker pool *after* registration,
so workers inherit the registry (and everything the closure captures)
through copy-on-write fork memory.  A task payload is just the pair
``(registry token, task index)`` — the "cheap task payloads" handshake.
The pool is reused only while its fork-time registry snapshot is
current; a batch that registered a *new* callable (which is every phase
of every job, since closures are compiled per job) triggers a re-fork —
cheap on Linux (COW pages, no re-import, no re-pickling), so in
practice the backend forks once per task batch.  Pool workers run their
tasks in a context marked ``in_task``, which makes :func:`get_backend`
return the serial backend inside them, so nested parallelism (e.g. a
whole job running in a worker whose phases would try to fork again)
degrades safely.

Platforms without the ``fork`` start method (Windows) fall back to the
thread backend with a one-time note; results are identical either way.
"""

from __future__ import annotations

import atexit
import sys
import threading
from typing import Callable, Dict, List, Optional, Tuple

from repro.mapreduce import wire
from repro.mapreduce.config import (
    CURRENT_QUERY,
    ExecutionSettings,
    QueryContext,
    execution_settings,
    query_scope,
)
from repro.mapreduce.dispatch import BatchState, CircuitBreaker
from repro.mapreduce.worker_handle import RemoteTaskError, WorkerHandle, WorkerLost

#: Task callable: index -> result.  Results must not depend on *when* or
#: *where* the call runs — the backends only promise index order.
TaskFn = Callable[[int], object]

# -- the job registry (parent writes, forked workers inherit) -----------

_TASK_REGISTRY: Dict[int, TaskFn] = {}
_REGISTRY_VERSION = 0
_NEXT_TOKEN = 0


def _register_task_fn(fn: TaskFn) -> int:
    """Parent side of the handshake: registry slot + version bump."""
    global _REGISTRY_VERSION, _NEXT_TOKEN
    _NEXT_TOKEN += 1
    _REGISTRY_VERSION += 1
    _TASK_REGISTRY[_NEXT_TOKEN] = fn
    return _NEXT_TOKEN


def _unregister_task_fn(token: int) -> None:
    _TASK_REGISTRY.pop(token, None)


def _worker_init() -> None:  # pragma: no cover - runs in forked children
    # A pool worker runs its tasks on the thread that ran this, from an
    # empty context: no inherited knobs or token, nested backends serial.
    CURRENT_QUERY.set(QueryContext(in_task=True))


def _invoke_registered(payload: Tuple[int, int]) -> object:
    """Worker side: look the callable up in the inherited registry."""
    token, index = payload
    return _TASK_REGISTRY[token](index)


# -- backends ------------------------------------------------------------


class SerialBackend:
    """The in-line loop every other backend must be bit-identical to."""

    name = "serial"

    def run_tasks(self, fn: TaskFn, count: int) -> List[object]:
        return [fn(index) for index in range(count)]

    def close(self) -> None:
        pass


class ThreadBackend:
    """A persistent thread pool; helps when tasks release the GIL."""

    name = "thread"

    def __init__(self, workers: int) -> None:
        self.workers = max(1, workers)
        self._pool = None
        self._pool_lock = threading.Lock()

    def run_tasks(self, fn: TaskFn, count: int) -> List[object]:
        if count <= 1 or self.workers <= 1:
            return [fn(index) for index in range(count)]
        with self._pool_lock:
            if self._pool is None:
                from concurrent.futures import ThreadPoolExecutor

                self._pool = ThreadPoolExecutor(
                    max_workers=self.workers, thread_name_prefix="repro-exec"
                )
            pool = self._pool

        def guarded(index: int) -> object:
            # A pool thread starts from an empty context; mark it a task.
            with query_scope(in_task=True):
                return fn(index)

        return list(pool.map(guarded, range(count)))

    def close(self) -> None:
        # Idempotent and safe under concurrent callers: exactly one
        # caller pops the pool and shuts it down, later calls no-op.
        # Waiting (instead of cancelling) lets a wave that is already in
        # flight on this pool finish intact; its run_tasks caller holds
        # its own reference to the executor.
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)


class ProcessBackend:
    """Fork-context worker pool fed through the job registry (see module
    docstring).  Falls back to threads where ``fork`` is unavailable."""

    name = "process"

    def __init__(self, workers: int) -> None:
        self.workers = max(1, workers)
        self._pool = None
        self._pool_lock = threading.Lock()
        self._forked_version = -1
        self._fallback: Optional[ThreadBackend] = None

    # -- pool lifecycle ------------------------------------------------

    def _fork_context(self):
        import multiprocessing

        try:
            return multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX platform
            return None

    def _ensure_pool(self):
        """The worker pool, re-forked whenever the registry moved past
        its fork-time snapshot (i.e. per batch for per-job closures)."""
        with self._pool_lock:
            if self._pool is not None and self._forked_version == _REGISTRY_VERSION:
                return self._pool
            context = self._fork_context()
            if context is None:  # pragma: no cover - non-POSIX platform
                return None
            if self._pool is not None:
                pool, self._pool = self._pool, None
                pool.terminate()
                pool.join()
            self._pool = context.Pool(self.workers, initializer=_worker_init)
            self._forked_version = _REGISTRY_VERSION
            return self._pool

    def _terminate_pool(self) -> None:
        # Pop-then-terminate under the lock: concurrent or repeated
        # closers race for the pool, exactly one wins the terminate/join
        # and the rest no-op — never a double-join.
        with self._pool_lock:
            pool, self._pool = self._pool, None
            self._forked_version = -1
        if pool is not None:
            pool.terminate()
            pool.join()

    # -- execution ------------------------------------------------------

    def run_tasks(self, fn: TaskFn, count: int) -> List[object]:
        if count <= 1 or self.workers <= 1:
            return [fn(index) for index in range(count)]
        token = _register_task_fn(fn)
        try:
            pool = self._ensure_pool()
            if pool is None:  # pragma: no cover - non-POSIX platform
                if self._fallback is None:
                    print(
                        "repro: 'fork' start method unavailable; process "
                        "backend running on threads",
                        file=sys.stderr,
                    )
                    self._fallback = ThreadBackend(self.workers)
                return self._fallback.run_tasks(fn, count)
            payloads = [(token, index) for index in range(count)]
            chunksize = max(1, count // (self.workers * 4))
            return pool.map(_invoke_registered, payloads, chunksize=chunksize)
        finally:
            _unregister_task_fn(token)

    def close(self) -> None:
        self._terminate_pool()
        fallback, self._fallback = self._fallback, None
        if fallback is not None:  # pragma: no cover - non-POSIX
            fallback.close()


class DistributedBackend:
    """Multi-host coordinator: ships tasks to ``repro worker serve``
    daemons over TCP with heartbeat liveness and per-task retry.

    The fork registry's handshake is mirrored remotely: ``run_tasks``
    serializes the task closure *once* (cloudpickle, by value), registers
    it on every live worker under a coordinator-issued token, and then
    each task payload on the wire is just ``(token, index)``.  One
    dispatcher thread per worker pulls indices from a shared queue; a
    worker loss (connection reset, missed heartbeat) re-queues its
    in-flight index for the surviving workers, and any index still
    unresolved when every worker is gone (or past its retry budget) runs
    locally in the coordinator.  Results fold into a per-index slot
    exactly once, first completion wins, and the returned list is built
    in index order — so outputs are bit-identical to the serial loop no
    matter which worker ran what, or died when.

    Degradation is always to correctness: no reachable workers or an
    unshippable closure simply run the batch
    in-line (with a one-time note), never fail it — unless strict-fleet
    mode (``REPRO_STRICT_FLEET=1``) turns those degradations into
    structured :class:`~repro.errors.FleetExhausted` failures.  Strict
    mode and the retry budget (``REPRO_TASK_RETRIES``) are read per
    batch from the calling query's context, so ``repro serve`` can scope
    them per query over the one backend instance every session shares.

    Cancellation: ``run_tasks`` captures the calling query's
    :class:`~repro.mapreduce.cancel.CancellationToken` (if any).  A fired
    token stops dispatchers from pulling new indices, **abandons**
    in-flight indices of lost workers instead of re-queueing them (a
    dead-by-deadline query must not spend the retry budget), and raises
    the matching taxonomy error after the dispatchers settle — never the
    local fallback.

    The worker address set is fixed when the backend is built:
    :func:`get_backend` keys each instance by its address tuple, so a
    different fleet is a different backend.
    """

    name = "distributed"

    def __init__(
        self,
        addrs: Tuple[str, ...],
        heartbeat_s: float = 2.0,
        connect_timeout_s: float = 1.0,
    ) -> None:
        self.addrs = tuple(addrs)
        self.heartbeat_s = heartbeat_s
        self.connect_timeout_s = connect_timeout_s
        self._handles: Dict[str, WorkerHandle] = {}
        #: addr -> (next batch number allowed to redial, consecutive
        #: failures); exponential backoff so a down host costs a connect
        #: attempt only occasionally, while a *restarted* daemon on the
        #: same address rejoins the pool within a few batches.
        self._redial: Dict[str, Tuple[int, int]] = {}
        self._batches = 0
        self._noted_degraded = False
        self._next_token = 0
        #: Guards handles/redial — ``run_tasks`` may now be called
        #: concurrently from several ``repro serve`` session threads.
        self._lock = threading.Lock()
        #: Coordinator-wide count of indices currently on the wire,
        #: across every concurrent batch.  Exposed so the service (and
        #: the cancellation property tests) can assert nothing leaked.
        self.tasks_in_flight = 0
        self._inflight_lock = threading.Lock()
        #: Data-plane accounting across the backend's lifetime:
        #: ``bytes_shipped`` is every payload byte actually sent (slim
        #: closures + blob-puts), ``blob_bytes_reused`` the bytes a
        #: worker's cache hit saved — the numbers the warm-vs-cold bench
        #: and the ``repro serve`` stats endpoint report.
        self.counters: Dict[str, int] = {
            "bytes_shipped": 0,
            "blob_puts": 0,
            "blob_hits": 0,
            "blob_bytes_reused": 0,
            "registrations": 0,
            "hedges_launched": 0,
            "hedge_wins": 0,
            "breaker_trips": 0,
            "breaker_skips": 0,
        }
        self._counters_lock = threading.Lock()
        #: Per-worker quarantine, fed once per batch by ``_dispatch``.
        self.breaker = CircuitBreaker(self._account)

    def _account(self, name: str, delta: int) -> None:
        with self._counters_lock:
            self.counters[name] = self.counters.get(name, 0) + delta

    def reset_counters(self) -> None:
        """Zero the data-plane counters (benchmarks measure deltas)."""
        with self._counters_lock:
            for name in self.counters:
                self.counters[name] = 0

    # -- worker pool ----------------------------------------------------

    def _track_inflight(self, delta: int) -> None:
        with self._inflight_lock:
            self.tasks_in_flight += delta

    def _live_handles(self) -> List[WorkerHandle]:
        """Connected handles; dials (and re-dials) the rest with backoff.

        A dead handle is discarded and its address becomes eligible for
        reconnection after a failure-count-doubling number of batches —
        so a worker daemon restarted on the same host:port rejoins a
        long-lived coordinator instead of being blacklisted forever,
        while a genuinely down host is only probed occasionally.  An
        address whose circuit breaker is open is skipped outright — not
        even dialed — until its cooldown batch arrives.

        Callers must hold ``self._lock``.
        """
        live = []
        for addr in self.addrs:
            if self.breaker.is_open(addr, self._batches):
                continue
            handle = self._handles.get(addr)
            if handle is not None and handle.alive:
                live.append(handle)
                continue
            if handle is not None:  # died since we dialed it
                self._handles.pop(addr, None)
            next_allowed, failures = self._redial.get(addr, (0, 0))
            if self._batches < next_allowed:
                continue
            handle = WorkerHandle(addr, self.heartbeat_s, self.connect_timeout_s)
            if handle.connect():
                self._handles[addr] = handle
                self._redial.pop(addr, None)
                live.append(handle)
            else:
                self._redial[addr] = (
                    self._batches + 2 ** min(failures, 6),
                    failures + 1,
                )
        return live

    def _note_degraded(self, reason: str) -> None:
        if not self._noted_degraded:
            self._noted_degraded = True
            print(
                f"repro: distributed backend degraded to serial ({reason})",
                file=sys.stderr,
            )

    # -- execution ------------------------------------------------------

    def run_tasks(self, fn: TaskFn, count: int) -> List[object]:
        # Even a single task ships when a daemon answers: it offloads the
        # coordinator (``ExecutionSettings.parallel``).
        if count == 0:
            return []
        from repro.errors import FleetExhausted

        # Both are read from the *calling* query's context, so a serve
        # session's knobs and cancellation token travel with the batch
        # even though this backend instance is shared.
        token = CURRENT_QUERY.get().token
        settings = execution_settings()
        strict = settings.strict_fleet

        def degraded(reason: str) -> List[object]:
            if strict:
                raise FleetExhausted(reason)
            self._note_degraded(reason)
            return [fn(index) for index in range(count)]

        with self._lock:
            self._batches += 1
            handles = self._live_handles()
        if not handles:
            return degraded("no worker daemons answered")
        try:
            # Register-by-digest: heavy captures split into content-
            # addressed payloads workers cache across batches and
            # queries; only the slim executable part always ships.
            slim, blobs = wire.split_task_fn(fn)
        except Exception as exc:  # unshippable capture: run locally
            return degraded(f"task closure not serializable: {exc}")
        return self._dispatch(
            fn, slim, blobs, count, handles, token, strict, settings.task_retries
        )

    def _dispatch(
        self,
        fn: TaskFn,
        slim: bytes,
        blobs: Dict[str, bytes],
        count: int,
        handles: List[WorkerHandle],
        cancel_token,
        strict: bool,
        task_retries: int,
    ) -> List[object]:
        from repro.errors import FleetExhausted

        with self._lock:
            self._next_token += 1
            token = self._next_token
        state = BatchState(
            count,
            task_retries,
            hedging=len(handles) > 1,
            fired=lambda: cancel_token is not None and cancel_token.fired() is not None,
        )
        threads = [
            threading.Thread(
                target=self._serve_batch,
                args=(handle, state, token, slim, blobs),
                daemon=True,
                name=f"repro-dispatch-{handle.addr}",
            )
            for handle in handles
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        self.breaker.score(handles, self._batches)

        if state.failure is not None:
            raise state.failure
        if cancel_token is not None:
            # A fired token raises here (cancelled/deadline taxonomy):
            # unresolved indices stay abandoned — no local fallback for a
            # query nobody is waiting on.
            cancel_token.check()
        # Anything unresolved (all workers lost, retry budget exhausted)
        # runs locally — each missing index exactly once, in index order.
        missing = state.missing()
        if missing:
            if strict:
                raise FleetExhausted(
                    f"{len(missing)} task(s) exhausted the worker fleet",
                    details={"missing_tasks": len(missing)},
                )
            self._note_degraded(f"{len(missing)} task(s) fell back to local execution")
            for index in missing:
                state.results[index] = fn(index)
        return [state.results[index] for index in range(count)]

    def _serve_batch(
        self,
        handle: WorkerHandle,
        state: BatchState,
        token: int,
        slim: bytes,
        blobs: Dict[str, bytes],
    ) -> None:
        """One worker's dispatcher thread: register the closure, move
        indices between ``state`` and the wire until ``state`` has none
        left for this worker, unregister."""
        try:
            handle.register(token, slim, blobs, self._account)
        except WorkerLost:
            return
        try:
            while True:
                taken = state.take()
                if taken is None:
                    return
                index, is_hedge = taken
                self._track_inflight(+1)
                if is_hedge:
                    self._account("hedges_launched", 1)
                try:
                    value = handle.run_task(token, index)
                except RemoteTaskError as exc:
                    state.failed(index, exc.original)
                    return
                except BaseException:
                    # WorkerLost — or anything unforeseen in the
                    # conversation: either way this dispatcher is done and
                    # MUST hand its index back, or idle peers would wait
                    # on it forever.
                    handle.mark_dead()
                    state.lost(index)
                    return
                finally:
                    self._track_inflight(-1)
                if state.done(index, value) and is_hedge:
                    self._account("hedge_wins", 1)
        finally:
            # Free the shipped closure on every exit path — a task error
            # must not leak the registration (unregister of a lost worker
            # is a no-op).
            handle.unregister(token)

    def close(self) -> None:
        with self._lock:
            handles = list(self._handles.values())
            self._handles.clear()
            self._redial.clear()
        for handle in handles:
            handle.mark_dead()


# -- backend selection ---------------------------------------------------

_SERIAL = SerialBackend()
_BACKENDS: Dict[object, object] = {}
#: Guards the backend registry: ``get_backend`` may race against
#: ``close_backends`` (atexit, test teardown) or against itself from
#: concurrent ``repro serve`` session threads.
_BACKENDS_LOCK = threading.Lock()


def get_backend(settings: Optional[ExecutionSettings] = None):
    """The process-wide backend for ``settings`` (default: the active
    query's, or the environment's outside any query).

    Inside a backend task — a thread-pool task, a forked pool worker, a
    worker daemon's task (``QueryContext.in_task``) — this always
    returns the serial backend, whatever the settings say: pool workers
    are daemonic and must not fork grandchildren, and tasks must not fan
    out onto a pool again.
    """
    if CURRENT_QUERY.get().in_task:
        return _SERIAL
    if settings is None:
        settings = execution_settings()
    if not settings.parallel:
        return _SERIAL
    if settings.backend == "distributed":
        # One coordinator per address set, whatever the caller's other
        # knobs: the heartbeat/connect timings are fixed when it is
        # built, and a different fleet gets its own backend, so no query
        # can move the workers another query dispatches to.
        key: object = ("distributed", settings.workers_addrs)
    else:
        key = (settings.backend, settings.effective_workers)
    with _BACKENDS_LOCK:
        backend = _BACKENDS.get(key)
        if backend is None:
            if settings.backend == "distributed":
                backend = DistributedBackend(
                    settings.workers_addrs,
                    heartbeat_s=settings.worker_heartbeat_s,
                    connect_timeout_s=settings.worker_connect_timeout_s,
                )
            elif settings.backend == "thread":
                backend = ThreadBackend(settings.effective_workers)
            else:
                backend = ProcessBackend(settings.effective_workers)
            _BACKENDS[key] = backend
    return backend


def live_distributed_backend(addrs) -> Optional[DistributedBackend]:
    """The distributed backend of the worker addresses ``addrs``, if a
    query ever built it (``repro serve`` reads its counters); never
    builds one."""
    with _BACKENDS_LOCK:
        return _BACKENDS.get(("distributed", tuple(addrs)))  # type: ignore[return-value]


def close_backends() -> None:
    """Shut down every pooled backend (tests, interpreter exit).

    Idempotent and safe to call concurrently with itself or with a
    batch in flight: the registry is snapshotted and cleared under the
    lock, then each backend's own close (itself idempotent) runs
    outside it.
    """
    with _BACKENDS_LOCK:
        backends = list(_BACKENDS.values())
        _BACKENDS.clear()
    for backend in backends:
        backend.close()


atexit.register(close_backends)
