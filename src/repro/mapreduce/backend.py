"""Pluggable execution backends: serial / thread / process task pools.

The simulated runtime (PR 2/3) reduced both MapReduce phases to lists of
*independent* tasks — map chunks whose :class:`MapBatch` results merge in
deterministic input order, and reduce buckets whose outputs concatenate
in bucket order.  The plan executor's ready waves are independent in the
same way.  This module is the one place that decides how such task lists
actually run:

* ``serial``  — in-line loop (the default; zero overhead, zero risk);
* ``thread``  — a shared :class:`~concurrent.futures.ThreadPoolExecutor`
  (the GIL throttles pure-Python mappers, but the NumPy probe/pair paths
  release it);
* ``process`` — a fork-context :mod:`multiprocessing` pool for true
  multi-core execution of the pure-Python fallback paths;
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
practice the backend forks once per task batch.  Pool workers set a flag
that makes :func:`get_backend` return the serial backend inside them, so
nested parallelism (e.g. a whole job running in a worker whose phases
would try to fork again) degrades safely.

Platforms without the ``fork`` start method (Windows) fall back to the
thread backend with a one-time note; results are identical either way.
"""

from __future__ import annotations

import atexit
import sys
import threading
import time
from collections import deque
from typing import Callable, Dict, List, Optional, Tuple

from repro.mapreduce import wire
from repro.mapreduce.config import ExecutionSettings, execution_settings

#: Task callable: index -> result.  Results must not depend on *when* or
#: *where* the call runs — the backends only promise index order.
TaskFn = Callable[[int], object]

#: Set in forked pool workers (via the pool initializer) so nested
#: ``get_backend`` calls degrade to serial instead of forking again.
_IN_WORKER = False

#: Thread-local mirror of the same guard for the thread backend: a task
#: already running on the pool must not fan out onto the pool again (all
#: workers could end up blocked waiting on sub-tasks queued behind them).
_TLS = threading.local()

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
    global _IN_WORKER
    _IN_WORKER = True


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
            _TLS.in_task = True
            try:
                return fn(index)
            finally:
                _TLS.in_task = False

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


# -- resilience policy of the distributed backend --------------------------

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


class _WorkerLost(Exception):
    """Internal: a worker daemon vanished mid-conversation (retryable)."""


class _RemoteTaskError(Exception):
    """Internal: the task itself raised on the worker (NOT retryable)."""

    def __init__(self, original: BaseException) -> None:
        super().__init__(str(original))
        self.original = original


class _WorkerHandle:
    """Coordinator-side state for one worker daemon.

    Two TCP connections per worker: a *task* connection carrying the
    register/task/unregister conversation, and a *heartbeat* connection
    on which a daemon thread pings every ``heartbeat_s`` seconds.  A
    missed heartbeat (or any socket error) marks the worker dead and
    shuts both sockets down, which wakes a dispatcher blocked in
    ``recv`` — so a frozen host is detected even while a task is
    nominally "running" on it, without imposing any per-task timeout on
    legitimately slow tasks.
    """

    def __init__(self, addr: str, heartbeat_s: float, connect_timeout_s: float):
        self.addr = addr
        self.heartbeat_s = heartbeat_s
        self.connect_timeout_s = connect_timeout_s
        self.dead = threading.Event()
        #: Set when the worker was removed from the fleet by a live
        #: reconfiguration: dispatchers finish the in-flight task, then
        #: stop pulling and close the handle — a drain, not a kill.
        self.draining = threading.Event()
        self._task_sock = None
        self._heartbeat_sock = None
        self._io_lock = threading.Lock()

    # -- lifecycle ------------------------------------------------------

    def connect(self) -> bool:
        """Dial both connections + hello handshake; False on any failure."""
        try:
            self._task_sock, info = wire.dial(self.addr, self.connect_timeout_s)
            if not wire.compatible(info):
                self.mark_dead()
                return False
            self._task_sock.settimeout(None)
            self._heartbeat_sock = wire.connect(self.addr, self.connect_timeout_s)
            threading.Thread(
                target=self._heartbeat_loop,
                daemon=True,
                name=f"repro-heartbeat-{self.addr}",
            ).start()
            return True
        except OSError:
            self.mark_dead()
            return False

    def mark_dead(self) -> None:
        """Flag the worker lost and shut both sockets (wakes blocked I/O)."""
        self.dead.set()
        for sock in (self._task_sock, self._heartbeat_sock):
            if sock is not None:
                wire.close_socket(sock)
        self._task_sock = None
        self._heartbeat_sock = None

    @property
    def alive(self) -> bool:
        return self._task_sock is not None and not self.dead.is_set()

    # -- heartbeat ------------------------------------------------------

    def _heartbeat_loop(self) -> None:
        sock = self._heartbeat_sock
        if sock is None:  # pragma: no cover - lost before the thread ran
            return
        sequence = 0
        sock.settimeout(max(self.heartbeat_s * 2, 0.2))
        while not self.dead.is_set():
            sequence += 1
            try:
                wire.send_frame(sock, ("ping", sequence))
                reply = wire.recv_frame(sock)
                if reply != ("pong", sequence):
                    raise ConnectionError("bad pong")
            except (OSError, ConnectionError):
                self.mark_dead()
                return
            self.dead.wait(self.heartbeat_s)

    # -- conversation (single dispatcher thread per handle) -------------

    def _roundtrip(self, message: Tuple) -> Tuple:
        with self._io_lock:
            sock = self._task_sock
            if sock is None or self.dead.is_set():
                raise _WorkerLost(self.addr)
            try:
                wire.send_frame(sock, message)
                reply = wire.recv_frame(sock)
            except (OSError, ConnectionError) as exc:
                self.mark_dead()
                raise _WorkerLost(self.addr) from exc
        if not isinstance(reply, tuple) or not reply:
            self.mark_dead()
            raise _WorkerLost(self.addr)
        return reply

    def register(
        self,
        token: int,
        slim: bytes,
        blobs: Dict[str, bytes],
        account: Callable[[str, int], None],
    ) -> None:
        """Register-by-digest: probe the worker's blob store, ship only
        the missing payloads, then register the slim closure against the
        digest list.  A ``register-missing`` reply (a payload evicted or
        found corrupt between the probe and the register) re-puts those
        bytes and retries once — the delete-and-refetch path."""
        digests = list(blobs)
        if digests:
            reply = self._roundtrip(("blob-has", digests))
            if reply[0] != "blob-have":
                self.mark_dead()
                raise _WorkerLost(f"{self.addr}: {reply!r}")
            missing = [digest for digest in reply[1] if digest in blobs]
            for digest in digests:
                if digest not in missing:
                    account("blob_hits", 1)
                    account("blob_bytes_reused", len(blobs[digest]))
            self._put_blobs(missing, blobs, account)
        reply = self._roundtrip(("register", token, slim, digests))
        account("bytes_shipped", len(slim))
        account("registrations", 1)
        if reply[0] == "register-missing":
            self._put_blobs(
                [digest for digest in reply[2] if digest in blobs], blobs, account
            )
            reply = self._roundtrip(("register", token, slim, digests))
            account("bytes_shipped", len(slim))
        if reply[0] != "registered":
            # The worker could not rebuild the closure (e.g. missing
            # module); treat it like a lost worker so others / the local
            # fallback pick the tasks up.
            self.mark_dead()
            raise _WorkerLost(f"{self.addr}: {reply!r}")

    def _put_blobs(
        self,
        digests: List[str],
        blobs: Dict[str, bytes],
        account: Callable[[str, int], None],
    ) -> None:
        for digest in digests:
            reply = self._roundtrip(("blob-put", digest, blobs[digest]))
            if reply[0] != "blob-stored":
                self.mark_dead()
                raise _WorkerLost(f"{self.addr}: {reply!r}")
            account("blob_puts", 1)
            account("bytes_shipped", len(blobs[digest]))

    def run_task(self, token: int, index: int) -> object:
        reply = self._roundtrip(("task", token, index))
        if len(reply) == 3 and reply[0] == "result" and reply[1] == index:
            return reply[2]
        if len(reply) == 3 and reply[0] == "task-error":
            raise _RemoteTaskError(reply[2])
        # Wrong kind, wrong arity, wrong index: a corrupt or skewed peer.
        self.mark_dead()
        raise _WorkerLost(f"{self.addr}: unexpected reply {reply[:1]!r}")

    def unregister(self, token: int) -> None:
        try:
            self._roundtrip(("unregister", token))
        except _WorkerLost:
            pass  # best-effort: the connection's registry dies with it


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

    Degradation is always to correctness: no reachable workers, an
    unshippable closure, or a missing cloudpickle simply run the batch
    in-line (with a one-time note), never fail it — unless strict-fleet
    mode (``REPRO_STRICT_FLEET=1``) turns those degradations into
    structured :class:`~repro.errors.FleetExhausted` failures.  Strict
    mode and the retry budget (``REPRO_TASK_RETRIES``) are read per
    batch on the calling thread, so ``repro serve`` can scope them per
    query over the one backend instance every session shares.

    Cancellation: ``run_tasks`` captures the calling thread's
    :class:`~repro.mapreduce.cancel.CancellationToken` (if any).  A fired
    token stops dispatchers from pulling new indices, **abandons**
    in-flight indices of lost workers instead of re-queueing them (a
    dead-by-deadline query must not spend the retry budget), and raises
    the matching taxonomy error after the dispatchers settle — never the
    local fallback.

    Elasticity: :meth:`reconfigure` changes the worker address set of a
    *live* coordinator — removed workers drain (finish their in-flight
    task, take no new ones), added ones are dialed with the existing
    backoff machinery at the next batch.  ``repro serve`` drives this
    from its fleet-reconfiguration endpoint.
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
        self._handles: Dict[str, _WorkerHandle] = {}
        #: addr -> (next batch number allowed to redial, consecutive
        #: failures); exponential backoff so a down host costs a connect
        #: attempt only occasionally, while a *restarted* daemon on the
        #: same address rejoins the pool within a few batches.
        self._redial: Dict[str, Tuple[int, int]] = {}
        self._batches = 0
        self._noted_degraded = False
        self._next_token = 0
        #: Guards addrs/handles/redial — ``run_tasks`` may now be called
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
        #: Per-worker circuit breaker: addr -> {failures, trips,
        #: open_until}.  A worker that keeps dying mid-batch trips the
        #: breaker and is quarantined (no dial, no dispatch) until batch
        #: number ``open_until``; the cooldown doubles with each trip so
        #: a flapping daemon costs reconnect churn only occasionally,
        #: while a recovered one halves its trip count per clean batch
        #: and soon rejoins at full trust.  Guarded by ``self._lock``.
        self._breaker: Dict[str, Dict[str, int]] = {}

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

    def reconfigure(self, addrs) -> Dict[str, List[str]]:
        """Re-point this live coordinator at a new worker address set.

        Removed addresses *drain*: their in-flight task completes, no new
        index is pulled, and the handle closes when its dispatcher exits
        (immediately when no batch is active).  Added addresses become
        dial-eligible at the next batch with fresh backoff state.  The
        degradation note resets — a changed fleet deserves a fresh
        verdict.
        """
        addrs = tuple(addrs)
        with self._lock:
            old = self.addrs
            if addrs == old:
                return {"added": [], "removed": [], "kept": list(old)}
            removed = [addr for addr in old if addr not in addrs]
            added = [addr for addr in addrs if addr not in old]
            self.addrs = addrs
            drained: List[_WorkerHandle] = []
            for addr in removed:
                handle = self._handles.pop(addr, None)
                self._redial.pop(addr, None)
                if handle is not None:
                    handle.draining.set()
                    drained.append(handle)
            for addr in added:
                self._redial.pop(addr, None)
            self._noted_degraded = False
        with self._inflight_lock:
            idle = self.tasks_in_flight == 0
        if idle:
            # No batch is dispatching, so no dispatcher will ever reach
            # the drained handles' close path: close them here.
            for handle in drained:
                handle.mark_dead()
        return {
            "added": added,
            "removed": removed,
            "kept": [addr for addr in addrs if addr in old],
        }

    # -- circuit breaker -------------------------------------------------

    def _record_worker_loss(self, addr: str) -> None:
        """One batch ended with ``addr`` dead; trip its breaker at
        :data:`BREAKER_THRESHOLD` consecutive losses for an exponentially
        growing number of batches."""
        with self._lock:
            state = self._breaker.setdefault(
                addr, {"failures": 0, "trips": 0, "open_until": 0}
            )
            state["failures"] += 1
            tripped = state["failures"] >= BREAKER_THRESHOLD
            if tripped:
                state["open_until"] = self._batches + (
                    BREAKER_COOLDOWN_BATCHES * 2 ** min(state["trips"], 6)
                )
                state["trips"] += 1
                state["failures"] = 0
        if tripped:
            self._account("breaker_trips", 1)

    def _record_worker_ok(self, addr: str) -> None:
        """A clean batch on ``addr``: reset its loss streak, decay trust
        debt (trips halve, so past flapping is forgiven gradually)."""
        with self._lock:
            state = self._breaker.get(addr)
            if state is not None:
                state["failures"] = 0
                state["trips"] //= 2

    def breaker_state(self) -> Dict[str, Dict[str, int]]:
        """Snapshot of per-worker breaker state (``repro serve stats``)."""
        with self._lock:
            return {addr: dict(state) for addr, state in self._breaker.items()}

    def _live_handles(self) -> List[_WorkerHandle]:
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
            breaker = self._breaker.get(addr)
            if breaker is not None and self._batches < breaker.get("open_until", 0):
                self._account("breaker_skips", 1)
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
            handle = _WorkerHandle(addr, self.heartbeat_s, self.connect_timeout_s)
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
        if count <= 1:
            return [fn(index) for index in range(count)]
        from repro.errors import FleetExhausted
        from repro.mapreduce.cancel import current_token

        # All are read on the *calling* thread, so a serve session's
        # per-query scope (knobs + cancellation token) travels with the
        # batch even though this backend instance is shared.
        token = current_token()
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
        if not wire.closure_transport_available():
            return degraded("cloudpickle unavailable")
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
        handles: List[_WorkerHandle],
        cancel_token,
        strict: bool,
        task_retries: int,
    ) -> List[object]:
        from repro.errors import FleetExhausted

        with self._lock:
            self._next_token += 1
            token = self._next_token

        pending = deque(range(count))
        results: Dict[int, object] = {}
        attempts = [0] * count
        failure: List[Optional[BaseException]] = [None]
        in_flight = [0]
        cond = threading.Condition()

        # -- straggler hedging (all state guarded by ``cond``) ----------
        # When the batch's tail is one slow in-flight task and other
        # dispatchers are idle, an idle worker re-dispatches a *copy* of
        # the straggling index instead of waiting.  Exactly-once folding
        # (``results.setdefault``) makes the duplicate completion safe —
        # first finisher wins, the loser's value is dropped — so hedging
        # cannot change outputs, only latency.  A hedge does not burn
        # the index's retry budget (``attempts``): it is extra capacity
        # spent, not a failure observed.
        hedge_on = HEDGE_MAX_PER_TASK > 0 and len(handles) > 1
        durations: List[float] = []  # completed-task wall times, this batch
        dispatched_at: Dict[int, float] = {}  # index -> primary dispatch time
        inflight_of: Dict[int, int] = {}  # index -> copies on the wire
        hedge_count: Dict[int, int] = {}  # index -> hedges launched

        def fired() -> bool:
            return cancel_token is not None and cancel_token.fired() is not None

        def pick_hedge_locked() -> Optional[int]:
            """The most-overdue hedgeable index, or None.  ``cond`` held.

            "Overdue" is quantile-based per the batch's own completed
            tasks (the ``HEDGE_*`` policy at the top of this module)."""
            if len(durations) < max(1, HEDGE_MIN_SAMPLES):
                return None
            ordered = sorted(durations)
            rank = min(len(ordered) - 1, int(HEDGE_QUANTILE * len(ordered)))
            now = time.monotonic()
            best, best_elapsed = None, ordered[rank] * HEDGE_FACTOR
            for index, started in dispatched_at.items():
                if index in results or inflight_of.get(index, 0) <= 0:
                    continue
                if hedge_count.get(index, 0) >= HEDGE_MAX_PER_TASK:
                    continue
                elapsed = now - started
                if elapsed > best_elapsed:
                    best, best_elapsed = index, elapsed
            return best

        def pull_tasks(handle: _WorkerHandle) -> None:
            while True:
                with cond:
                    # An idle dispatcher must not exit while a peer still
                    # holds an index in flight: if that peer's worker dies
                    # its index is re-queued, and this survivor is the one
                    # meant to retry it.  The 50 ms poll also bounds how
                    # long an expired deadline or a drain goes unnoticed
                    # while idling — and is where an idle survivor spots
                    # a straggler worth hedging.
                    is_hedge = False
                    while (
                        failure[0] is None
                        and not fired()
                        and not handle.draining.is_set()
                        and not pending
                        and in_flight[0] > 0
                    ):
                        if hedge_on:
                            candidate = pick_hedge_locked()
                            if candidate is not None:
                                index = candidate
                                is_hedge = True
                                break
                        cond.wait(0.05)
                    if not is_hedge:
                        if (
                            failure[0] is not None
                            or fired()
                            or handle.draining.is_set()
                            or not pending
                        ):
                            return
                        index = pending.popleft()
                        attempts[index] += 1
                        dispatched_at[index] = time.monotonic()
                    else:
                        hedge_count[index] = hedge_count.get(index, 0) + 1
                    inflight_of[index] = inflight_of.get(index, 0) + 1
                    in_flight[0] += 1
                    self._track_inflight(+1)
                if is_hedge:
                    self._account("hedges_launched", 1)
                try:
                    value = handle.run_task(token, index)
                except _RemoteTaskError as exc:
                    with cond:
                        failure[0] = exc.original
                        in_flight[0] -= 1
                        inflight_of[index] = inflight_of.get(index, 1) - 1
                        self._track_inflight(-1)
                        cond.notify_all()
                    return
                except BaseException:
                    # _WorkerLost — or anything unforeseen in the
                    # conversation: either way this dispatcher is done
                    # and MUST balance in_flight, or idle peers would
                    # wait on it forever.
                    handle.mark_dead()
                    with cond:
                        in_flight[0] -= 1
                        inflight_of[index] = inflight_of.get(index, 1) - 1
                        self._track_inflight(-1)
                        # Retry on the survivors while budget remains —
                        # unless the query is already cancelled or past
                        # its deadline, in which case the index is
                        # *abandoned*: re-running work nobody will read
                        # would spend fleet capacity other queries need.
                        # A hedged index with another copy still on the
                        # wire is not re-queued either — the survivor IS
                        # the retry.
                        if (
                            not fired()
                            and index not in results
                            and inflight_of.get(index, 0) <= 0
                            and attempts[index] <= task_retries
                        ):
                            pending.append(index)
                        cond.notify_all()
                    return
                with cond:
                    # Exactly-once folding: the first completion of an
                    # index wins; a zombie's (or hedge loser's) late
                    # duplicate is dropped.
                    first = index not in results
                    results.setdefault(index, value)
                    if first:
                        durations.append(
                            time.monotonic()
                            - dispatched_at.get(index, time.monotonic())
                        )
                    in_flight[0] -= 1
                    inflight_of[index] = inflight_of.get(index, 1) - 1
                    self._track_inflight(-1)
                    cond.notify_all()
                if first and is_hedge:
                    self._account("hedge_wins", 1)

        def dispatcher(handle: _WorkerHandle) -> None:
            try:
                handle.register(token, slim, blobs, self._account)
            except _WorkerLost:
                return
            try:
                pull_tasks(handle)
            finally:
                # Free the shipped closure on every exit path — a task
                # error must not leak the registration (unregister of a
                # lost worker is a no-op).
                handle.unregister(token)
                if handle.draining.is_set():
                    # Drained by a live reconfiguration: this dispatcher
                    # owns the close once its last round-trip finished.
                    handle.mark_dead()

        threads = [
            threading.Thread(
                target=dispatcher,
                args=(handle,),
                daemon=True,
                name=f"repro-dispatch-{handle.addr}",
            )
            for handle in handles
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        # Feed the circuit breaker: every worker that ended this batch
        # dead counts a loss against its address (drained handles were
        # closed deliberately — not the worker's fault); every survivor
        # counts a clean batch.  Recorded after the join so a single
        # batch scores each worker exactly once.
        for handle in handles:
            if handle.draining.is_set():
                continue
            if handle.dead.is_set():
                self._record_worker_loss(handle.addr)
            else:
                self._record_worker_ok(handle.addr)

        if failure[0] is not None:
            raise failure[0]
        if cancel_token is not None:
            # A fired token raises here (cancelled/deadline taxonomy):
            # unresolved indices stay abandoned — no local fallback for a
            # query nobody is waiting on.
            cancel_token.check()
        # Anything unresolved (all workers lost, retry budget exhausted)
        # runs locally — each missing index exactly once, in index order.
        missing = [index for index in range(count) if index not in results]
        if missing:
            if strict:
                raise FleetExhausted(
                    f"{len(missing)} task(s) exhausted the worker fleet",
                    details={"missing_tasks": len(missing)},
                )
            self._note_degraded(
                f"{len(missing)} task(s) fell back to local execution"
            )
            for index in missing:
                results[index] = fn(index)
        return [results[index] for index in range(count)]

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
    """The process-wide backend for ``settings`` (default: environment).

    Inside a forked pool worker (or a thread-backend task) this always
    returns the serial backend, whatever the environment says — pool
    workers are daemonic and must not fork grandchildren, and thread
    tasks must not fan out onto their own pool.
    """
    if _IN_WORKER or getattr(_TLS, "in_task", False):
        return _SERIAL
    if settings is None:
        settings = execution_settings()
    if not settings.parallel:
        return _SERIAL
    if settings.backend == "distributed":
        # One live coordinator per process, whatever the caller's knobs
        # or address list: a fleet change (scaling under a live ``repro
        # serve``) *reconfigures* it (drain removed workers, dial added
        # ones) rather than abandon its handles and dial a cold twin,
        # and the heartbeat/connect timings are fixed when it is built.
        key: object = "distributed"
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
    if settings.backend == "distributed":
        if tuple(backend.addrs) != tuple(settings.workers_addrs):
            backend.reconfigure(settings.workers_addrs)
    return backend


def live_distributed_backend() -> Optional[DistributedBackend]:
    """The process's one distributed backend, if it was ever built
    (``repro serve`` reads its counters and re-points its fleet)."""
    with _BACKENDS_LOCK:
        return _BACKENDS.get("distributed")  # type: ignore[return-value]


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
