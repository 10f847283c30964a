"""The distributed backend's worker daemon.

``repro worker serve --host 127.0.0.1 --port 7601`` runs one of these:
a long-lived :class:`~repro.mapreduce.wire.FrameServer` that accepts
coordinator connections and speaks the :mod:`repro.mapreduce.wire`
protocol.  Each connection gets its own handler thread and its own
registration namespace (register / task / unregister), so several
coordinators can share one daemon and a dropped connection frees
everything it registered — the remote counterpart of the fork
registry's copy-on-write lifetime.

Inside a task the worker behaves exactly like a forked pool worker:
the task runs under ``backend.running_task()``, so nested
``get_backend()`` calls return the serial backend (a remote task — a
whole job, say — must never fan out onto another pool), and task
callables rebuilt from shipped closures run against the same imported
``repro`` modules the coordinator used.

Fault injection (tests only)
----------------------------
``--fail-after-tasks N --fail-mode kill|stall`` arms a fault that fires
when the N-th task *starts*:

* ``kill``  — the process exits immediately (``os._exit``), as a crashed
  host would: every socket dies and the coordinator's dispatcher sees a
  broken connection at once.
* ``stall`` — the daemon stops responding on *every* connection,
  heartbeats included, as a frozen host would: the coordinator's
  heartbeat thread is what must notice.

A third mode, ``drop``, closes all sockets but leaves the process alive;
it exists for in-process tests (property-based suites run WorkerServer
on a thread, where ``os._exit`` would take the test runner with it).
A fourth, ``slow``, sleeps ``delay_s`` before *every* task from the
N-th on — a degraded-but-alive host, the shape that stresses deadline
budgets rather than retry logic.  These flags simulate infrastructure
loss — task *code* that raises is not a fault, it is a result (the
exception travels back and re-raises at the coordinator, matching every
other backend).

Faults can also be **armed over the wire**: a ``("fault", mode,
after_tasks, delay_s)`` message replaces the server's fault spec and
resets its task counter.  That is what the serve-mode chaos harness
(:mod:`repro.serve.chaos`) uses to script kill/stall/slow schedules
against live daemons without restarting them.
"""

from __future__ import annotations

import os
import pickle
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.mapreduce import wire
from repro.mapreduce.backend import running_task
from repro.mapreduce.config import (
    EXEC_BACKEND_ENV,
    EXEC_WORKERS_ENV,
    WORKERS_ADDRS_ENV,
    execution_settings,
)
from repro.storage import LRUTable, blob_digest, blob_tier

FAULT_MODES = ("kill", "stall", "drop", "slow")

#: Per-connection registration cap: a long-lived coordinator connection
#: whose unregisters get lost (a dispatcher death mid-batch, say) must
#: not grow worker RSS without bound.  Live tokens are LRU-refreshed on
#: every task, and concurrent registrations per connection are bounded
#: by the coordinator's concurrent batches (a handful), so eviction only
#: ever reaps leaked entries.
REGISTRY_MAX_ENTRIES = 64

#: Entry cap of the daemon's in-memory decoded-payload cache (LRU above
#: the disk blob tier).
BLOB_MEM_ENTRIES = 64


# -- the blob tier (shared by every connection of this daemon) ----------

_BLOB_LOCK = threading.Lock()
_BLOB_STORE = None
_BLOB_STORE_ROOT = None
_BLOB_OBJECTS = None


def _blob_store():
    """This daemon's disk blob tier, built lazily under the environment's
    cache directory and rebuilt if that changes (tests repoint it
    between servers)."""
    global _BLOB_STORE, _BLOB_STORE_ROOT, _BLOB_OBJECTS
    settings = execution_settings()
    root = settings.resolved_cache_dir() / "blobs"
    with _BLOB_LOCK:
        if _BLOB_STORE is None or _BLOB_STORE_ROOT != root:
            _BLOB_STORE = blob_tier(settings)
            _BLOB_STORE_ROOT = root
            _BLOB_OBJECTS = LRUTable(BLOB_MEM_ENTRIES)
        return _BLOB_STORE


def _cache_blob_object(digest: str, obj: object) -> None:
    with _BLOB_LOCK:
        if _BLOB_OBJECTS is not None:
            _BLOB_OBJECTS.store(digest, obj)


def _cached_blob_object(digest: str) -> Tuple[bool, object]:
    with _BLOB_LOCK:
        if _BLOB_OBJECTS is None:
            return False, None
        return _BLOB_OBJECTS.lookup(digest)


def reset_blob_state() -> None:
    """Drop the daemon-wide blob store/object cache (tests only)."""
    global _BLOB_STORE, _BLOB_STORE_ROOT, _BLOB_OBJECTS
    with _BLOB_LOCK:
        _BLOB_STORE = None
        _BLOB_STORE_ROOT = None
        _BLOB_OBJECTS = None


def _fetch_blob_object(digest: str) -> object:
    """Resolve one digest to its decoded payload object: memory tier
    first, then the verified disk tier; a body blob's nested payload
    references recurse right back through here.  Raises
    :class:`~repro.mapreduce.wire.BlobMissing` for an absent digest; an
    undecodable-but-verified payload is discarded and reported missing
    too, so the coordinator's re-put repairs it (delete-and-refetch)."""
    hit, obj = _cached_blob_object(digest)
    if hit:
        return obj
    store = _blob_store()
    payload = store.get(digest)
    if payload is None:
        raise wire.BlobMissing(digest)
    try:
        obj = wire.load_payload(payload, _fetch_blob_object)
    except wire.BlobMissing:
        raise
    except Exception:
        store.discard(digest)
        raise wire.BlobMissing(digest)
    _cache_blob_object(digest, obj)
    return obj


def _load_blob_objects(digests) -> Tuple[List[str], Dict[str, object]]:
    """Resolve digests to decoded payload objects; returns
    ``(missing, objects)`` with every unresolvable digest (absent,
    corrupt, or undecodable — including one a body blob references
    transitively) collected into ``missing``."""
    missing: List[str] = []
    objects: Dict[str, object] = {}
    for digest in digests:
        try:
            objects[digest] = _fetch_blob_object(digest)
        except wire.BlobMissing as exc:
            if exc.digest not in missing:
                missing.append(exc.digest)
    return missing, objects


@dataclass(frozen=True)
class FaultSpec:
    """Test-only fault: fire ``mode`` when task number ``after_tasks`` starts.

    ``slow`` mode keeps firing: every task from the ``after_tasks``-th on
    sleeps ``delay_s`` first.  The terminal modes fire exactly once.
    """

    mode: str
    after_tasks: int
    delay_s: float = 0.0

    def __post_init__(self) -> None:
        if self.mode not in FAULT_MODES:
            raise ValueError(f"fault mode must be one of {FAULT_MODES}")
        if self.after_tasks < 1:
            raise ValueError("after_tasks must be >= 1")
        if self.delay_s < 0:
            raise ValueError("delay_s must be >= 0")


class WorkerServer(wire.FrameServer):
    """One worker daemon: the frame server plus the task verbs."""

    name = "repro-worker"

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        fault: Optional[FaultSpec] = None,
    ) -> None:
        super().__init__(host, port)
        self.fault = fault
        self._lock = threading.Lock()
        #: Tasks this daemon started since it started or a fault was
        #: last armed (what ``FaultSpec.after_tasks`` counts).
        self.tasks_started = 0
        self._stalled = threading.Event()

    def connection_state(self) -> "OrderedDict[int, object]":
        """The connection's token registry (bounded LRU)."""
        return OrderedDict()

    def before_handle(self) -> None:
        if self._stalled.is_set():
            # A "frozen host": never answer anything again.
            threading.Event().wait()

    def handle(
        self, message: Tuple, registry: "OrderedDict[int, object]"
    ) -> Optional[Tuple]:
        kind = message[0]
        if kind == "register":
            _kind, token, slim, digests = message
            try:
                missing, objects = _load_blob_objects(digests)
                if missing:
                    # Evicted or corrupt since the coordinator's
                    # blob-has: ask for exactly those bytes again.
                    return ("register-missing", token, missing)
                fn = wire.join_task_fn(slim, objects.__getitem__)
            except Exception as exc:
                return ("register-error", token, f"{type(exc).__name__}: {exc}")
            registry[token] = fn
            registry.move_to_end(token)
            while len(registry) > REGISTRY_MAX_ENTRIES:
                registry.popitem(last=False)
            return ("registered", token)
        if kind == "blob-has":
            _kind, digests = message
            store = _blob_store()
            missing = [
                digest
                for digest in digests
                if not (_cached_blob_object(digest)[0] or store.has(digest))
            ]
            return ("blob-have", missing)
        if kind == "blob-put":
            _kind, digest, payload = message
            store = _blob_store()
            if store.put(digest, payload):
                return ("blob-stored", digest)
            # Unwritable disk is survivable if the payload at least
            # decodes into the memory tier; a digest mismatch is not.
            try:
                if blob_digest(payload) != digest:
                    raise ValueError("payload does not match its digest")
                _cache_blob_object(
                    digest, wire.load_payload(payload, _fetch_blob_object)
                )
            except Exception as exc:
                return ("blob-error", digest, f"{type(exc).__name__}: {exc}")
            return ("blob-stored", digest)
        if kind == "blob-get":
            _kind, digest = message
            return ("blob", digest, _blob_store().get(digest))
        if kind == "unregister":
            registry.pop(message[1], None)
            return ("unregistered", message[1])
        if kind == "task":
            _kind, token, index = message
            fn = registry.get(token)
            if fn is None:
                return ("task-error", index, KeyError(f"unknown token {token}"))
            registry.move_to_end(token)  # live tokens stay off the LRU floor
            self._maybe_fault()
            try:
                # A remote task never fans out again (a whole job runs its
                # phases in line here), in a daemon or an in-process server.
                with running_task():
                    value = fn(index)
            except BaseException as exc:  # noqa: BLE001 - travels to coordinator
                return ("task-error", index, _portable_exception(exc))
            return ("result", index, value)
        if kind == "fault":
            # Chaos-harness arming: replace the fault spec live and reset
            # the task counter so after_tasks counts from *this* arming.
            _kind, mode, after_tasks, delay_s = message
            spec = (
                None
                if mode is None
                else FaultSpec(str(mode), int(after_tasks), float(delay_s))
            )
            with self._lock:
                self.fault = spec
                self.tasks_started = 0
            if spec is None:
                return ("fault-armed", None, 0)
            return ("fault-armed", spec.mode, spec.after_tasks)
        return self.error_reply(f"unknown message kind {kind!r}")

    # -- fault injection --------------------------------------------------

    def _maybe_fault(self) -> None:
        with self._lock:
            self.tasks_started += 1
            started = self.tasks_started
            fault = self.fault
        if fault is None:
            return
        if fault.mode == "slow":
            # Keeps firing: every task from the N-th on runs degraded.
            if started >= fault.after_tasks:
                time.sleep(fault.delay_s)
            return
        if started != fault.after_tasks:
            return
        if fault.mode == "kill":
            os._exit(1)
        if fault.mode == "stall":
            self._stalled.set()
            threading.Event().wait()  # never returns: this task hangs too
        if fault.mode == "drop":
            self.stop()
            raise wire.WireError("connections dropped by fault injection")


def _portable_exception(exc: BaseException) -> object:
    """The exception itself when picklable, else a summary RuntimeError.

    Coordinators re-raise whatever comes back, so a picklable user
    exception (the overwhelmingly common case) propagates with its real
    type — the same observable behaviour as the serial loop.
    """
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return RuntimeError(f"remote task failed: {type(exc).__name__}: {exc}")


def spawn_daemon(extra_args: Tuple[str, ...] = ()):
    """Spawn one ``repro worker serve`` subprocess on an OS-assigned port.

    Returns ``(proc, addr)`` (:func:`repro.mapreduce.wire.spawn_listening`).
    The child gets a scrubbed execution environment — no inherited
    backend/addrs vars: remote tasks must never recursively dispatch.
    Shared by the conformance/fault test harness and the benchmark.
    """
    return wire.spawn_listening(
        ("worker", "serve", "--port", "0", *extra_args),
        env_scrub=(EXEC_BACKEND_ENV, EXEC_WORKERS_ENV, WORKERS_ADDRS_ENV),
    )


def stop_daemons(procs) -> None:
    """Terminate spawned daemons; escalate to kill after a grace period."""
    import subprocess

    for proc in procs:
        if proc.poll() is None:
            proc.terminate()
    for proc in procs:
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:  # pragma: no cover - stuck daemon
            proc.kill()
            proc.wait()


def serve(
    host: str,
    port: int,
    fault: Optional[FaultSpec] = None,
) -> int:
    """CLI entry: run one worker daemon until interrupted."""
    return WorkerServer(host=host, port=port, fault=fault).run()
