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
the task runs in a query context marked ``in_task``, with the settings
the server resolved once when it was built, so nested ``get_backend()``
calls return the serial backend (a remote task — a whole job, say —
must never fan out onto another pool), and task callables rebuilt from
shipped closures run against the same imported ``repro`` modules the
coordinator used.  Task code that raises is a result, not a fault: the
exception travels back and re-raises at the coordinator, as on every
other backend.  The blob tier (disk store plus decoded-object LRU)
belongs to the server too, shared by all its connections.

No verb stops the daemon or changes how it runs a task; it stops on
SIGTERM or ctrl-C (:meth:`~repro.mapreduce.wire.FrameServer.run`).

The daemon's heap is steady (:func:`steady_heap`, set by :func:`serve`
before the server starts): the pages one task's output occupied are kept
for the next task instead of going back to the kernel and being faulted
in again — thousands of minor faults and several ms of system time per
warm ``dist2_chain`` query before.  The cost is that an idle daemon's
resident set stays at its high-water mark (about 52 MiB on that
workload, against about 39 MiB when it returned the pages).
"""

from __future__ import annotations

import ctypes
import pickle
import threading
from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from repro.mapreduce import wire
from repro.mapreduce.config import (
    EXEC_BACKEND_ENV,
    EXEC_WORKERS_ENV,
    WORKERS_ADDRS_ENV,
    ExecutionSettings,
    query_scope,
)
from repro.storage import LRUTable, blob_digest, blob_tier

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

#: glibc heap policy of a ``repro worker serve`` process
#: (:func:`steady_heap`): blocks up to 32 MiB, the 64-bit maximum, come
#: from the heap rather than their own mmap, and free memory at the top
#: of the heap goes back to the kernel only past 64 MiB.  Both are set
#: because any ``mallopt`` call also switches off glibc's dynamic mmap
#: threshold; either one alone still faults thousands of pages per task.
#: The trim threshold must exceed what one task frees: about 14 MiB on
#: the ``dist2_chain`` query (16 MiB suffices there, 8 MiB does not) and
#: about 37 MiB on the same chain query at 500 rows, where 32 MiB still
#: faulted 6.6k pages per task and 64 MiB held them as 256 MiB did.
MMAP_THRESHOLD_BYTES = 32 << 20
TRIM_THRESHOLD_BYTES = 64 << 20

#: ``mallopt`` parameter numbers from glibc's ``<malloc.h>``.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


class WorkerServer(wire.FrameServer):
    """One worker daemon: the frame server plus the task verbs."""

    name = "repro-worker"

    def __init__(self, host: str = "127.0.0.1", port: int = 0) -> None:
        super().__init__(host, port)
        #: Read from the environment once (a server belongs to no query):
        #: no verb reads it again, and every task runs under these
        #: settings with ``in_task`` set.
        self.settings = ExecutionSettings.from_env()
        #: The blob tier every connection of this daemon shares: the
        #: verified disk store under the cache directory, and above it
        #: an LRU of decoded payload objects.
        self.blob_store = blob_tier(self.settings)
        self.blob_objects = LRUTable(BLOB_MEM_ENTRIES)
        self._blob_lock = threading.Lock()

    # -- the blob tier ----------------------------------------------------

    def _fetch_blob_object(self, digest: str) -> object:
        """Resolve one digest to its decoded payload object: memory tier
        first, then the verified disk tier; a body blob's nested payload
        references recurse right back through here.  Raises
        :class:`~repro.mapreduce.wire.BlobMissing` for an absent digest; an
        undecodable-but-verified payload is discarded and reported missing
        too, so the coordinator's re-put repairs it (delete-and-refetch)."""
        with self._blob_lock:
            hit, obj = self.blob_objects.lookup(digest)
        if hit:
            return obj
        payload = self.blob_store.get(digest)
        if payload is None:
            raise wire.BlobMissing(digest)
        try:
            obj = wire.load_payload(payload, self._fetch_blob_object)
        except wire.BlobMissing:
            raise
        except Exception:
            self.blob_store.discard(digest)
            raise wire.BlobMissing(digest)
        with self._blob_lock:
            self.blob_objects.store(digest, obj)
        return obj

    def _load_blob_objects(self, digests) -> Tuple[List[str], Dict[str, object]]:
        """Resolve digests to decoded payload objects; returns
        ``(missing, objects)`` with every unresolvable digest (absent,
        corrupt, or undecodable — including one a body blob references
        transitively) collected into ``missing``."""
        missing: List[str] = []
        objects: Dict[str, object] = {}
        for digest in digests:
            try:
                objects[digest] = self._fetch_blob_object(digest)
            except wire.BlobMissing as exc:
                if exc.digest not in missing:
                    missing.append(exc.digest)
        return missing, objects

    # -- the frame server -------------------------------------------------

    def connection_state(self) -> "OrderedDict[int, object]":
        """The connection's token registry (bounded LRU)."""
        return OrderedDict()

    def handle(
        self, message: Tuple, registry: "OrderedDict[int, object]"
    ) -> Optional[Tuple]:
        kind = message[0]
        if kind == "register":
            _kind, token, slim, digests = message
            try:
                missing, objects = self._load_blob_objects(digests)
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
            with self._blob_lock:
                cached = {d for d in digests if self.blob_objects.lookup(d)[0]}
            missing = [
                digest
                for digest in digests
                if digest not in cached and not self.blob_store.has(digest)
            ]
            return ("blob-have", missing)
        if kind == "blob-put":
            _kind, digest, payload = message
            if self.blob_store.put(digest, payload):
                return ("blob-stored", digest)
            # Unwritable disk is survivable if the payload at least
            # decodes into the memory tier; a digest mismatch is not.
            try:
                if blob_digest(payload) != digest:
                    raise ValueError("payload does not match its digest")
                obj = wire.load_payload(payload, self._fetch_blob_object)
                with self._blob_lock:
                    self.blob_objects.store(digest, obj)
            except Exception as exc:
                return ("blob-error", digest, f"{type(exc).__name__}: {exc}")
            return ("blob-stored", digest)
        if kind == "unregister":
            registry.pop(message[1], None)
            return ("unregistered", message[1])
        if kind == "task":
            _kind, token, index = message
            fn = registry.get(token)
            if fn is None:
                return ("task-error", index, KeyError(f"unknown token {token}"))
            registry.move_to_end(token)  # live tokens stay off the LRU floor
            try:
                # A remote task never fans out again (a whole job runs its
                # phases in line here), in a daemon or an in-process server.
                with query_scope(settings=self.settings, in_task=True):
                    value = fn(index)
            except BaseException as exc:  # noqa: BLE001 - travels to coordinator
                return ("task-error", index, _portable_exception(exc))
            return ("result", index, value)
        return self.error_reply(f"unknown message kind {kind!r}")


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


def spawn_daemon():
    """Spawn one ``repro worker serve`` subprocess on an OS-assigned port.

    Returns ``(proc, addr)`` (:func:`repro.mapreduce.wire.spawn_listening`).
    The child gets a scrubbed execution environment — no inherited
    backend/addrs vars: remote tasks must never recursively dispatch.
    Shared by the test harness and the benchmark.
    """
    return wire.spawn_listening(
        ("-m", "repro.cli", "worker", "serve", "--port", "0"),
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


def steady_heap() -> None:
    """Make this process keep the heap pages its tasks free.

    A task's output is freed once its reply is sent; with glibc's
    defaults the large blocks go straight back to the kernel and the next
    task faults them in again.  Sets :data:`MMAP_THRESHOLD_BYTES` and
    :data:`TRIM_THRESHOLD_BYTES` through ``mallopt``; where there is no
    glibc it does nothing.  Only :func:`serve` calls it: an in-process
    :class:`WorkerServer` leaves its host process's allocator alone.
    """
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return
    mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD_BYTES)
    mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD_BYTES)


def serve(host: str, port: int) -> int:
    """CLI entry: run one worker daemon until SIGTERM or ctrl-C, with a
    steady heap (:func:`steady_heap`)."""
    steady_heap()
    return WorkerServer(host=host, port=port).run()
