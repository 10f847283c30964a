"""Coordinator-side handle of one ``repro worker serve`` daemon.

:class:`~repro.mapreduce.backend.DistributedBackend` holds one
:class:`WorkerHandle` per fleet address: the two connections, the
heartbeat thread, and the register / task / unregister conversation.  A
lost connection surfaces as :class:`WorkerLost` (retry elsewhere), an
exception raised by the task itself as :class:`RemoteTaskError` (fail the
batch).
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, List, Tuple

from repro.mapreduce import wire


class WorkerLost(Exception):
    """A worker daemon vanished mid-conversation (retryable)."""


class RemoteTaskError(Exception):
    """The task itself raised on the worker (NOT retryable)."""

    def __init__(self, original: BaseException) -> None:
        super().__init__(str(original))
        self.original = original


class WorkerHandle:
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
                raise WorkerLost(self.addr)
            try:
                wire.send_frame(sock, message)
                reply = wire.recv_frame(sock)
            except (OSError, ConnectionError) as exc:
                self.mark_dead()
                raise WorkerLost(self.addr) from exc
        if not isinstance(reply, tuple) or not reply:
            self.mark_dead()
            raise WorkerLost(self.addr)
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
                raise WorkerLost(f"{self.addr}: {reply!r}")
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
            raise WorkerLost(f"{self.addr}: {reply!r}")

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
                raise WorkerLost(f"{self.addr}: {reply!r}")
            account("blob_puts", 1)
            account("bytes_shipped", len(blobs[digest]))

    def run_task(self, token: int, index: int) -> object:
        reply = self._roundtrip(("task", token, index))
        if len(reply) == 3 and reply[0] == "result" and reply[1] == index:
            return reply[2]
        if len(reply) == 3 and reply[0] == "task-error":
            raise RemoteTaskError(reply[2])
        # Wrong kind, wrong arity, wrong index: a corrupt or skewed peer.
        self.mark_dead()
        raise WorkerLost(f"{self.addr}: unexpected reply {reply[:1]!r}")

    def unregister(self, token: int) -> None:
        try:
            self._roundtrip(("unregister", token))
        except WorkerLost:
            pass  # best-effort: the connection's registry dies with it
