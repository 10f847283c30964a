"""Wire protocol of the distributed execution backend.

The coordinator (:class:`repro.mapreduce.backend.DistributedBackend`)
and the worker daemons (:mod:`repro.mapreduce.worker`) speak a tiny
message protocol over TCP; the ``repro serve`` coordinator
(:mod:`repro.serve.coordinator`) speaks the same framing to its clients.
Both daemons are one :class:`FrameServer` (listener, accept loop,
connection registry, the per-connection recv → handle → send loop, the
``hello``/``ping`` verbs, the stop on SIGTERM) with their own verbs on
top, and every client side opens its connection with :func:`dial`
(connect + ``hello`` handshake):

* **Framing** — every message is one length-prefixed pickle frame: an
  8-byte big-endian length header followed by that many payload bytes.
  Frames are self-delimiting, so a stream is just frames back to back
  and a torn connection is always detected as a short read, never as a
  silently truncated message.

* **Messages** — plain tuples whose first element is the kind:

  ==============================  =========================================
  ``("hello", info)``              connection handshake; ``info`` carries
                                   the wire-format number, Python version,
                                   and repro version.  Reply:
                                   ``("hello-ack", info)`` with the
                                   worker's own info.
  ``("register", t, slim, ds)``    install the task callable under token
                                   ``t`` for this connection: ``slim`` is
                                   the split closure (see below), ``ds``
                                   the digests of the payload blobs it
                                   references.  Reply ``("registered",
                                   t)``; ``("register-missing", t,
                                   missing)`` when blobs are absent from
                                   the worker's store (the coordinator
                                   re-puts them and retries once);
                                   ``("register-error", t, message)``
                                   when the closure cannot be rebuilt.
  ``("blob-has", ds)``             which of digests ``ds`` the worker's
                                   blob store lacks.  Reply
                                   ``("blob-have", missing)``.
  ``("blob-put", d, payload)``     store ``payload`` under digest ``d``.
                                   Reply ``("blob-stored", d)`` or
                                   ``("blob-error", d, message)`` (digest
                                   mismatch, unwritable store).
  ``("task", t, i)``               run registered callable ``t`` on index
                                   ``i``.  Reply ``("result", i, value)``,
                                   ``("task-error", i, exc)`` (the pickled
                                   exception when picklable, else a
                                   summary string re-raised as
                                   ``RuntimeError``).
  ``("unregister", t)``            drop token ``t``.  Reply
                                   ``("unregistered", t)``.
  ``("ping", n)``                  liveness probe.  Reply ``("pong", n)``.
  ==============================  =========================================

  A frame that is not a non-empty tuple, names an unknown kind, or has
  the wrong arity is answered ``("error", ...)`` and the connection
  keeps serving; only an unframeable byte stream drops it.  No verb
  stops a daemon: the operator sends SIGTERM (or ctrl-C).

  Registrations are **per connection**: tokens are generated by the
  coordinator and live in a bounded LRU owned by the connection handler,
  so two coordinators sharing one daemon can never collide, and a
  dropped connection frees its registrations with it — the remote mirror
  of the fork registry's process lifetime.  Blobs, by contrast, are
  **per worker**: content-addressed payloads outlive connections in the
  daemon's disk tier, which is what makes warm re-runs cheap.

* **Closure shipping** — task callables are build-time-compiled join
  closures that standard pickling rejects, exactly the problem the fork
  registry solved with copy-on-write memory.  Over TCP there is no
  shared memory, so the registered callable is serialized **by value**
  with :mod:`cloudpickle` (code objects, cells, and captured state ship
  inline; anything importable — repro modules, classes, top-level
  functions — ships by reference and is imported on the worker).

* **Closure splitting** — the one way a closure reaches a worker:
  :func:`split_task_fn` separates it into a *slim* executable part and
  content-fingerprinted *payload blobs* (captured record lists, shuffle
  buckets, :class:`~repro.mapreduce.hdfs.DistributedFile` inputs),
  replaced in
  the slim pickle stream by ``persistent_id`` references
  ``("repro-blob", sha256)``.  When the remaining executable body is
  itself heavy (compiled join closures drag their job spec and engine
  along), the body becomes one more content-addressed blob and the slim
  part collapses to a stub reference — a warm re-register then ships a
  few dozen bytes.  Workers rebuild with :func:`join_task_fn`, resolving
  each digest from their blob store (recursively: a body blob's own
  payload references resolve the same way) — so a payload already
  cached from a previous batch (or a previous *query*) is never
  re-shipped.  Digest stability follows from deterministic pickling of
  deterministic pipeline data; a digest that fails to match is only
  ever a **miss** (the bytes are re-sent), never a stale read, because
  the digest *is* the content address.
"""

from __future__ import annotations

import io
import pickle
import signal
import socket
import struct
import sys
import threading
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import cloudpickle
import numpy as np

from repro.errors import ReproError
from repro.storage import blob_digest

#: Bump when the message shapes change; mismatching peers refuse to talk
#: during the hello handshake instead of failing mid-job.  2 = PR 8's
#: blob verbs + split registration; 3 = the unsplit three-tuple
#: ``register`` is gone.  Still 3 without the worker's old fetch-one-blob
#: verb: no coordinator ever sent it, so no sender's messages changed.
WIRE_FORMAT = 3

#: 8-byte big-endian frame length header.
_HEADER = struct.Struct(">Q")

#: Upper bound on one frame; a corrupt header can then never trigger a
#: multi-terabyte allocation.
MAX_FRAME_BYTES = 1 << 31


class WireError(ConnectionError):
    """A peer vanished or sent something unframeable."""


def peer_info() -> dict:
    """This process's side of the hello handshake."""
    try:
        from repro import __version__ as repro_version
    except ImportError:  # pragma: no cover - partial install
        repro_version = "unknown"
    return {
        "format": WIRE_FORMAT,
        "python": tuple(sys.version_info[:2]),
        "repro": repro_version,
        "closures": closure_transport_available(),
    }


def compatible(remote: object) -> bool:
    """Whether a hello/hello-ack ``info`` can safely exchange work.

    Closure blobs embed marshalled code objects, so both ends must run
    the same ``major.minor`` interpreter and the same wire format — and
    the same ``repro`` version: cloudpickle ships importable repro
    symbols *by reference*, so a worker on a skewed checkout would run
    its own (different) join builders and silently break the
    bit-identity guarantee rather than erroring.

    A peer from before cloudpickle became a dependency may announce
    ``closures: False``; it is refused here rather than misdiagnosed as
    a *lost host* on its first register.
    """
    local = peer_info()
    return (
        isinstance(remote, dict)
        and remote.get("format") == WIRE_FORMAT
        and remote.get("python") == local["python"]
        and remote.get("repro") == local["repro"]
        and bool(remote.get("closures"))
    )


# ----------------------------------------------------------------------
# framing
# ----------------------------------------------------------------------


def send_frame(sock: socket.socket, message: object) -> None:
    """Send one length-prefixed pickle frame.

    Raises :class:`WireError` *before* any bytes leave when the encoded
    message exceeds :data:`MAX_FRAME_BYTES` — the receiver would refuse
    the frame anyway (and kill the connection doing it), so an oversized
    reply fails loudly sender-side while the connection is still usable
    for a structured error.
    """
    payload = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    if len(payload) > MAX_FRAME_BYTES:
        raise WireError(
            f"refusing to send a {len(payload)}-byte frame "
            f"(cap {MAX_FRAME_BYTES}); page the payload instead"
        )
    sock.sendall(_HEADER.pack(len(payload)) + payload)


def page_bounds(
    total_rows: int, offset: object, limit: object
) -> Tuple[int, int, Optional[int]]:
    """Normalize a result-page request into ``(start, stop, next_offset)``.

    The wire page shape contract: a page covers ``rows[start:stop]`` of
    the full ordered result, ``next_offset`` is the offset of the page
    after it or ``None`` when this page exhausts the result.  Pages
    therefore concatenate bit-identically to the unpaginated rows —
    ``offset`` past the end yields an empty final page, negative or
    malformed values raise ``ValueError`` (the service maps that to a
    structured error, it never guesses).
    """
    start = 0 if offset is None else offset
    if not isinstance(start, int) or isinstance(start, bool) or start < 0:
        raise ValueError(f"'offset' must be a non-negative integer, got {offset!r}")
    if limit is None:
        stop = total_rows
    else:
        if not isinstance(limit, int) or isinstance(limit, bool) or limit < 1:
            raise ValueError(f"'limit' must be a positive integer, got {limit!r}")
        stop = start + limit
    start = min(start, total_rows)
    stop = min(stop, total_rows)
    next_offset = stop if stop < total_rows else None
    return start, stop, next_offset


def recv_frame(sock: socket.socket) -> object:
    """Receive one frame; raises :class:`WireError` on EOF, reset, or
    corruption (every connection-level failure folds into one type)."""
    try:
        header = _recv_exact(sock, _HEADER.size)
    except WireError:
        raise
    except OSError as exc:  # reset/timeout/closed-by-peer
        raise WireError(f"connection lost reading frame header: {exc}") from exc
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise WireError(f"frame of {length} bytes exceeds the {MAX_FRAME_BYTES} cap")
    try:
        payload = _recv_exact(sock, length)
    except WireError:
        raise
    except OSError as exc:
        raise WireError(f"connection lost mid-frame: {exc}") from exc
    try:
        return pickle.loads(payload)
    except Exception as exc:
        raise WireError(f"undecodable frame: {exc}") from exc


def _recv_exact(sock: socket.socket, count: int) -> bytes:
    chunks = []
    remaining = count
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            raise WireError("connection closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


# ----------------------------------------------------------------------
# closure shipping (register-by-digest)
# ----------------------------------------------------------------------


def closure_transport_available() -> bool:
    """Whether compiled closures can be shipped by value: always, since
    cloudpickle is a declared dependency (``perf/run.py`` and the test
    suite's skip marks still ask)."""
    return True


#: The persistent-id tag marking an externalized payload in a slim blob.
BLOB_TAG = "repro-blob"

#: Externalization gates of :func:`split_task_fn`.  Containers
#: (list/tuple/dict) below ``BLOB_MIN_ITEMS`` elements are never
#: trial-pickled; a candidate (or the slim body) whose pickle is below
#: ``BLOB_MIN_BYTES`` ships inline — a digest round-trip on a tiny
#: capture costs more than it saves.
BLOB_MIN_ITEMS = 4
BLOB_MIN_BYTES = 4096


class BlobMissing(KeyError):
    """A slim closure referenced a digest the resolver cannot supply."""

    def __init__(self, digest: str) -> None:
        super().__init__(digest)
        self.digest = digest


def split_task_fn(fn) -> Tuple[bytes, Dict[str, bytes]]:
    """Split a task closure into ``(slim, {digest: payload})``.

    The executable *body* is the cloudpickle of ``fn`` with every *heavy
    data capture* — :class:`~repro.mapreduce.hdfs.DistributedFile`
    inputs, record-chunk lists, shuffle-bucket dicts, large ndarrays —
    replaced by a ``(BLOB_TAG, digest)`` persistent reference (an
    executor wave closure captures the config-only cluster and that
    wave's job specs, so its files are exactly the wave's inputs); each
    replaced object is pickled standalone (plain pickle) as a payload
    blob addressed by the sha256 of its bytes.  A body that still
    reaches :data:`BLOB_MIN_BYTES` after that (compiled join closures capture
    their job spec, cost model, and engine — executable weight no data
    gate can touch) becomes one more content-addressed payload, and the
    returned slim part is a stub: a pickle stream of a single persistent
    reference to the body blob.  Warm re-registration then ships only
    the stub plus a digest list.

    Externalization gates: containers need at least
    :data:`BLOB_MIN_ITEMS` elements, and every candidate's pickled
    payload must reach :data:`BLOB_MIN_BYTES` (otherwise it ships
    inline).  Anything plain pickle
    rejects (a list of compiled closures, say) stays in the body, where
    cloudpickle handles it as before.  Repeated references to the same
    object collapse to one digest, so object identity among externalized
    captures survives the round-trip (the worker resolves one digest to
    one object).

    Splitting never changes *what* runs — only how the bytes travel.
    Workers rebuild the identical closure via :func:`join_task_fn`; a
    worker missing any payload answers ``register-missing`` and the
    coordinator re-sends.  Payload content must be treated as read-only
    by task code (it already is: phases build fresh outputs), because
    workers cache decoded payloads across batches and queries.
    """
    from repro.mapreduce.hdfs import DistributedFile

    payloads: Dict[str, bytes] = {}
    memo: Dict[int, Optional[str]] = {}
    keep = []  # candidates stay alive so id() keys stay unique

    def externalize(obj) -> Optional[str]:
        if isinstance(obj, DistributedFile):
            if not obj.records:
                return None
        elif isinstance(obj, (list, tuple, dict)):
            if len(obj) < BLOB_MIN_ITEMS:
                return None
        elif isinstance(obj, np.ndarray):
            if obj.nbytes < BLOB_MIN_BYTES:
                return None
        else:
            return None
        key = id(obj)
        if key in memo:
            return memo[key]
        keep.append(obj)
        try:
            payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:
            payload = None  # closure-bearing capture: ship inline
        if payload is None or len(payload) < BLOB_MIN_BYTES:
            memo[key] = None
            return None
        digest = blob_digest(payload)
        payloads[digest] = payload
        memo[key] = digest
        return digest

    class _SplittingPickler(cloudpickle.CloudPickler):
        def persistent_id(self, obj):
            digest = externalize(obj)
            if digest is None:
                return None
            return (BLOB_TAG, digest)

    buffer = io.BytesIO()
    _SplittingPickler(buffer, protocol=pickle.HIGHEST_PROTOCOL).dump(fn)
    body = buffer.getvalue()
    if len(body) >= BLOB_MIN_BYTES:
        digest = blob_digest(body)
        payloads[digest] = body
        return _stub_for(digest), payloads
    return body, payloads


def _stub_for(digest: str) -> bytes:
    """A pickle stream that is nothing but one persistent reference:
    joining it fetches (and thereby rebuilds) the body blob."""

    sentinel = object()

    class _RefPickler(pickle.Pickler):
        def persistent_id(self, obj):
            # Only the sentinel externalizes: the pid tuple itself is
            # pickled through save(), which consults persistent_id too.
            return (BLOB_TAG, digest) if obj is sentinel else None

    buffer = io.BytesIO()
    _RefPickler(buffer, protocol=pickle.HIGHEST_PROTOCOL).dump(sentinel)
    return buffer.getvalue()


class _JoiningUnpickler(pickle.Unpickler):
    """Resolves ``(BLOB_TAG, digest)`` references through a fetcher."""

    def __init__(self, file, fetch: Callable[[str], object]) -> None:
        super().__init__(file)
        self._fetch = fetch

    def persistent_load(self, pid):
        if (
            isinstance(pid, tuple)
            and len(pid) == 2
            and pid[0] == BLOB_TAG
            and isinstance(pid[1], str)
        ):
            return self._fetch(pid[1])
        raise pickle.UnpicklingError(f"unknown persistent id {pid!r}")


def join_task_fn(slim: bytes, fetch: Callable[[str], object]):
    """Worker side: rebuild a split callable, resolving each payload
    digest through ``fetch`` (which raises :class:`BlobMissing` when the
    blob store cannot supply it)."""
    return _JoiningUnpickler(io.BytesIO(slim), fetch).load()


def load_payload(payload: bytes, fetch: Callable[[str], object]):
    """Decode one payload blob, resolving any nested blob references
    through ``fetch`` — a plain data payload decodes exactly as
    ``pickle.loads`` would (no persistent ids to resolve), while a body
    blob's payload references recurse into the store."""
    return _JoiningUnpickler(io.BytesIO(payload), fetch).load()


# ----------------------------------------------------------------------
# addresses
# ----------------------------------------------------------------------


def parse_addr(entry: str) -> Optional[Tuple[str, int]]:
    """``"host:port"`` -> ``(host, port)``; ``None`` when malformed.

    Used by :class:`~repro.mapreduce.config.ExecutionSettings` to parse
    ``REPRO_WORKERS_ADDRS``: malformed entries are *skipped* (an env
    typo must never crash planning — with no valid workers the backend
    simply degrades to serial).
    """
    entry = entry.strip()
    if not entry or ":" not in entry:
        return None
    host, _, port_text = entry.rpartition(":")
    host = host.strip()
    try:
        port = int(port_text)
    except ValueError:
        return None
    if not host or not 1 <= port <= 65535:
        return None
    return host, port


def _set_nodelay(sock: socket.socket) -> None:
    try:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    except OSError:  # pragma: no cover - exotic socket stack
        pass


def close_socket(sock: socket.socket) -> None:
    """Shut down and close ``sock`` (wakes any thread blocked on it)."""
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass
    try:
        sock.close()
    except OSError:
        pass


def connect(addr: str, timeout: float) -> socket.socket:
    """TCP-connect to a ``"host:port"`` string with ``TCP_NODELAY`` set."""
    parsed = parse_addr(addr)
    if parsed is None:
        raise WireError(f"malformed worker address {addr!r}")
    sock = socket.create_connection(parsed, timeout=timeout)
    _set_nodelay(sock)
    return sock


def dial(addr: str, timeout: float) -> Tuple[socket.socket, object]:
    """:func:`connect` plus the ``hello`` handshake every conversation
    opens with; returns ``(sock, info)`` — the peer's ``hello-ack`` info,
    which callers that ship work hold against :func:`compatible`.

    The socket keeps ``timeout``.  Raises ``OSError`` when the dial
    fails and :class:`WireError` when the peer answers anything but a
    ``hello-ack`` (the socket is closed either way).
    """
    sock = connect(addr, timeout)
    try:
        send_frame(sock, ("hello", peer_info()))
        reply = recv_frame(sock)
        if not (isinstance(reply, tuple) and len(reply) == 2 and reply[0] == "hello-ack"):
            raise WireError(f"bad handshake reply: {reply!r}")
    except BaseException:
        sock.close()
        raise
    return sock, reply[1]


# ----------------------------------------------------------------------
# the frame server (the transport of both daemons)
# ----------------------------------------------------------------------


class FrameServer:
    """One TCP daemon speaking the frame protocol.

    Owns everything ``repro worker serve`` and ``repro serve`` have in
    common: the listener, the accept loop, the registry of live
    connections, ``start``/``stop``, and one handler thread per
    connection running recv → handle → send.  The base answers the verbs
    every daemon shares (``hello``, ``ping``) and every malformed frame;
    a subclass implements :meth:`handle` for its own verbs and overrides
    a hook only where it really differs.
    """

    #: Banner and thread-name prefix (``repro-worker`` / ``repro-serve``).
    name = "repro"

    def __init__(self, host: str = "127.0.0.1", port: int = 0) -> None:
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            self._listener.bind((host, port))
            self._listener.listen(32)
        except OSError as exc:  # a busy port or an unusable host
            self._listener.close()
            raise ReproError(
                f"cannot listen on {host}:{port}: {exc.strerror or exc}"
            ) from exc
        self.host, self.port = self._listener.getsockname()[:2]
        self._connections: List[socket.socket] = []
        self._conn_lock = threading.Lock()
        self._stopped = False
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    # -- hooks -----------------------------------------------------------

    def handle(self, message: Tuple, state: object) -> Optional[Tuple]:
        """Reply to one well-framed message of this daemon's own verbs
        (``None`` closes the connection).  ``ValueError`` / ``IndexError``
        / ``TypeError`` — a wrong arity or field type — are answered as
        malformed; a :class:`WireError` drops the connection."""
        raise NotImplementedError

    def connection_state(self) -> object:
        """Fresh per-connection state handed to every :meth:`handle`
        call of one connection; it dies with the connection."""
        return None

    def error_reply(self, text: str) -> Tuple:
        """The reply to a frame this daemon cannot act on."""
        return ("error", text)

    def oversized_reply(self, exc: WireError) -> Optional[Tuple]:
        """What to send instead of a reply :func:`send_frame` refused
        (before any byte left, so the connection is intact); ``None``
        drops the connection."""
        return None

    # -- lifecycle -------------------------------------------------------

    def serve_forever(self) -> None:
        """Accept loop; returns when :meth:`stop` closes the listener."""
        while True:
            try:
                conn, _peer = self._listener.accept()
            except OSError:  # listener closed: shut down
                return
            _set_nodelay(conn)
            with self._conn_lock:
                if self._stopped:
                    conn.close()
                    return
                self._connections.append(conn)
            threading.Thread(
                target=self._serve_connection,
                args=(conn,),
                daemon=True,
                name=f"{self.name}-conn",
            ).start()

    def start(self):
        """Serve on a daemon thread (in-process tests); returns self."""
        self._thread = threading.Thread(
            target=self.serve_forever, daemon=True, name=f"{self.name}-accept"
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Close the listener and every live connection (idempotent)."""
        with self._conn_lock:
            self._stopped = True
            connections, self._connections = self._connections, []
        close_socket(self._listener)
        for conn in connections:
            close_socket(conn)

    def run(self, notes: Sequence[str] = ()) -> int:
        """CLI entry: serve until SIGTERM or ctrl-C, then :meth:`stop`
        and return 0.

        Prints ``<name> listening on HOST:PORT`` (flushed) first, so a
        spawner using ``--port 0`` can read the assigned port back
        (:func:`spawn_listening`), then ``notes``, one per line.
        """
        # SIGTERM, the operator's stop, takes ctrl-C's path.
        signal.signal(signal.SIGTERM, signal.default_int_handler)
        print(f"{self.name} listening on {self.address}", flush=True)
        for note in notes:
            print(note, flush=True)
        try:
            self.serve_forever()
        except KeyboardInterrupt:
            pass
        finally:
            self.stop()
        return 0

    # -- connection handling ---------------------------------------------

    def _serve_connection(self, conn: socket.socket) -> None:
        state = self.connection_state()
        try:
            while True:
                try:
                    message = recv_frame(conn)
                except WireError:
                    return  # peer went away; its state dies with us
                try:
                    reply = self._reply_to(message, state)
                except WireError:
                    return  # the handler gave the connection up itself
                if reply is None:
                    return
                try:
                    try:
                        send_frame(conn, reply)
                    except WireError as exc:  # refused before a byte left
                        reply = self.oversized_reply(exc)
                        if reply is None:
                            return
                        send_frame(conn, reply)
                except OSError:
                    return
        finally:
            with self._conn_lock:
                if conn in self._connections:
                    self._connections.remove(conn)
            close_socket(conn)

    def _reply_to(self, message: object, state: object) -> Optional[Tuple]:
        if not isinstance(message, tuple) or not message:
            return self.error_reply("malformed message")
        kind = message[0]
        if kind == "hello":
            return ("hello-ack", peer_info())
        if kind == "ping":
            return ("pong", message[1] if len(message) > 1 else 0)
        try:
            return self.handle(message, state)
        except (ValueError, IndexError, TypeError):
            # Wrong arity / wrong field types: answer like any other
            # malformed message instead of killing the handler thread.
            return self.error_reply("malformed message")


def spawn_listening(
    argv: Sequence[str],
    env_extra: Optional[Mapping[str, str]] = None,
    env_scrub: Sequence[str] = (),
):
    """Spawn ``python <argv>`` (a daemon started with ``--port 0``, e.g.
    ``-m repro.cli serve --port 0``) and return ``(proc, addr)``, the
    address read back from the ``listening on`` banner of
    :meth:`FrameServer.run`.

    The child gets this checkout on ``PYTHONPATH`` and the parent's
    environment minus ``env_scrub`` plus ``env_extra``.
    """
    import os
    import subprocess
    from pathlib import Path

    env = os.environ.copy()
    src_dir = Path(__file__).resolve().parents[2]
    env["PYTHONPATH"] = str(src_dir) + os.pathsep + env.get("PYTHONPATH", "")
    for name in env_scrub:
        env.pop(name, None)
    env.update(env_extra or {})
    proc = subprocess.Popen(
        [sys.executable, *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
        env=env,
    )
    banner = proc.stdout.readline()
    if "listening on" not in banner:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"{' '.join(argv)} failed to start: {banner!r}")
    return proc, banner.rsplit(" ", 1)[-1].strip()
