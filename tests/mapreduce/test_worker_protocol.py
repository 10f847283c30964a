"""Unit tests for the distributed wire protocol and worker daemon.

Framing must survive arbitrary payloads and detect truncation; the
hello handshake must refuse incompatible peers; registrations must be
per-connection (two coordinators sharing a daemon can never collide);
and shipped closures must rebuild over *unpicklable* compiled state,
mirroring the fork registry's guarantee.
"""

import pickle
import socket
import threading

import pytest

from repro.mapreduce import wire
from repro.mapreduce.worker import WorkerServer


@pytest.fixture
def server():
    instance = WorkerServer().start()
    yield instance
    instance.stop()


def dial(server: WorkerServer) -> socket.socket:
    sock = wire.connect(server.address, timeout=2.0)
    sock.settimeout(5.0)
    return sock


def message_of_payload_size(size: int) -> bytes:
    """A message whose pickled frame payload is exactly ``size`` bytes."""
    overhead = len(pickle.dumps(bytes(size), protocol=pickle.HIGHEST_PROTOCOL)) - size
    for guess in range(size - overhead + 32, size - overhead - 32, -1):
        message = bytes(range(256)) * (guess // 256) + b"x" * (guess % 256)
        if len(pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)) == size:
            return message
    raise AssertionError(f"no bytes message pickles to {size} bytes")


def framed(size: int) -> bytes:
    """The full frame, header included, of a ``size``-byte payload."""
    payload = pickle.dumps(message_of_payload_size(size), protocol=pickle.HIGHEST_PROTOCOL)
    return len(payload).to_bytes(8, "big") + payload


def send_then_close(sock: socket.socket, data: bytes) -> None:
    try:
        sock.sendall(data)
    finally:
        sock.close()


class TestFraming:
    def test_roundtrip_over_socketpair(self):
        left, right = socket.socketpair()
        try:
            payload = {"nested": [1, "two", (3.0, None)], "blob": b"\x00" * 4096}
            wire.send_frame(left, payload)
            assert wire.recv_frame(right) == payload
        finally:
            left.close()
            right.close()

    def test_eof_mid_frame_raises_wire_error(self):
        left, right = socket.socketpair()
        try:
            left.sendall(b"\x00\x00\x00\x00\x00\x00\x00\xff")  # promises 255 bytes
            left.close()  # ...but delivers none: a torn connection
            with pytest.raises(wire.WireError):
                wire.recv_frame(right)
        finally:
            right.close()

    def test_eof_mid_payload_raises_wire_error(self):
        left, right = socket.socketpair()
        frame = framed(3 << 20)
        sender = threading.Thread(target=send_then_close, args=(left, frame[: len(frame) // 2]))
        sender.start()
        try:
            with pytest.raises(wire.WireError):
                wire.recv_frame(right)
        finally:
            sender.join(timeout=10)
            right.close()
        assert not sender.is_alive()

    @pytest.mark.parametrize("size", [65_535, 65_536, 3 << 20])
    def test_large_frames_roundtrip(self, size):
        """Payloads just under and at 64 KiB, and one spanning several
        1 MiB receive steps, arrive byte-identical."""
        message = message_of_payload_size(size)
        left, right = socket.socketpair()
        sender = threading.Thread(target=wire.send_frame, args=(left, message))
        sender.start()
        try:
            assert wire.recv_frame(right) == message
        finally:
            sender.join(timeout=10)
            left.close()
            right.close()
        assert not sender.is_alive()

    def test_oversized_header_rejected(self):
        left, right = socket.socketpair()
        try:
            left.sendall((wire.MAX_FRAME_BYTES + 1).to_bytes(8, "big"))
            with pytest.raises(wire.WireError, match="cap"):
                wire.recv_frame(right)
        finally:
            left.close()
            right.close()

    def test_parse_addr(self):
        assert wire.parse_addr(" 127.0.0.1:7601 ") == ("127.0.0.1", 7601)
        assert wire.parse_addr("host:0") is None
        assert wire.parse_addr("host:70000") is None
        assert wire.parse_addr(":7601") is None
        assert wire.parse_addr("7601") is None
        assert wire.parse_addr("") is None


class TestHandshake:
    def test_hello_ack_is_compatible(self, server):
        sock = dial(server)
        try:
            wire.send_frame(sock, ("hello", wire.peer_info()))
            kind, info = wire.recv_frame(sock)
            assert kind == "hello-ack"
            assert wire.compatible(info)
        finally:
            sock.close()

    def test_incompatible_peer_rejected(self):
        assert not wire.compatible({"format": wire.WIRE_FORMAT + 1})
        assert not wire.compatible({"format": wire.WIRE_FORMAT, "python": (2, 7)})
        assert not wire.compatible("banner string")

    def test_closureless_worker_rejected(self):
        """A worker that cannot rebuild shipped closures must be refused
        at hello time, not misdiagnosed as a lost host at register time."""
        info = dict(wire.peer_info())
        info["closures"] = False
        assert not wire.compatible(info)

    def test_repro_version_skew_rejected(self):
        """cloudpickle ships repro symbols by reference, so a worker on
        a different checkout would run different code and silently break
        bit-identity — the handshake must refuse it instead."""
        skewed = dict(wire.peer_info())
        skewed["repro"] = "0.0.0-older"
        assert not wire.compatible(skewed)

    def test_wrong_arity_answered_not_crashed(self, server):
        """A short tuple must get the malformed-message reply, not kill
        the handler thread mid-connection."""
        sock = dial(server)
        try:
            wire.send_frame(sock, ("task",))
            assert wire.recv_frame(sock) == ("error", "malformed message")
            wire.send_frame(sock, ("register", 1))  # missing the closure
            assert wire.recv_frame(sock) == ("error", "malformed message")
            # The connection survived and still answers.
            wire.send_frame(sock, ("ping", 9))
            assert wire.recv_frame(sock) == ("pong", 9)
        finally:
            sock.close()

    def test_ping_pong(self, server):
        sock = dial(server)
        try:
            wire.send_frame(sock, ("ping", 42))
            assert wire.recv_frame(sock) == ("pong", 42)
        finally:
            sock.close()


class TestRegistryAndTasks:
    def register(self, sock, token, fn):
        slim, blobs = wire.split_task_fn(fn)
        assert not blobs  # small closures ship whole in the slim part
        wire.send_frame(sock, ("register", token, slim, []))
        assert wire.recv_frame(sock) == ("registered", token)

    def test_ships_unpicklable_closures(self, server):
        """The remote handshake covers exactly what the fork registry
        covered: callables standard pickle rejects."""
        import pickle

        captured = {"table": [10, 20, 30, 40], "offset": 7}
        fn = lambda i: captured["table"][i] + captured["offset"]  # noqa: E731
        with pytest.raises(Exception):
            pickle.dumps(fn)
        sock = dial(server)
        try:
            self.register(sock, 1, fn)
            for index in range(4):
                wire.send_frame(sock, ("task", 1, index))
                assert wire.recv_frame(sock) == ("result", index, fn(index))
        finally:
            sock.close()

    def test_registrations_are_per_connection(self, server):
        first = dial(server)
        second = dial(server)
        try:
            self.register(first, 1, lambda i: "first")
            self.register(second, 1, lambda i: "second")  # same token, no clash
            wire.send_frame(first, ("task", 1, 0))
            assert wire.recv_frame(first) == ("result", 0, "first")
            wire.send_frame(second, ("task", 1, 0))
            assert wire.recv_frame(second) == ("result", 0, "second")
            # A token registered on one connection is unknown on another.
            wire.send_frame(second, ("task", 99, 0))
            kind, _index, error = wire.recv_frame(second)
            assert kind == "task-error"
            assert isinstance(error, KeyError)
        finally:
            first.close()
            second.close()

    def test_unregister_frees_the_token(self, server):
        sock = dial(server)
        try:
            self.register(sock, 5, lambda i: i)
            wire.send_frame(sock, ("unregister", 5))
            assert wire.recv_frame(sock) == ("unregistered", 5)
            wire.send_frame(sock, ("task", 5, 0))
            assert wire.recv_frame(sock)[0] == "task-error"
        finally:
            sock.close()

    def test_task_exception_travels_with_its_type(self, server):
        def boom(index):
            raise ValueError(f"index {index} exploded")

        sock = dial(server)
        try:
            self.register(sock, 1, boom)
            wire.send_frame(sock, ("task", 1, 3))
            kind, index, error = wire.recv_frame(sock)
            assert (kind, index) == ("task-error", 3)
            assert isinstance(error, ValueError)
            assert "index 3 exploded" in str(error)
        finally:
            sock.close()

    def test_unshippable_registration_reports_register_error(self, server):
        sock = dial(server)
        try:
            wire.send_frame(sock, ("register", 1, b"not a pickle", []))
            kind, token, message = wire.recv_frame(sock)
            assert (kind, token) == ("register-error", 1)
            assert message
        finally:
            sock.close()
