"""The transport contract both daemons inherit from ``wire.FrameServer``.

``repro worker serve`` (:class:`WorkerServer`) and ``repro serve``
(:class:`QueryService`) are the same frame server with different verbs,
so one suite, parametrised over both, pins what a peer may rely on
whichever daemon it dialed: a frame the daemon cannot act on is answered
with a structured error and the connection keeps serving; a byte stream
that cannot be framed drops that connection and no other; ``stop()``
closes the listener and every live connection, twice without harm; a
daemon started on ``--port 0`` prints the banner its spawner parses; no
frame stops a daemon or arms a fault in it, and SIGTERM stops it with
exit status 0.
"""

import socket

import pytest

import repro
from conformance import serial_reference_rows
from repro.errors import ReproError
from repro.mapreduce import wire
from repro.mapreduce.worker import WorkerServer, spawn_daemon, stop_daemons
from repro.serve.coordinator import QueryService, spawn_service

#: daemon class -> one of its own verbs, sent with too few fields.
DAEMONS = {WorkerServer: ("task",), QueryService: ("status",)}


@pytest.fixture(params=list(DAEMONS), ids=lambda cls: cls.__name__)
def daemon(request):
    server = request.param().start()
    yield server
    server.stop()


def dial(server) -> socket.socket:
    sock, info = wire.dial(server.address, timeout=5.0)
    assert info["format"] == wire.WIRE_FORMAT
    return sock


def ask(sock: socket.socket, message: object) -> object:
    wire.send_frame(sock, message)
    return wire.recv_frame(sock)


class TestMalformedFrames:
    @pytest.mark.parametrize(
        "message",
        [5, "hello", None, [], (), ("no-such-verb",), ("no-such-verb", 1, 2)],
        ids=repr,
    )
    def test_unusable_frame_is_answered_and_the_connection_survives(
        self, daemon, message
    ):
        sock = dial(daemon)
        try:
            reply = ask(sock, message)
            assert isinstance(reply, tuple) and reply[0] == "error" and reply[1]
            assert ask(sock, ("ping", 7)) == ("pong", 7)
        finally:
            sock.close()

    def test_wrong_arity_of_a_known_verb(self, daemon):
        sock = dial(daemon)
        try:
            reply = ask(sock, DAEMONS[type(daemon)])
            assert reply[0] == "error"
            assert "malformed message" in str(reply[1])
            assert ask(sock, ("ping", 8)) == ("pong", 8)
        finally:
            sock.close()


class TestBrokenStreams:
    @pytest.mark.parametrize(
        "raw",
        [
            (100).to_bytes(8, "big") + b"only ten b",  # truncated, then EOF
            (wire.MAX_FRAME_BYTES + 1).to_bytes(8, "big"),  # header above the cap
            (4).to_bytes(8, "big") + b"junk",  # framed, but not a pickle
        ],
        ids=["truncated", "oversized-header", "undecodable"],
    )
    def test_unframeable_bytes_drop_only_that_connection(self, daemon, raw):
        bystander = dial(daemon)
        broken = dial(daemon)
        try:
            broken.sendall(raw)
            broken.shutdown(socket.SHUT_WR)
            with pytest.raises(wire.WireError):
                wire.recv_frame(broken)  # the daemon hung up on us
            assert ask(bystander, ("ping", 1)) == ("pong", 1)
            late = dial(daemon)  # and it still accepts
            late.close()
        finally:
            broken.close()
            bystander.close()


class TestLifecycle:
    def test_a_failed_bind_closes_the_listener(self, monkeypatch):
        busy = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        busy.bind(("127.0.0.1", 0))
        busy.listen(1)
        made = []
        real = socket.socket

        def recording(*args, **kwargs):
            made.append(real(*args, **kwargs))
            return made[-1]

        monkeypatch.setattr(wire.socket, "socket", recording)
        try:
            with pytest.raises(ReproError, match="cannot listen on 127.0.0.1:"):
                WorkerServer(port=busy.getsockname()[1])
        finally:
            busy.close()
        assert len(made) == 1 and made[0].fileno() == -1

    def test_stop_closes_listener_and_connections_and_is_idempotent(self, daemon):
        sock = dial(daemon)
        try:
            daemon.stop()
            with pytest.raises(wire.WireError):
                wire.recv_frame(sock)
            with pytest.raises(OSError):
                wire.connect(daemon.address, timeout=1.0)
            daemon._thread.join(timeout=5.0)
            assert not daemon._thread.is_alive()
            daemon.stop()  # a second stop is a no-op
        finally:
            sock.close()

    @pytest.mark.parametrize(
        "spawn", [spawn_daemon, spawn_service], ids=["worker", "serve"]
    )
    def test_port_zero_banner_is_what_the_spawner_parses(self, spawn):
        proc, addr = spawn()
        try:
            host, port = wire.parse_addr(addr)
            assert host == "127.0.0.1" and port > 0
            sock, _info = wire.dial(addr, timeout=5.0)
            try:
                assert ask(sock, ("ping", 3)) == ("pong", 3)
            finally:
                sock.close()
            proc.terminate()  # SIGTERM: the operator's stop
            assert proc.wait(timeout=15) == 0
        finally:
            stop_daemons([proc])


SQL = "SELECT t2.id FROM table t1, table t2 WHERE t1.d = t2.d AND t1.bt <= t2.bt"


def worker_answers_a_task(addr: str) -> None:
    sock, _info = wire.dial(addr, timeout=5.0)
    try:
        slim, _blobs = wire.split_task_fn(lambda index: index * index)
        assert ask(sock, ("register", 1, slim, [])) == ("registered", 1)
        assert ask(sock, ("task", 1, 7)) == ("result", 7, 49)
    finally:
        sock.close()


def service_answers_a_query(addr: str) -> None:
    with repro.connect(addr, timeout_s=30.0) as client:
        rows = client.run(SQL, timeout_s=60.0)["rows"]
    assert [tuple(row) for row in rows] == serial_reference_rows(SQL)


def service_fleet(addr: str) -> list:
    with repro.connect(addr, timeout_s=30.0) as client:
        return client.stats()["fleet"]


@pytest.mark.parametrize(
    "spawn, answers, fleet",
    [
        (spawn_daemon, worker_answers_a_task, lambda addr: None),
        (spawn_service, service_answers_a_query, service_fleet),
    ],
    ids=["worker", "serve"],
)
def test_no_frame_stops_a_daemon_or_arms_a_fault(spawn, answers, fleet):
    """A peer can neither stop a production daemon, make it kill itself,
    nor point it at other workers: ``shutdown``, ``fault`` and ``fleet``
    are unknown verbs, answered with an error, the service keeps the
    fleet it started with, and the daemon then serves its next query
    correctly."""
    proc, addr = spawn()
    try:
        started_with = fleet(addr)
        # Port 9 (discard): an address no worker daemon listens on.
        for frame in (("shutdown",), ("fault", "kill", 1, 0), ("fleet", "127.0.0.1:9")):
            sock, _info = wire.dial(addr, timeout=5.0)
            try:
                assert ask(sock, frame)[0] == "error"
            finally:
                sock.close()
        assert fleet(addr) == started_with
        answers(addr)
        assert proc.poll() is None
    finally:
        stop_daemons([proc])
