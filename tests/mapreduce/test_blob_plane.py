"""The content-addressed data plane: closure splitting + blob verbs.

Covers the PR 8 wire additions end to end at the protocol level:

* :func:`~repro.mapreduce.wire.split_task_fn` /
  :func:`~repro.mapreduce.wire.join_task_fn` — the split closure must
  rebuild to an identical callable, heavy captures must leave the slim
  pickle, small or unpicklable captures must stay inline, and the same
  content must always produce the same digest;
* the worker's ``blob-has`` / ``blob-put`` verbs and the
  split ``register`` shape, including the ``register-missing`` repair
  path a corrupt or evicted payload triggers;
* the bounded per-connection registry (leaked registrations must not
  grow worker RSS forever).
"""

import socket

import pytest

from repro.mapreduce import wire
from repro.mapreduce.worker import REGISTRY_MAX_ENTRIES, WorkerServer
from repro.storage import blob_digest


@pytest.fixture(autouse=True)
def _blob_env(tmp_path, monkeypatch):
    """Each test's servers get a private blob tier under a tmp cache dir."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))


@pytest.fixture
def server():
    instance = WorkerServer().start()
    yield instance
    instance.stop()


def dial(server: WorkerServer) -> socket.socket:
    sock = wire.connect(server.address, timeout=2.0)
    sock.settimeout(5.0)
    return sock


def heavy_fn():
    """A closure over a capture big enough to externalize."""
    table = [(i, i * 3, f"row-{i}") for i in range(500)]
    offset = 7
    return lambda i: table[i][1] + offset  # noqa: E731


class TestSplitJoin:
    def test_split_moves_heavy_captures_out_of_the_slim_pickle(self):
        import cloudpickle

        fn = heavy_fn()
        full = cloudpickle.dumps(fn)
        slim, blobs = wire.split_task_fn(fn)
        assert blobs, "the captured table must externalize"
        assert len(slim) < len(full) / 4
        for digest, payload in blobs.items():
            assert blob_digest(payload) == digest

    def test_join_rebuilds_an_equivalent_callable(self):
        fn = heavy_fn()
        slim, blobs = wire.split_task_fn(fn)

        def fetch(digest):
            # Recursive, like the worker: a body blob's own payload
            # references resolve right back through the fetcher.
            return wire.load_payload(blobs[digest], fetch)

        rebuilt = wire.join_task_fn(slim, fetch)
        assert [rebuilt(i) for i in range(10)] == [fn(i) for i in range(10)]

    def test_digests_are_stable_across_splits(self):
        first = wire.split_task_fn(heavy_fn())
        second = wire.split_task_fn(heavy_fn())
        assert set(first[1]) == set(second[1])

    def test_small_captures_stay_inline(self):
        small = [1, 2, 3]
        fn = lambda i: small[i]  # noqa: E731
        slim, blobs = wire.split_task_fn(fn)
        assert blobs == {}
        assert wire.join_task_fn(slim, None)(1) == 2

    def test_unpicklable_captures_ride_in_the_body(self):
        """A big list of compiled closures defeats plain pickle; it must
        ride in the cloudpickled body — the body itself externalizing as
        one content-addressed blob — and never produce a data payload or
        break the split."""
        closures = [(lambda base: lambda i: i + base)(n) for n in range(100)]
        fn = lambda i: closures[i](i)  # noqa: E731
        slim, blobs = wire.split_task_fn(fn)
        assert len(blobs) == 1  # the body blob, nothing else

        def fetch(digest):
            return wire.load_payload(blobs[digest], fetch)

        assert wire.join_task_fn(slim, fetch)(3) == 6

    def test_repeated_references_collapse_to_one_digest(self):
        shared = [(i, i) for i in range(2000)]
        fn = (lambda a, b: lambda i: a[i][0] + b[i][1])(shared, shared)
        slim, blobs = wire.split_task_fn(fn)
        # One payload for the shared capture (both cells reference it),
        # plus at most the externalized body — never two data copies.
        assert len(blobs) <= 2
        decoded = {}

        def fetch(digest):
            if digest not in decoded:
                decoded[digest] = wire.load_payload(blobs[digest], fetch)
            return decoded[digest]

        rebuilt = wire.join_task_fn(slim, fetch)
        assert rebuilt(5) == 10
        assert [d for d in decoded.values() if d == shared]


class TestBlobVerbs:
    def test_put_has_round_trip_lands_in_the_daemon_store(self, server):
        """What ``blob-put`` stores, ``blob-has`` reports and the
        daemon's own blob tier reads back byte for byte; no verb hands
        a blob back to a peer."""
        payload = b"shipped payload bytes" * 100
        digest = blob_digest(payload)
        sock = dial(server)
        try:
            wire.send_frame(sock, ("blob-has", [digest]))
            assert wire.recv_frame(sock) == ("blob-have", [digest])
            wire.send_frame(sock, ("blob-put", digest, payload))
            assert wire.recv_frame(sock) == ("blob-stored", digest)
            wire.send_frame(sock, ("blob-has", [digest]))
            assert wire.recv_frame(sock) == ("blob-have", [])
            assert server.blob_store.get(digest) == payload
            wire.send_frame(sock, ("blob-get", digest))
            assert wire.recv_frame(sock)[0] == "error"
        finally:
            sock.close()

    def test_put_with_wrong_digest_is_a_blob_error(self, server):
        sock = dial(server)
        try:
            wire.send_frame(sock, ("blob-put", "0" * 64, b"mismatched"))
            reply = wire.recv_frame(sock)
            assert reply[0] == "blob-error"
            assert reply[1] == "0" * 64
        finally:
            sock.close()

    def test_blobs_outlive_connections(self, server):
        payload = b"x" * 5000
        digest = blob_digest(payload)
        first = dial(server)
        try:
            wire.send_frame(first, ("blob-put", digest, payload))
            assert wire.recv_frame(first)[0] == "blob-stored"
        finally:
            first.close()
        second = dial(server)
        try:
            wire.send_frame(second, ("blob-has", [digest]))
            assert wire.recv_frame(second) == ("blob-have", [])
        finally:
            second.close()

    def test_each_server_owns_its_blob_tier(self, tmp_path, monkeypatch):
        """A server keeps the cache directory it was built under: a blob
        put to one daemon is not a hit on a peer built under another."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "a"))
        first = WorkerServer().start()
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "b"))
        second = WorkerServer().start()
        payload = b"one daemon's payload" * 50
        digest = blob_digest(payload)
        socks = [dial(first), dial(second)]
        try:
            wire.send_frame(socks[0], ("blob-put", digest, payload))
            assert wire.recv_frame(socks[0]) == ("blob-stored", digest)
            wire.send_frame(socks[0], ("blob-has", [digest]))
            assert wire.recv_frame(socks[0]) == ("blob-have", [])
            wire.send_frame(socks[1], ("blob-has", [digest]))
            assert wire.recv_frame(socks[1]) == ("blob-have", [digest])
        finally:
            for sock in socks:
                sock.close()
            first.stop()
            second.stop()
        assert first.blob_store.root == tmp_path / "a" / "blobs"

    def test_a_traversal_digest_is_a_miss_and_touches_nothing(
        self, server, tmp_path
    ):
        """A peer's digest never leaves the blob root: ``"../x"`` would
        name ``<cache>/../x.blob``, here a planted file that must survive
        both verbs."""
        planted = tmp_path / "x.blob"
        planted.write_bytes(b"not this daemon's to read or delete")
        payload = b"an entry, so the blob root exists"
        sock = dial(server)
        try:
            wire.send_frame(sock, ("blob-put", blob_digest(payload), payload))
            assert wire.recv_frame(sock)[0] == "blob-stored"
            wire.send_frame(sock, ("blob-put", "../x", b"overwrite"))
            assert wire.recv_frame(sock)[:2] == ("blob-error", "../x")
            wire.send_frame(sock, ("blob-has", ["../x"]))
            assert wire.recv_frame(sock) == ("blob-have", ["../x"])
        finally:
            sock.close()
        assert planted.read_bytes() == b"not this daemon's to read or delete"


class TestSplitRegister:
    def register_split(self, sock, token, fn):
        """The coordinator's register-by-digest conversation, by hand."""
        slim, blobs = wire.split_task_fn(fn)
        assert blobs
        wire.send_frame(sock, ("blob-has", list(blobs)))
        _kind, missing = wire.recv_frame(sock)
        for digest in missing:
            wire.send_frame(sock, ("blob-put", digest, blobs[digest]))
            assert wire.recv_frame(sock)[0] == "blob-stored"
        wire.send_frame(sock, ("register", token, slim, list(blobs)))
        return wire.recv_frame(sock), slim, blobs

    def test_register_by_digest_runs_tasks(self, server):
        fn = heavy_fn()
        sock = dial(server)
        try:
            reply, _slim, _blobs = self.register_split(sock, 1, fn)
            assert reply == ("registered", 1)
            for index in (0, 3, 9):
                wire.send_frame(sock, ("task", 1, index))
                assert wire.recv_frame(sock) == ("result", index, fn(index))
        finally:
            sock.close()

    def test_register_with_absent_blobs_reports_missing(self, server):
        slim, blobs = wire.split_task_fn(heavy_fn())
        sock = dial(server)
        try:
            wire.send_frame(sock, ("register", 1, slim, list(blobs)))
            kind, token, missing = wire.recv_frame(sock)
            assert (kind, token) == ("register-missing", 1)
            assert set(missing) == set(blobs)
            # The repair path: put the bytes, retry, run.
            for digest in missing:
                wire.send_frame(sock, ("blob-put", digest, blobs[digest]))
                assert wire.recv_frame(sock)[0] == "blob-stored"
            wire.send_frame(sock, ("register", 1, slim, list(blobs)))
            assert wire.recv_frame(sock) == ("registered", 1)
            wire.send_frame(sock, ("task", 1, 2))
            assert wire.recv_frame(sock)[0] == "result"
        finally:
            sock.close()

    def test_corrupt_blob_triggers_delete_and_refetch(self, server):
        """A payload that rotted on the worker's disk between the put and
        the register must surface as ``register-missing`` — never run a
        wrong closure, never crash."""
        fn = heavy_fn()
        slim, blobs = wire.split_task_fn(fn)
        sock = dial(server)
        try:
            for digest, payload in blobs.items():
                wire.send_frame(sock, ("blob-put", digest, payload))
                assert wire.recv_frame(sock)[0] == "blob-stored"
            store = server.blob_store
            for digest in blobs:
                store._path(digest).write_bytes(b"rot")
            wire.send_frame(sock, ("register", 1, slim, list(blobs)))
            kind, _token, missing = wire.recv_frame(sock)
            assert kind == "register-missing"
            assert set(missing) == set(blobs)
            for digest in missing:
                wire.send_frame(sock, ("blob-put", digest, blobs[digest]))
                assert wire.recv_frame(sock)[0] == "blob-stored"
            wire.send_frame(sock, ("register", 1, slim, list(blobs)))
            assert wire.recv_frame(sock) == ("registered", 1)
            wire.send_frame(sock, ("task", 1, 4))
            assert wire.recv_frame(sock) == ("result", 4, fn(4))
        finally:
            sock.close()

    def test_three_tuple_register_is_refused(self, server):
        """The PR 5 unsplit shape left with wire format 3: it is a
        malformed message now, and the connection keeps serving."""
        sock = dial(server)
        try:
            wire.send_frame(sock, ("register", 7, b"one unsplit closure blob"))
            assert wire.recv_frame(sock) == ("error", "malformed message")
            wire.send_frame(sock, ("ping", 1))
            assert wire.recv_frame(sock) == ("pong", 1)
        finally:
            sock.close()


class TestBoundedRegistry:
    def test_leaked_registrations_are_evicted_lru(self, server):
        """A connection that never unregisters must stay bounded: the
        oldest idle token falls off, recently used tokens survive."""
        sock = dial(server)
        try:
            slim, _blobs = wire.split_task_fn(lambda i: i)
            for token in range(REGISTRY_MAX_ENTRIES + 2):
                wire.send_frame(sock, ("register", token, slim, []))
                assert wire.recv_frame(sock) == ("registered", token)
                if token == REGISTRY_MAX_ENTRIES - 1:
                    # Touch token 0 so it is NOT the LRU victim.
                    wire.send_frame(sock, ("task", 0, 1))
                    assert wire.recv_frame(sock)[0] == "result"
            # Token 0 was refreshed by its task; token 1 was the oldest
            # untouched registration and must be gone.
            wire.send_frame(sock, ("task", 0, 1))
            assert wire.recv_frame(sock)[0] == "result"
            wire.send_frame(sock, ("task", 1, 1))
            kind, _index, error = wire.recv_frame(sock)
            assert kind == "task-error"
            assert isinstance(error, KeyError)
            # The newest registrations all still work.
            wire.send_frame(sock, ("task", REGISTRY_MAX_ENTRIES + 1, 3))
            assert wire.recv_frame(sock)[0] == "result"
        finally:
            sock.close()
