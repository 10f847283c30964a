"""Property and unit tests for the content-addressed blob tier.

The :class:`~repro.storage.blob.DiskBlobStore` contract the distributed
data plane leans on:

* **round-trip** — ``put(digest, payload)`` then ``get(digest)`` returns
  the exact bytes, for any payload, and the digest is a pure function of
  the content (digest-stable);
* **budgets** — after an eviction sweep the tier never exceeds its size
  budget (modulo the single-newest-entry exemption that prevents resend
  thrash), and entries older than the age budget are gone;
* **corruption** — a torn or bit-rotten file reads as a *miss* and is
  deleted, so the coordinator's miss path re-ships the bytes; a wrong
  read is impossible because the digest is the address;
* **decoding** — ``decode(digest, accept)`` hands back a pickled value
  its reader accepts, and deletes anything else.
"""

import os
import pickle
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage import DiskBlobStore, blob_digest


@pytest.fixture
def store(tmp_path):
    return DiskBlobStore(tmp_path / "blobs", max_bytes=1 << 20, max_age_s=3600.0)


def put(store, payload: bytes) -> str:
    digest = blob_digest(payload)
    assert store.put(digest, payload)
    return digest


class TestRoundTrip:
    @settings(max_examples=50, deadline=None)
    @given(payload=st.binary(min_size=0, max_size=4096))
    def test_put_get_round_trips_any_payload(self, payload):
        with tempfile.TemporaryDirectory() as tmp:
            store = DiskBlobStore(Path(tmp) / "blobs")
            digest = put(store, payload)
            assert store.has(digest)
            assert store.get(digest) == payload
            # Digest-stable: the address is a pure function of the content.
            assert blob_digest(payload) == digest

    def test_get_of_unknown_digest_is_a_miss(self, store):
        assert store.get("0" * 64) is None
        assert not store.has("0" * 64)
        assert store.misses == 1

    def test_put_rejects_mismatched_digest(self, store):
        assert not store.put("0" * 64, b"these bytes hash differently")
        assert store.errors == 1
        assert store.get("0" * 64) is None

    def test_reput_of_live_entry_is_idempotent(self, store):
        payload = b"x" * 100
        digest = put(store, payload)
        assert store.put(digest, payload)
        assert store.get(digest) == payload
        assert store.puts == 1  # second put touched, did not rewrite


class TestCorruption:
    def test_corrupt_entry_reads_as_miss_and_is_deleted(self, store):
        payload = b"payload" * 100
        digest = put(store, payload)
        path = store._path(digest)
        path.write_bytes(b"bit rot ate this file")
        assert store.get(digest) is None
        assert store.corrupt == 1
        assert not path.exists()
        # Delete-and-refetch: a re-put repairs the entry completely.
        assert store.put(digest, payload)
        assert store.get(digest) == payload

    def test_truncated_entry_reads_as_miss(self, store):
        payload = os.urandom(512)
        digest = put(store, payload)
        path = store._path(digest)
        path.write_bytes(payload[:100])
        assert store.get(digest) is None
        assert not store.has(digest)


class TestAddresses:
    @pytest.mark.parametrize(
        "digest",
        ["../x", "abc123", "A" * 64, 64],
        ids=["traversal", "short", "uppercase", "not-a-str"],
    )
    def test_a_non_digest_is_a_miss_and_touches_nothing(self, tmp_path, digest):
        """Only a digest names an entry: ``"../x"`` would name
        ``<root>/../../x.blob``, outside the store."""
        store = DiskBlobStore(tmp_path / "deep" / "blobs")
        put(store, b"an entry, so the root exists")
        planted = tmp_path / "x.blob"
        planted.write_bytes(b"a file outside the root")
        assert not store.has(digest)
        assert store.get(digest) is None
        assert not store.put(digest, b"any payload")
        store.discard(digest)
        assert planted.read_bytes() == b"a file outside the root"
        assert store.stats()["entries"] == 1


class TestDecode:
    """``decode``: the one reader of durable pickled values."""

    def is_pair(self, value):
        return isinstance(value, tuple) and len(value) == 2

    def test_accepted_value_round_trips_with_its_size(self, store):
        payload = pickle.dumps((1, ["two"]), protocol=pickle.HIGHEST_PROTOCOL)
        digest = put(store, payload)
        assert store.decode(digest, self.is_pair) == ((1, ["two"]), len(payload))
        assert store.has(digest)

    @pytest.mark.parametrize(
        "payload",
        [
            pickle.dumps(["not", "a", "pair"]),
            b"\x80\x05not really a pickle",
            pickle.dumps((1,)),
        ],
        ids=["refused", "undecodable", "accept-raises"],
    )
    def test_anything_else_is_a_miss_and_is_discarded(self, store, payload):
        def accept(value):
            return value[1] == ["two"]  # raises on a 1-tuple

        digest = put(store, payload)
        assert store.decode(digest, accept) is None
        assert not store.has(digest)

    @pytest.mark.parametrize("digest", [None, "../x", {"rows": []}, "0" * 64])
    def test_a_missing_or_non_digest_address_is_a_miss(self, store, digest):
        assert store.decode(digest, self.is_pair) is None


class TestBudgets:
    @settings(max_examples=25, deadline=None)
    @given(
        sizes=st.lists(st.integers(min_value=1, max_value=2048), min_size=1,
                       max_size=12),
        budget=st.integers(min_value=1, max_value=4096),
    )
    def test_size_budget_never_exceeded_after_sweep(self, sizes, budget):
        with tempfile.TemporaryDirectory() as tmp:
            store = DiskBlobStore(
                Path(tmp) / "blobs", max_bytes=budget, max_age_s=0.0
            )
            for index, size in enumerate(sizes):
                put(store, bytes([index % 256]) * size)
            store.evict()
            entries = store._scan()
            total = sum(size for _, size, _ in entries)
            # The newest entry is exempt from the size sweep (an oversize
            # blob must survive to its register), so either the budget
            # holds or exactly one (over-budget) entry remains.
            assert total <= budget or len(entries) == 1

    def test_age_budget_expires_untouched_entries(self, tmp_path):
        store = DiskBlobStore(tmp_path / "blobs", max_bytes=1 << 20, max_age_s=60.0)
        old = put(store, b"old entry" * 50)
        fresh = put(store, b"fresh entry" * 50)
        ancient = time.time() - 3600.0
        os.utime(store._path(old), (ancient, ancient))
        store.evict()
        assert not store.has(old)
        assert store.has(fresh)

    def test_size_sweep_evicts_least_recently_used_first(self, tmp_path):
        store = DiskBlobStore(tmp_path / "blobs", max_bytes=250, max_age_s=0.0)
        first = put(store, b"a" * 100)
        second = put(store, b"b" * 100)
        third = put(store, b"c" * 100)
        now = time.time()
        for age, digest in ((30.0, first), (20.0, second), (10.0, third)):
            stamp = now - age
            os.utime(store._path(digest), (stamp, stamp))
        # Reading refreshes LRU position: the oldest-written entry
        # survives because it was touched most recently.
        assert store.get(first) == b"a" * 100
        store.evict()
        assert store.has(first)
        assert store.has(third)
        assert not store.has(second)

    def test_clear_removes_everything(self, store):
        digests = [put(store, bytes([i]) * 200) for i in range(5)]
        assert store.clear() == 5
        assert all(not store.has(d) for d in digests)
        assert store.stats()["entries"] == 0


class TestStats:
    def test_stats_report_entries_bytes_and_counters(self, store):
        put(store, b"x" * 300)
        store.get(blob_digest(b"x" * 300))
        stats = store.stats()
        assert stats["entries"] == 1
        assert stats["bytes"] == 300
        assert stats["hits"] == 1
        assert stats["puts"] == 1
        assert stats["root"].endswith("blobs")

    def test_stats_never_create_the_directory(self, tmp_path):
        root = tmp_path / "never-created"
        stats = DiskBlobStore(root).stats()
        assert stats["entries"] == 0
        assert not root.exists()
