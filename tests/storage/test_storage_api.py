"""The unified storage API: two disk tiers, no internals.

:mod:`repro.storage` is the single surface callers use, and the
``repro cache`` CLI goes through :func:`~repro.storage.tier_stats` /
:func:`~repro.storage.clear_tiers` instead of reaching into store
internals.
"""

import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage import (
    DiskBlobStore,
    LRUTable,
    PointerIndex,
    blob_digest,
    checkpoint_tier,
    clear_tiers,
    is_digest,
    stable_key_repr,
    tier_stats,
)

TIERS = ("checkpoints", "blobs")


@pytest.fixture(autouse=True)
def _cache_env(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    yield tmp_path / "cache"


class TestProtocol:
    def test_lru_table_basics(self):
        table = LRUTable(max_entries=2)
        table.store("a", 1)
        table.store("b", 2)
        table.lookup("a")  # refresh: "b" becomes the eviction victim
        table.store("c", 3)
        assert table.lookup("a") == (True, 1)
        assert table.lookup("b") == (False, None)
        assert table.lookup("c") == (True, 3)


class TestPointerIndex:
    KEY = "c" * 64
    DIGEST = "d" * 64

    def pointer(self, index):
        return index.root / f"{self.KEY}.ref"

    def test_round_trip_is_the_digest_as_the_file(self, tmp_path):
        index = PointerIndex(tmp_path / "checkpoints")
        assert index.store(self.KEY, self.DIGEST)
        assert index.load(self.KEY) == self.DIGEST
        assert self.pointer(index).read_bytes() == self.DIGEST.encode("ascii")

    @settings(max_examples=200, deadline=None)
    @given(raw=st.one_of(
        st.binary(max_size=80),
        st.text("0123456789abcdefABCDEF\n ", min_size=60, max_size=68).map(
            lambda text: text.encode("ascii")
        ),
    ))
    def test_any_pointer_bytes_are_the_digest_or_a_deleted_miss(self, raw):
        """A pointer file holds nothing to decode: whatever bytes it has,
        ``load`` returns exactly them as a digest, or misses and the file
        is gone."""
        with tempfile.TemporaryDirectory() as tmp:
            index = PointerIndex(Path(tmp))
            path = self.pointer(index)
            path.write_bytes(raw)
            digest = index.load(self.KEY)
            if digest is None:
                assert not path.exists()
            else:
                assert is_digest(digest)
                assert digest.encode("ascii") == raw

    @pytest.mark.parametrize("raw", [
        b"this is not a digest",
        b"d" * 10,
        b"D" * 64,
        b"d" * 64 + b"\n",
        b"\xff" * 64,
    ], ids=["garbage", "truncated", "uppercase", "trailing-newline", "non-ascii"])
    def test_damaged_pointer_reads_as_miss_and_is_deleted(self, tmp_path, raw):
        """The checkpoint index can cost a recompute, never point at the
        wrong blob: a file that is not exactly a digest is a miss and
        goes."""
        index = PointerIndex(tmp_path / "checkpoints")
        index.store(self.KEY, self.DIGEST)
        self.pointer(index).write_bytes(raw)
        assert index.load(self.KEY) is None
        assert not self.pointer(index).exists()
        index.store(self.KEY, self.DIGEST)
        assert index.load(self.KEY) == self.DIGEST

    def test_unwritable_root_degrades_to_misses(self, tmp_path):
        target = tmp_path / "not-a-dir"
        target.write_text("file in the way")
        index = PointerIndex(target / "checkpoints")
        assert not index.store(self.KEY, self.DIGEST)
        assert index.load(self.KEY) is None

    def test_stats_shape(self, tmp_path):
        index = PointerIndex(tmp_path / "checkpoints")
        index.store(self.KEY, self.DIGEST)
        assert index.stats() == {
            "root": str(index.root), "entries": 1, "bytes": 64,
        }

    def test_prune_bounds_index(self, tmp_path):
        index = PointerIndex(tmp_path / "checkpoints", max_entries=4)
        for i in range(128):  # crosses the every-128-stores prune point
            assert index.store(blob_digest(b"wave-key %d" % i), self.DIGEST)
        assert len(list(index.root.glob("*.ref"))) <= 4

    def test_clear_removes_unreadable_entries_and_spares_part_files(
        self, tmp_path
    ):
        index = PointerIndex(tmp_path / "checkpoints")
        index.store(self.KEY, self.DIGEST)
        garbage = index.root / ("0" * 64 + ".ref")
        garbage.write_bytes(b"this is not a digest")
        # An entry of the earlier pickled layout, swept without an upgrade
        # step: clear unlinks every file, whatever its name.
        old_layout = index.root / "waves" / ("1" * 64 + ".pkl")
        old_layout.parent.mkdir()
        old_layout.write_bytes(b"an old pickled envelope")
        in_flight = index.root / ".tmp-writer.part"
        in_flight.write_bytes(b"half a pointer")
        assert index.clear() == 3
        assert not list(index.root.glob("*.ref"))
        assert not old_layout.exists()
        assert in_flight.read_bytes() == b"half a pointer"


class TestStableKeyRepr:
    """Checkpoint keys are rendered by :func:`stable_key_repr`, so a
    frozenset inside a key must name the same file in every process."""

    def test_frozenset_order_is_canonical(self):
        a = frozenset({("x", "y", 0), ("p", "q", 1), ("m", "n", 2)})
        parts = sorted(stable_key_repr(k) for k in a)
        assert stable_key_repr(a) == "{" + ",".join(parts) + "}"

    def test_nested_structures(self):
        key = ((("a", ("r", 3, "beef")),), frozenset({(1, 2), (3, 4)}), 400)
        assert stable_key_repr(key) == stable_key_repr(key)
        assert "{((1,2)),((3,4))}" not in stable_key_repr(key)  # tuples intact


class TestTiers:
    def populate(self, cache_root):
        assert checkpoint_tier().store("c" * 64, "d" * 64)
        blobs = DiskBlobStore(cache_root / "blobs")
        payload = b"blob payload" * 50
        blobs.put(blob_digest(payload), payload)

    def test_tier_stats_reports_every_tier(self, _cache_env):
        self.populate(_cache_env)
        stats = tier_stats()
        assert set(stats) == set(TIERS)
        for tier in TIERS:
            assert stats[tier]["entries"] == 1
            assert stats[tier]["root"] == str(_cache_env / tier)

    def test_clear_tiers_clears_all(self, _cache_env):
        self.populate(_cache_env)
        removed = clear_tiers()
        assert removed == {"checkpoints": 1, "blobs": 1}
        stats = tier_stats()
        for tier in TIERS:
            assert stats[tier]["entries"] == 0

    def test_clear_tiers_scoped_to_one_tier(self, _cache_env):
        self.populate(_cache_env)
        assert clear_tiers(only="blobs") == {"blobs": 1}
        stats = tier_stats()
        assert stats["checkpoints"]["entries"] == 1
        assert stats["blobs"]["entries"] == 0

    def test_clear_tiers_scoped_to_checkpoints(self, _cache_env):
        self.populate(_cache_env)
        assert clear_tiers(only="checkpoints") == {"checkpoints": 1}
        assert tier_stats()["blobs"]["entries"] == 1

    def test_stats_on_cold_machine_create_nothing(self, _cache_env):
        tier_stats()
        assert not _cache_env.exists()
