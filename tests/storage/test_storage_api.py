"""The unified storage API: two disk tiers, no internals.

:mod:`repro.storage` is the single surface callers use, and the
``repro cache`` CLI goes through :func:`~repro.storage.tier_stats` /
:func:`~repro.storage.clear_tiers` instead of reaching into store
internals.
"""

import pickle

import pytest

from repro.storage import (
    CHECKPOINT_TABLES,
    DiskBlobStore,
    KeyedDiskStore,
    LRUTable,
    blob_digest,
    checkpoint_tier,
    clear_tiers,
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


class TestKeyedStore:
    def test_version_skew_reads_as_miss(self, tmp_path):
        writer = KeyedDiskStore(tmp_path / "k", ("t",), version="1")
        writer.store("t", ("key",), "value")
        reader = KeyedDiskStore(tmp_path / "k", ("t",), version="2")
        hit, _ = reader.load("t", ("key",))
        assert not hit
        # The skewed file was deleted on contact; a same-version reader
        # now simply misses.
        hit, _ = KeyedDiskStore(tmp_path / "k", ("t",), version="1").load(
            "t", ("key",)
        )
        assert not hit

    @pytest.mark.parametrize("damage", [
        lambda path: path.write_bytes(b"this is not a pickle"),
        lambda path: path.write_bytes(path.read_bytes()[:10]),
        lambda path: path.write_bytes(
            pickle.dumps({**pickle.loads(path.read_bytes()), "format": -1})
        ),
        lambda path: path.write_bytes(
            pickle.dumps({**pickle.loads(path.read_bytes()), "key": ("other",)})
        ),
        lambda path: path.write_bytes(
            pickle.dumps({**pickle.loads(path.read_bytes()), "table": "other"})
        ),
    ], ids=["garbage", "truncated", "stale-format", "key-mismatch",
            "table-mismatch"])
    def test_damaged_entry_reads_as_miss_and_is_deleted(self, tmp_path, damage):
        """The checkpoint index can cost a recompute, never serve a wrong
        value: every unreadable or mismatching file is a miss and goes."""
        store = KeyedDiskStore(tmp_path / "k", ("t",))
        store.store("t", ("key",), "value")
        (path,) = (store.root / "t").glob("*.pkl")
        damage(path)
        assert store.load("t", ("key",)) == (False, None)
        assert not path.exists()
        store.store("t", ("key",), "value")
        assert store.load("t", ("key",)) == (True, "value")

    def test_unwritable_root_degrades_to_misses(self, tmp_path):
        target = tmp_path / "not-a-dir"
        target.write_text("file in the way")
        store = KeyedDiskStore(target / "k", ("t",))
        store.store("t", ("key",), "value")
        assert store.errors == 1
        assert store.load("t", ("key",)) == (False, None)

    def test_stats_shape(self, tmp_path):
        store = KeyedDiskStore(tmp_path / "k", ("alpha", "beta"))
        store.store("alpha", ("k",), [1, 2, 3])
        stats = store.stats()
        assert stats["entries"] == 1
        assert stats["bytes"] > 0
        assert set(stats["tables"]) == {"alpha", "beta"}

    def test_prune_bounds_table(self, tmp_path):
        store = KeyedDiskStore(
            tmp_path / "checkpoints", CHECKPOINT_TABLES, max_entries_per_table=4
        )
        for i in range(128):  # crosses the every-128-stores prune point
            store.store("waves", ("wave-key", i), {"digest": "d" * 64, "bytes": i})
        store._prune(store.root / "waves")
        remaining = list((store.root / "waves").glob("*.pkl"))
        assert len(remaining) <= 4

    def test_clear_removes_unreadable_entries_and_spares_part_files(
        self, tmp_path
    ):
        store = KeyedDiskStore(tmp_path / "k", ("t",))
        store.store("t", ("key",), "value")
        table_dir = store.root / "t"
        garbage = table_dir / ("0" * 64 + ".pkl")
        garbage.write_bytes(b"this is not a pickle")
        in_flight = table_dir / ".tmp-writer.part"
        in_flight.write_bytes(b"half a payload")
        assert store.clear() == 2
        assert not list(table_dir.glob("*.pkl"))
        assert in_flight.read_bytes() == b"half a payload"


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
        checkpoint_tier().store(
            "waves", ("wave-key",), {"digest": "d" * 64, "bytes": 16}
        )
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
