"""The unified storage API: three tiers, no internals.

:mod:`repro.storage` is the single surface callers use, and the
``repro cache`` CLI goes through :func:`~repro.storage.tier_stats` /
:func:`~repro.storage.clear_tiers` instead of reaching into store
internals.
"""

import pytest

from repro.storage import (
    DiskBlobStore,
    KeyedDiskStore,
    LRUTable,
    blob_digest,
    checkpoint_tier,
    clear_tiers,
    planning_tier,
    tier_stats,
)

TIERS = ("planning", "checkpoints", "blobs")


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

    def test_stats_shape(self, tmp_path):
        store = KeyedDiskStore(tmp_path / "k", ("alpha", "beta"))
        store.store("alpha", ("k",), [1, 2, 3])
        stats = store.stats()
        assert stats["entries"] == 1
        assert stats["bytes"] > 0
        assert set(stats["tables"]) == {"alpha", "beta"}


class TestTiers:
    def populate(self, cache_root):
        planning = planning_tier()
        planning.store("samples", ("fingerprint", "a", 10), [1, 2, 3])
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
        assert removed == {"planning": 1, "checkpoints": 1, "blobs": 1}
        stats = tier_stats()
        for tier in TIERS:
            assert stats[tier]["entries"] == 0

    def test_clear_tiers_scoped_to_one_tier(self, _cache_env):
        self.populate(_cache_env)
        assert clear_tiers(only="blobs") == {"blobs": 1}
        stats = tier_stats()
        assert stats["planning"]["entries"] == 1
        assert stats["checkpoints"]["entries"] == 1
        assert stats["blobs"]["entries"] == 0

    def test_clear_tiers_scoped_to_checkpoints(self, _cache_env):
        self.populate(_cache_env)
        assert clear_tiers(only="checkpoints") == {"checkpoints": 1}
        assert tier_stats()["planning"]["entries"] == 1

    def test_stats_on_cold_machine_create_nothing(self, _cache_env):
        tier_stats()
        assert not _cache_env.exists()
