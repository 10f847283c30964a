"""Disk persistence of the PlanningCache: round-trips, corruption
tolerance, and fingerprint invalidation.

The disk tier must be a pure accelerator: a fresh process (simulated
here by a fresh :class:`PlanningCache` over the same store) gets
identical samples/statistics/observations without recomputing, while a
corrupt, truncated, stale-format, or colliding file can only ever cause
a recompute — never a wrong answer.
"""

import pickle

import pytest

from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.relational.stats_cache import (
    PlanningCache,
    get_planning_cache,
    relation_fingerprint,
    reset_default_planning_cache,
)
from repro.storage import PLANNING_TABLES, KeyedDiskStore
from repro.storage import stable_key_repr as _stable_key_repr


def make_relation(name="r", rows=200, offset=0):
    return Relation(
        name,
        Schema.of("id:int", "v:int"),
        [(i, (i * 7 + offset) % 31) for i in range(rows)],
    )


@pytest.fixture
def store(tmp_path):
    return KeyedDiskStore(tmp_path / "planning", PLANNING_TABLES)


class TestDiskRoundTrip:
    def test_sample_round_trip_across_cache_instances(self, store):
        relation = make_relation()
        first = PlanningCache(disk=store)
        sample = first.sample(relation, "a", 50)

        fresh = PlanningCache(disk=store)  # same store, empty memory
        again = fresh.sample(relation, "a", 50)
        assert again.rows == sample.rows
        assert again.schema.row_width == sample.schema.row_width
        assert fresh.counters()["disk"]["hits"] == 1

    def test_stats_round_trip(self, store):
        relation = make_relation()
        stats = PlanningCache(disk=store).relation_stats(relation, sample_size=100)
        again = PlanningCache(disk=store).relation_stats(relation, sample_size=100)
        assert again.cardinality == stats.cardinality
        assert sorted(again.columns) == sorted(stats.columns)
        for name in stats.columns:
            assert again.column(name).distinct == stats.column(name).distinct

    def test_join_observation_round_trip(self, store):
        signature = (
            (("a", relation_fingerprint(make_relation())),),
            frozenset({(("a", "v", 0), "=", ("b", "v", 0))}),
            400,
            3_000_000,
        )
        PlanningCache(disk=store).store_join_observation(signature, (3, 1600))
        hit, observation = PlanningCache(disk=store).join_observation(signature)
        assert hit and observation == (3, 1600)

    def test_cached_none_observation_round_trips(self, store):
        """A work-cap overflow (``None``) is a *hit*, distinct from a miss."""
        signature = (("a",), frozenset(), 1, 1)
        PlanningCache(disk=store).store_join_observation(signature, None)
        hit, observation = PlanningCache(disk=store).join_observation(signature)
        assert hit and observation is None

    def test_disk_equal_to_recompute(self, store):
        """Disk-served values equal freshly computed ones exactly."""
        relation = make_relation()
        disk_sample = PlanningCache(disk=store).sample(relation, "x", 40)
        again = PlanningCache(disk=store).sample(relation, "x", 40)
        pure = PlanningCache().sample(relation, "x", 40)
        assert again.rows == pure.rows == disk_sample.rows


class TestCorruptionTolerance:
    def entry_paths(self, store):
        return [
            p
            for table in ("samples", "stats", "joins")
            for p in sorted((store.root / table).glob("*.pkl"))
            if (store.root / table).exists()
        ]

    def test_garbage_file_is_ignored_and_rebuilt(self, store):
        relation = make_relation()
        PlanningCache(disk=store).sample(relation, "a", 50)
        (path,) = self.entry_paths(store)
        path.write_bytes(b"this is not a pickle")

        rebuilt = PlanningCache(disk=store).sample(relation, "a", 50)
        assert rebuilt.rows == PlanningCache().sample(relation, "a", 50).rows
        assert store.errors == 1
        # The bad file was replaced by a fresh, loadable one.
        (path_after,) = self.entry_paths(store)
        assert path_after == path
        assert pickle.loads(path.read_bytes())["table"] == "samples"

    def test_truncated_file_is_ignored(self, store):
        relation = make_relation()
        PlanningCache(disk=store).sample(relation, "a", 50)
        (path,) = self.entry_paths(store)
        path.write_bytes(path.read_bytes()[:10])
        rebuilt = PlanningCache(disk=store).sample(relation, "a", 50)
        assert rebuilt.rows == PlanningCache().sample(relation, "a", 50).rows

    def test_stale_format_is_ignored(self, store):
        relation = make_relation()
        PlanningCache(disk=store).sample(relation, "a", 50)
        (path,) = self.entry_paths(store)
        payload = pickle.loads(path.read_bytes())
        payload["format"] = -1
        path.write_bytes(pickle.dumps(payload))
        rebuilt = PlanningCache(disk=store).sample(relation, "a", 50)
        assert rebuilt.rows == PlanningCache().sample(relation, "a", 50).rows

    def test_other_code_version_is_ignored(self, store):
        """Entries written by a different repro version must read as
        misses — pickled class layouts can change without failing to
        unpickle, so a version mismatch must never serve a hit."""
        relation = make_relation()
        PlanningCache(disk=store).sample(relation, "a", 50)
        (path,) = self.entry_paths(store)
        payload = pickle.loads(path.read_bytes())
        payload["version"] = "0.0.0-older"
        path.write_bytes(pickle.dumps(payload))
        hits_before = store.hits
        rebuilt = PlanningCache(disk=store).sample(relation, "a", 50)
        assert store.hits == hits_before
        assert rebuilt.rows == PlanningCache().sample(relation, "a", 50).rows

    def test_key_mismatch_is_ignored(self, store):
        """A digest collision (stored key != requested key) must miss."""
        relation = make_relation()
        PlanningCache(disk=store).sample(relation, "a", 50)
        (path,) = self.entry_paths(store)
        payload = pickle.loads(path.read_bytes())
        payload["key"] = ("someone", "else's", "key")
        path.write_bytes(pickle.dumps(payload))
        hit, _ = store.load("samples", (relation_fingerprint(relation), "a", 50))
        assert not hit

    def test_unwritable_store_degrades_gracefully(self, tmp_path):
        target = tmp_path / "not-a-dir"
        target.write_text("file in the way")
        store = KeyedDiskStore(target / "planning", PLANNING_TABLES)
        cache = PlanningCache(disk=store)
        sample = cache.sample(make_relation(), "a", 30)
        assert sample.rows == PlanningCache().sample(make_relation(), "a", 30).rows
        assert store.errors >= 1


class TestFingerprintInvalidation:
    def test_content_change_orphans_disk_entries(self, store):
        relation = make_relation()
        stale = PlanningCache(disk=store).sample(relation, "a", 50)
        relation.append((10_000, 3))  # fingerprint changes with content

        fresh = PlanningCache(disk=store)
        resampled = fresh.sample(relation, "a", 50)
        assert fresh.counters()["disk"]["hits"] == 0
        assert resampled.rows != stale.rows or len(relation) != 200

    def test_invalidate_drops_disk_entries(self, store):
        cache = PlanningCache(disk=store)
        cache.sample(make_relation("doomed"), "a", 50)
        cache.relation_stats(make_relation("doomed"), sample_size=100)
        cache.sample(make_relation("kept"), "a", 50)
        dropped = cache.invalidate("doomed")
        assert dropped >= 2  # memory + disk entries for both tables
        survivor = PlanningCache(disk=store)
        survivor.sample(make_relation("kept"), "a", 50)
        assert survivor.counters()["disk"]["hits"] == 1
        hits_before = store.hits
        rebuilt = PlanningCache(disk=store)
        rebuilt.sample(make_relation("doomed"), "a", 50)
        assert store.hits == hits_before  # dropped entry cannot be served

    def test_clear_disk(self, store):
        cache = PlanningCache(disk=store)
        cache.sample(make_relation(), "a", 50)
        cache.clear(disk=True)
        fresh = PlanningCache(disk=store)
        fresh.sample(make_relation(), "a", 50)
        assert fresh.counters()["disk"]["hits"] == 0


class TestStableKeyRepr:
    def test_frozenset_order_is_canonical(self):
        a = frozenset({("x", "y", 0), ("p", "q", 1), ("m", "n", 2)})
        parts = sorted(_stable_key_repr(k) for k in a)
        assert _stable_key_repr(a) == "{" + ",".join(parts) + "}"

    def test_nested_structures(self):
        key = ((("a", ("r", 3, "beef")),), frozenset({(1, 2), (3, 4)}), 400)
        assert _stable_key_repr(key) == _stable_key_repr(key)
        assert "{((1,2)),((3,4))}" not in _stable_key_repr(key)  # tuples intact


class TestDefaultCacheWiring:
    def test_env_enables_disk_tier(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_PLAN_DISK_CACHE", "1")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        reset_default_planning_cache()
        try:
            cache = get_planning_cache()
            assert cache.disk is not None
            assert str(cache.disk.root).startswith(str(tmp_path))
        finally:
            reset_default_planning_cache()

    def test_default_is_memory_only(self, monkeypatch):
        monkeypatch.delenv("REPRO_PLAN_DISK_CACHE", raising=False)
        reset_default_planning_cache()
        try:
            assert get_planning_cache().disk is None
        finally:
            reset_default_planning_cache()

    def test_prune_bounds_table(self, tmp_path):
        store = KeyedDiskStore(
            tmp_path / "planning", PLANNING_TABLES, max_entries_per_table=4
        )
        for i in range(128):  # crosses the every-128-stores prune point
            store.store("joins", ("sig", i), (i, 100))
        store._prune(store.root / "joins")
        remaining = list((store.root / "joins").glob("*.pkl"))
        assert len(remaining) <= 4
