"""Tests for the cross-query planning-statistics cache."""


from repro.relational.predicates import JoinCondition
from repro.relational.query import JoinQuery
from repro.relational.relation import Relation
from repro.relational.sampling import SampledJoinEstimator
from repro.relational.schema import Schema
from repro.relational.statistics import StatisticsCatalog
from repro.relational.stats_cache import (
    PlanningCache,
    get_planning_cache,
    relation_fingerprint,
)
from repro.utils import make_rng


def rel(name, rows, seed=0):
    rng = make_rng("stats-cache-test", name, seed)
    return Relation(
        name,
        Schema.of("id:int", "v:int", "d:int"),
        [(i, rng.randint(0, 99), rng.randint(1, 30)) for i in range(rows)],
    )


def query_of(a, b):
    return JoinQuery(
        "q", {"a": a, "b": b}, [JoinCondition.parse(1, "a.v = b.v")]
    )


def estimator_for(query, cache):
    catalog = StatisticsCatalog()
    for relation in query.relations.values():
        if relation.name not in catalog:
            catalog.add_relation(relation, cache=cache)
    return SampledJoinEstimator(query, catalog, cache=cache)


class TestFingerprint:
    def test_identical_content_same_fingerprint(self):
        assert relation_fingerprint(rel("A", 50)) == relation_fingerprint(
            rel("A", 50)
        )

    def test_content_change_changes_fingerprint(self):
        assert relation_fingerprint(rel("A", 50)) != relation_fingerprint(
            rel("A", 50, seed=1)
        )

    def test_name_change_changes_fingerprint(self):
        assert relation_fingerprint(rel("A", 50)) != relation_fingerprint(
            rel("B", 50)
        )

    def test_schema_rename_changes_fingerprint(self):
        # Statistics are keyed by attribute name; identical rows under
        # renamed columns must not share cache entries.
        rows = [(i, i * 2, i % 7) for i in range(50)]
        one = Relation("A", Schema.of("id:int", "v:int", "d:int"), rows)
        other = Relation("A", Schema.of("id:int", "w:int", "d:int"), rows)
        assert relation_fingerprint(one) != relation_fingerprint(other)

    def test_append_invalidates_memo(self):
        relation = rel("A", 50)
        first = relation_fingerprint(relation)
        relation.append((50, 1, 2))
        assert relation_fingerprint(relation) != first


class TestSampleCache:
    def test_hit_on_same_instance(self):
        cache = PlanningCache()
        relation = rel("A", 200)
        s1 = cache.sample(relation, "a", 50)
        s2 = cache.sample(relation, "a", 50)
        assert s1 is s2
        counters = cache.counters()["samples"]
        assert counters == {"hits": 1, "misses": 1, "entries": 1}

    def test_hit_across_instances_with_same_content(self):
        cache = PlanningCache()
        s1 = cache.sample(rel("A", 200), "a", 50)
        s2 = cache.sample(rel("A", 200), "a", 50)
        assert s1 is s2

    def test_miss_on_different_alias_or_size(self):
        cache = PlanningCache()
        relation = rel("A", 200)
        cache.sample(relation, "a", 50)
        cache.sample(relation, "b", 50)
        cache.sample(relation, "a", 60)
        assert cache.counters()["samples"] == {
            "hits": 0,
            "misses": 3,
            "entries": 3,
        }

    def test_sample_matches_uncached_draw(self):
        cache = PlanningCache()
        relation = rel("A", 200)
        cached = cache.sample(relation, "a", 50)
        direct = relation.sample(50, make_rng("join-sample", "A", "a"))
        assert cached.rows == direct.rows

    def test_append_orphans_cached_sample(self):
        """An in-place ``append`` changes the fingerprint, so the next
        lookup misses and resamples the grown relation."""
        cache = PlanningCache()
        relation = rel("A", 200)
        cache.sample(relation, "a", 50)
        relation.append((10_000, 3, 1))
        resampled = cache.sample(relation, "a", 50)
        assert cache.counters()["samples"] == {
            "hits": 0,
            "misses": 2,
            "entries": 2,
        }
        assert resampled.rows == relation.sample(
            50, make_rng("join-sample", "A", "a")
        ).rows


class TestRelationStatsCache:
    def test_hit_and_equivalence(self):
        cache = PlanningCache()
        stats1 = cache.relation_stats(rel("A", 300))
        stats2 = cache.relation_stats(rel("A", 300))
        assert stats1 is stats2
        catalog = StatisticsCatalog()
        uncached = catalog.add_relation(rel("A", 300))
        assert stats1.columns["v"].boundaries == uncached.columns["v"].boundaries

    def test_sample_size_part_of_key(self):
        cache = PlanningCache()
        relation = rel("A", 300)
        cache.relation_stats(relation, sample_size=100)
        cache.relation_stats(relation, sample_size=200)
        assert cache.counters()["stats"]["entries"] == 2

    def test_buckets_part_of_key(self):
        cache = PlanningCache()
        relation = rel("A", 300)
        coarse = cache.relation_stats(relation, buckets=5)
        fine = cache.relation_stats(relation, buckets=20)
        assert coarse is not fine
        assert cache.counters()["stats"]["entries"] == 2


class TestJoinObservationCache:
    def test_second_estimator_hits(self):
        cache = PlanningCache()
        a, b = rel("A", 200), rel("B", 180, seed=1)
        first = estimator_for(query_of(a, b), cache)
        value = first.selectivity(list(first.query.conditions))
        joins_after_first = dict(cache.counters()["joins"])
        assert joins_after_first["misses"] == 1

        # Fresh relations with identical content: the sample join is
        # served from the cache and the estimate is bit-identical.
        second = estimator_for(query_of(rel("A", 200), rel("B", 180, seed=1)), cache)
        assert second.selectivity(list(second.query.conditions)) == value
        joins = cache.counters()["joins"]
        assert joins["hits"] == 1 and joins["misses"] == 1

    def test_matches_uncached_estimator(self):
        a, b = rel("A", 200), rel("B", 180, seed=1)
        shared = estimator_for(query_of(a, b), PlanningCache())
        private = estimator_for(query_of(a, b), PlanningCache())
        conditions = list(shared.query.conditions)
        assert shared.selectivity(conditions) == private.selectivity(conditions)

    def test_different_content_misses(self):
        cache = PlanningCache()
        est1 = estimator_for(query_of(rel("A", 200), rel("B", 180, seed=1)), cache)
        est1.selectivity(list(est1.query.conditions))
        est2 = estimator_for(query_of(rel("A", 200, seed=2), rel("B", 180, seed=1)), cache)
        est2.selectivity(list(est2.query.conditions))
        assert cache.counters()["joins"] == {
            "hits": 0,
            "misses": 2,
            "entries": 2,
        }

    def test_sample_params_part_of_key(self):
        cache = PlanningCache()
        a, b = rel("A", 200), rel("B", 180, seed=1)
        catalog = StatisticsCatalog()
        catalog.add_relation(a, cache=cache)
        catalog.add_relation(b, cache=cache)
        query = query_of(a, b)
        for rows in (50, 100):
            est = SampledJoinEstimator(query, catalog, sample_rows=rows, cache=cache)
            est.selectivity(list(query.conditions))
        assert cache.counters()["joins"]["entries"] == 2

    def test_cached_none_observation_is_a_hit(self):
        """A work-cap overflow (``None``) is a *hit*, distinct from a miss."""
        cache = PlanningCache()
        signature = (("a",), frozenset(), 1, 1)
        assert cache.join_observation(signature) == (False, None)
        cache.store_join_observation(signature, None)
        assert cache.join_observation(signature) == (True, None)
        cache.store_join_observation(("b",), (3, 1600))
        assert cache.join_observation(("b",)) == (True, (3, 1600))


class TestInvalidation:
    def test_clear(self):
        cache = PlanningCache()
        est = estimator_for(query_of(rel("A", 200), rel("B", 180, seed=1)), cache)
        est.selectivity(list(est.query.conditions))
        cache.clear()
        assert all(
            t["entries"] == 0 for t in cache.counters().values()
        )

    def test_recompute_after_clear_is_identical(self):
        cache = PlanningCache()
        relation = rel("A", 200)
        sample = cache.sample(relation, "a", 50)
        stats = cache.relation_stats(relation, sample_size=100)
        cache.clear()
        assert cache.sample(relation, "a", 50).rows == sample.rows
        again = cache.relation_stats(relation, sample_size=100)
        assert again is not stats
        assert again.cardinality == stats.cardinality
        for name in stats.columns:
            assert again.column(name).distinct == stats.column(name).distinct

    def test_lru_bound(self):
        cache = PlanningCache(max_entries=4)
        for seed in range(10):
            cache.sample(rel("A", 30, seed=seed), "a", 10)
        assert cache.counters()["samples"]["entries"] == 4


def test_default_cache_is_shared_singleton():
    assert get_planning_cache() is get_planning_cache()
