"""Correctness tests for the physical join operators against the oracle.

Every operator must produce exactly the reference join result — no
missing combinations, no duplicates — across equality, inequality, and
mixed conditions, including offsets.  A hypothesis property generates
random two-relation theta joins and checks the hypercube operator.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.partitioner import HypercubePartitioner, RandomPartitioner
from repro.errors import ExecutionError
from repro.joins.jobs import (
    find_single_key_class,
    make_broadcast_join_job,
    make_equi_join_job,
    make_equichain_join_job,
    make_hypercube_join_job,
)
from repro.joins.records import relation_to_composite_file
from repro.joins.reference import join_result_signature, reference_join
from repro.joins.shares import make_shares_join_job
from repro.mapreduce.hdfs import DistributedFile
from repro.mapreduce.runtime import SimulatedCluster
from repro.relational.predicates import JoinCondition
from repro.relational.query import JoinQuery
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.utils import make_rng

from tail_oracle import slab_of


def rel(name: str, rows: int, hi: int = 40, groups: int = 4, seed: int = 0) -> Relation:
    rng = make_rng("joins-test", name, rows, seed)
    return Relation(
        name,
        Schema.of("id:int", "v:int", "g:int"),
        [(i, rng.randint(0, hi - 1), rng.randint(0, groups - 1)) for i in range(rows)],
    )


def run_hypercube(query: JoinQuery, num_components: int = 6):
    cluster = SimulatedCluster()
    aliases = sorted(query.relations)
    files = [
        relation_to_composite_file(query.relations[a], a, file_name=f"f:{a}")
        for a in aliases
    ]
    partitioner = HypercubePartitioner([f.num_records for f in files], num_components)
    schemas = {a: query.relations[a].schema for a in aliases}
    spec = make_hypercube_join_job(
        "hc", files, partitioner, query.conditions, schemas
    )
    return cluster.run_job(spec)


class TestHypercubeJoin:
    @pytest.mark.parametrize("k", [1, 2, 5, 9])
    def test_matches_reference_any_k(self, k):
        query = JoinQuery(
            "q",
            {"a": rel("A", 25), "b": rel("B", 20, seed=1)},
            [JoinCondition.parse(1, "a.v < b.v")],
        )
        result = run_hypercube(query, k)
        assert join_result_signature(result.output.records) == join_result_signature(
            reference_join(query)
        )

    def test_three_way_chain(self):
        query = JoinQuery(
            "q",
            {"a": rel("A", 18), "b": rel("B", 16, seed=1), "c": rel("C", 14, seed=2)},
            [
                JoinCondition.parse(1, "a.v <= b.v"),
                JoinCondition.parse(2, "b.g = c.g"),
            ],
        )
        result = run_hypercube(query, 7)
        assert join_result_signature(result.output.records) == join_result_signature(
            reference_join(query)
        )

    def test_cyclic_conditions(self):
        query = JoinQuery(
            "q",
            {"a": rel("A", 14), "b": rel("B", 13, seed=1), "c": rel("C", 12, seed=2)},
            [
                JoinCondition.parse(1, "a.v < b.v"),
                JoinCondition.parse(2, "b.v < c.v"),
                JoinCondition.parse(3, "a.v + 15 > c.v"),
            ],
        )
        result = run_hypercube(query, 5)
        assert join_result_signature(result.output.records) == join_result_signature(
            reference_join(query)
        )

    def test_ne_condition(self):
        query = JoinQuery(
            "q",
            {"a": rel("A", 15), "b": rel("B", 12, seed=3)},
            [JoinCondition.parse(1, "a.g != b.g")],
        )
        result = run_hypercube(query, 4)
        assert join_result_signature(result.output.records) == join_result_signature(
            reference_join(query)
        )

    def test_input_validation(self):
        a, b = rel("A", 10), rel("B", 10, seed=1)
        fa = relation_to_composite_file(a, "a")
        fb = relation_to_composite_file(b, "b")
        part = HypercubePartitioner([10, 99], 2)  # wrong cardinality
        with pytest.raises(ExecutionError):
            make_hypercube_join_job(
                "bad", [fa, fb], part,
                [JoinCondition.parse(1, "a.v < b.v")],
                {"a": a.schema, "b": b.schema},
            )

    @given(
        st.sampled_from(["<", "<=", "=", ">=", ">", "!="]),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=25, deadline=None)
    def test_property_random_theta_joins(self, op, k, seed):
        a = rel("PA", 12, hi=10, seed=seed)
        b = rel("PB", 11, hi=10, seed=seed + 1)
        query = JoinQuery(
            "pq", {"a": a, "b": b}, [JoinCondition.parse(1, f"a.v {op} b.v")]
        )
        result = run_hypercube(query, k)
        assert join_result_signature(result.output.records) == join_result_signature(
            reference_join(query)
        )

    def test_random_partitioner_also_exact(self):
        """Partition quality affects cost, never correctness."""
        query = JoinQuery(
            "q",
            {"a": rel("A", 20), "b": rel("B", 18, seed=1)},
            [JoinCondition.parse(1, "a.v >= b.v")],
        )
        cluster = SimulatedCluster()
        files = [
            relation_to_composite_file(query.relations[x], x)
            for x in ("a", "b")
        ]
        partitioner = RandomPartitioner([20, 18], 6)
        spec = make_hypercube_join_job(
            "rc", files, partitioner, query.conditions,
            {x: query.relations[x].schema for x in ("a", "b")},
        )
        result = cluster.run_job(spec)
        assert join_result_signature(result.output.records) == join_result_signature(
            reference_join(query)
        )


class TestEquiJoin:
    def test_matches_reference(self):
        query = JoinQuery(
            "q",
            {"a": rel("A", 30), "b": rel("B", 25, seed=1)},
            [JoinCondition.parse(1, "a.g = b.g")],
        )
        cluster = SimulatedCluster()
        fa = relation_to_composite_file(query.relations["a"], "a")
        fb = relation_to_composite_file(query.relations["b"], "b")
        spec = make_equi_join_job(
            "eq", fa, fb, query.conditions,
            {"a": query.relations["a"].schema, "b": query.relations["b"].schema},
            num_reducers=4,
        )
        result = cluster.run_job(spec)
        assert join_result_signature(result.output.records) == join_result_signature(
            reference_join(query)
        )

    def test_residual_theta_filter(self):
        query = JoinQuery(
            "q",
            {"a": rel("A", 25), "b": rel("B", 25, seed=1)},
            [JoinCondition.parse(1, "a.g = b.g", "a.v < b.v")],
        )
        cluster = SimulatedCluster()
        fa = relation_to_composite_file(query.relations["a"], "a")
        fb = relation_to_composite_file(query.relations["b"], "b")
        spec = make_equi_join_job(
            "eqr", fa, fb, query.conditions,
            {x: query.relations[x].schema for x in ("a", "b")},
            num_reducers=4,
        )
        result = cluster.run_job(spec)
        assert join_result_signature(result.output.records) == join_result_signature(
            reference_join(query)
        )

    def test_requires_equality_key(self):
        a, b = rel("A", 5), rel("B", 5, seed=1)
        fa = relation_to_composite_file(a, "a")
        fb = relation_to_composite_file(b, "b")
        with pytest.raises(ExecutionError):
            make_equi_join_job(
                "noeq", fa, fb, [JoinCondition.parse(1, "a.v < b.v")],
                {"a": a.schema, "b": b.schema}, num_reducers=2,
            )


class TestBroadcastJoin:
    def test_matches_reference(self):
        query = JoinQuery(
            "q",
            {"a": rel("A", 22), "b": rel("B", 9, seed=1)},
            [JoinCondition.parse(1, "a.v > b.v")],
        )
        cluster = SimulatedCluster()
        fa = relation_to_composite_file(query.relations["a"], "a")
        fb = relation_to_composite_file(query.relations["b"], "b")
        spec = make_broadcast_join_job(
            "bc", fa, fb, query.conditions,
            {x: query.relations[x].schema for x in ("a", "b")},
            num_reducers=5,
        )
        result = cluster.run_job(spec)
        assert join_result_signature(result.output.records) == join_result_signature(
            reference_join(query)
        )

    def test_small_side_replicated(self):
        a, b = rel("A", 40), rel("B", 5, seed=1)
        cluster = SimulatedCluster()
        fa = relation_to_composite_file(a, "a")
        fb = relation_to_composite_file(b, "b")
        spec = make_broadcast_join_job(
            "bc2", fa, fb, [JoinCondition.parse(1, "a.v > b.v")],
            {"a": a.schema, "b": b.schema}, num_reducers=8,
        )
        metrics = cluster.run_job(spec).metrics
        # 40 big records once + 5 small records x 8 reducers.
        assert metrics.map_output_records == 40 + 5 * 8


class TestEquichainJoin:
    def test_three_inputs_one_key_class(self):
        query = JoinQuery(
            "q",
            {
                "a": rel("A", 20),
                "b": rel("B", 18, seed=1),
                "c": rel("C", 16, seed=2),
            },
            [
                JoinCondition.parse(1, "a.g = b.g"),
                JoinCondition.parse(2, "b.g = c.g", "b.v <= c.v"),
            ],
        )
        cluster = SimulatedCluster()
        files = [
            relation_to_composite_file(query.relations[x], x)
            for x in ("a", "b", "c")
        ]
        spec = make_equichain_join_job(
            "ec", files, query.conditions,
            {x: query.relations[x].schema for x in ("a", "b", "c")},
            num_reducers=4,
        )
        result = cluster.run_job(spec)
        assert join_result_signature(result.output.records) == join_result_signature(
            reference_join(query)
        )

    def test_rejects_disjoint_key_classes(self):
        a, b, c = rel("A", 5), rel("B", 5, seed=1), rel("C", 5, seed=2)
        files = [
            relation_to_composite_file(a, "a"),
            relation_to_composite_file(b, "b"),
            relation_to_composite_file(c, "c"),
        ]
        conditions = [
            JoinCondition.parse(1, "a.g = b.g"),
            JoinCondition.parse(2, "b.v < c.v"),  # no key reaching c
        ]
        with pytest.raises(ExecutionError):
            make_equichain_join_job(
                "bad", files, conditions,
                {"a": a.schema, "b": b.schema, "c": c.schema}, num_reducers=2,
            )


class TestFindSingleKeyClass:
    def test_transitive_class_found(self):
        conditions = [
            JoinCondition.parse(1, "a.g = b.g"),
            JoinCondition.parse(2, "b.g = c.g"),
        ]
        refs = find_single_key_class(conditions, [("a",), ("b",), ("c",)])
        assert refs is not None
        assert set(refs) == {"a", "b", "c"}

    def test_none_when_class_does_not_cover(self):
        conditions = [
            JoinCondition.parse(1, "a.g = b.g"),
            JoinCondition.parse(2, "b.v < c.v"),
        ]
        assert find_single_key_class(conditions, [("a",), ("b",), ("c",)]) is None

    def test_none_without_equalities(self):
        conditions = [JoinCondition.parse(1, "a.v < b.v")]
        assert find_single_key_class(conditions, [("a",), ("b",)]) is None

    def test_offset_equality_not_a_key(self):
        conditions = [JoinCondition.parse(1, "a.v + 1 = b.v")]
        assert find_single_key_class(conditions, [("a",), ("b",)]) is None

    def test_intermediate_alias_groups(self):
        conditions = [
            JoinCondition.parse(1, "a.g = b.g"),
            JoinCondition.parse(2, "b.g = c.g"),
        ]
        refs = find_single_key_class(conditions, [("a", "b"), ("c",)])
        assert refs is not None


class TestInputsAreSlabs:
    """Every builder reads its inputs' covers from their slabs: an empty
    input still names its aliases, and a file of anything else is refused
    by name."""

    @staticmethod
    def inputs():
        rels = {x: rel(x.upper(), 8, seed=i) for i, x in enumerate("abc")}
        files = {x: relation_to_composite_file(r, x) for x, r in rels.items()}
        return {x: r.schema for x, r in rels.items()}, files

    @staticmethod
    def empty(alias, tag=None):
        return DistributedFile(f"empty:{alias}", slab_of((alias,), []), 16, tag=tag or alias)

    def test_empty_input_keeps_its_cover(self):
        schemas, files = self.inputs()
        equality = [JoinCondition.parse(1, "a.g = b.g")]
        chain = equality + [JoinCondition.parse(2, "b.g = c.g")]
        three = [self.empty("a"), files["b"], files["c"]]
        specs = [
            make_equi_join_job("e", self.empty("a"), files["b"], equality, schemas, 2),
            make_broadcast_join_job("bc", files["b"], self.empty("a"), equality, schemas, 2),
            make_equichain_join_job("ec", three, chain, schemas, 2),
            make_shares_join_job("s", three, chain, schemas, total_reducers=4),
        ]
        for spec in specs:
            output = SimulatedCluster().run_job(spec).output
            assert len(output.records) == 0, spec.name
            assert output.records.cover == ("a", "b", "c")[: len(spec.inputs)], spec.name

    def test_shares_refuses_an_empty_input_of_another_alias(self):
        schemas, files = self.inputs()
        with pytest.raises(ExecutionError, match="singleton"):
            make_shares_join_job(
                "s", [self.empty("z", tag="a"), files["b"]],
                [JoinCondition.parse(1, "a.g = b.g")], schemas, total_reducers=4,
            )

    def test_a_file_of_tuples_is_refused_by_name(self):
        schemas, files = self.inputs()
        tuples = DistributedFile("tuples:a", list(files["a"].records), 40, tag="a")
        equality = [JoinCondition.parse(1, "a.g = b.g")]
        builds = [
            lambda: make_hypercube_join_job(
                "h", [tuples, files["b"]], HypercubePartitioner([8, 8], 2), equality, schemas
            ),
            lambda: make_equi_join_job("e", tuples, files["b"], equality, schemas, 2),
            lambda: make_broadcast_join_job("bc", files["b"], tuples, equality, schemas, 2),
            lambda: make_equichain_join_job("ec", [tuples, files["b"]], equality, schemas, 2),
            lambda: make_shares_join_job(
                "s", [tuples, files["b"]], equality, schemas, total_reducers=4
            ),
        ]
        for build in builds:
            with pytest.raises(ExecutionError, match="'tuples:a' holds list, not a CompositeSlab"):
                build()


class TestShuffleCarriesPositions:
    """No row or composite crosses the shuffle: every value a join's map
    side emits is ``(tag, position)``."""

    @pytest.mark.parametrize(
        "builder", ["hypercube", "equi", "broadcast", "equichain", "shares"]
    )
    def test_every_map_value_is_a_tag_and_an_int(self, builder):
        schemas, files = TestInputsAreSlabs.inputs()
        equality = [JoinCondition.parse(1, "a.g = b.g")]
        two = [files["a"], files["b"]]
        if builder == "hypercube":
            spec = make_hypercube_join_job(
                "h", two, HypercubePartitioner([8, 8], 3), equality, schemas
            )
        elif builder == "equi":
            spec = make_equi_join_job("e", *two, equality, schemas, 3)
        elif builder == "broadcast":
            spec = make_broadcast_join_job("bc", *two, equality, schemas, 3)
        elif builder == "equichain":
            chain = equality + [JoinCondition.parse(2, "b.g = c.g")]
            spec = make_equichain_join_job("ec", [*two, files["c"]], chain, schemas, 3)
        else:
            spec = make_shares_join_job("s", two, equality, schemas, total_reducers=4)
        mapper = spec.batched_mapper()
        values = [
            value
            for file in spec.inputs
            for bucket in mapper(file.tag, file.records, 0).buckets
            for group in bucket.values()
            for value in group
        ]
        assert values
        for value in values:
            assert type(value) is tuple and len(value) == 2, value
            assert type(value[1]) is int and 0 <= value[1] < 8, value
        # One tag per input: the reducer tells the inputs apart by it.
        assert len({value[0] for value in values}) == len(spec.inputs)
