"""Batch-vs-oracle equivalence across the whole query matrix.

Every join job builder ships only batch callables: a routing
``batch_mapper`` and a ``batch_reducer`` over the one progressive-join
kernel (``repro.joins.progressive``).  ``scalar_oracle.py`` rebuilds each
job record-at-a-time from the same builder arguments; these tests run
every map AND reduce phase of every planner's plan both ways and require
bit-identical buckets (including key insertion order), outputs,
counters, per-task costs, and shuffle bytes — on the paper's mobile
queries and the TPC-H extensions — plus identical final answers across
all four planners.  Synthetic large joins give every probe kind key
groups of hundreds of candidates, which the benchmark grid's do not reach.
"""

import dataclasses

import pytest

import repro.core.executor as executor_mod
from repro.baselines import HivePlanner, PigPlanner, YSmartPlanner
from repro.core.executor import PlanExecutor
from repro.core.partitioner import HypercubePartitioner
from repro.core.planner import ThetaJoinPlanner
from repro.joins.jobs import make_keyspread_partitioner
from repro.joins.records import relation_to_composite_file
from repro.mapreduce.config import PAPER_CLUSTER_KP64, execution_settings
from repro.mapreduce.runtime import SimulatedCluster
from repro.relational.predicates import JoinCondition
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.utils import make_rng
from repro.workloads.mobile import mobile_benchmark_query
from repro.workloads.tpch import tpch_benchmark_query

from scalar_oracle import (
    ORACLE_BUILDERS,
    assert_job_matches_oracle,
    build_with_oracle,
)

METHOD_PLANNERS = (ThetaJoinPlanner, YSmartPlanner, HivePlanner, PigPlanner)


@pytest.fixture
def oracle_paired_builders(monkeypatch):
    """Make the executor build the scalar oracle next to every join job
    (same arguments) and hang it on the spec as ``spec.oracle``."""
    for builder, oracle_builder in ORACLE_BUILDERS.items():
        real = getattr(executor_mod, builder)

        def build(*args, _real=real, _oracle=oracle_builder, **kwargs):
            spec = _real(*args, **kwargs)
            assert spec.batch_mapper is not None, spec.name
            assert spec.batch_reducer is not None, spec.name
            spec.oracle = _oracle(*args, **kwargs)
            return spec

        monkeypatch.setattr(executor_mod, builder, build)


class OracleCheckedCluster(SimulatedCluster):
    """A cluster that runs every join job through its scalar oracle as
    well and asserts exact agreement."""

    def __init__(self, config):
        super().__init__(config)
        self.jobs_checked = 0

    def run_job(self, spec, map_units=None, reduce_units=None):
        # The executor sets the replication after building the spec.
        oracle = dataclasses.replace(
            spec.oracle, output_replication=spec.output_replication
        )
        assert_job_matches_oracle(self, spec, oracle)
        self.jobs_checked += 1
        return super().run_job(spec, map_units, reduce_units)


def run_matrix(query):
    answers = set()
    for planner_cls in METHOD_PLANNERS:
        plan = planner_cls(PAPER_CLUSTER_KP64).plan(query)
        cluster = OracleCheckedCluster(PAPER_CLUSTER_KP64)
        outcome = PlanExecutor(cluster).execute(plan, query)
        answers.add(tuple(sorted(map(tuple, outcome.result.rows))))
        # A parallel backend runs ready-wave jobs in pool workers, whose
        # oracle checks still raise but whose counter stays in the worker.
        if not execution_settings().parallel:
            assert cluster.jobs_checked == len(plan.jobs), f"{query.name}: job unchecked"
        assert cluster.jobs_checked > 0
    assert len(answers) == 1, f"{query.name}: planners disagree"


@pytest.mark.parametrize("query_id", [1, 2, 3, 4])
def test_mobile_batch_equivalence(query_id, oracle_paired_builders):
    run_matrix(mobile_benchmark_query(query_id, 20))


@pytest.mark.parametrize("query_id", [3, 5, 7])
def test_tpch_batch_equivalence(query_id, oracle_paired_builders):
    run_matrix(tpch_benchmark_query(query_id, 200))


def big_rel(name: str, rows: int, hi: int, groups: int, seed: int = 0) -> Relation:
    rng = make_rng("batch-equiv", name, rows, seed)
    return Relation(
        name,
        Schema.of("id:int", "v:int", "g:int"),
        [
            (i, rng.randint(0, hi - 1), rng.randint(0, groups - 1))
            for i in range(rows)
        ],
    )


def assert_matches_oracle(builder, *args, **kwargs):
    spec, oracle = build_with_oracle(builder, *args, **kwargs)
    assert_job_matches_oracle(
        SimulatedCluster(PAPER_CLUSTER_KP64), spec, oracle, require_output=True
    )


class TestLargeGroupNumpyPaths:
    """Key groups of hundreds of candidates through each window kind
    (range ranks, equality codes, plain key-group runs): the sizes the
    old 128-candidate / 256-pair NumPy gates used to split on."""

    def test_hypercube_range_probe(self):
        rels = {"a": big_rel("A", 300, 2000, 4), "b": big_rel("B", 300, 2000, 4, 1)}
        conditions = [JoinCondition.parse(1, "a.v < b.v")]
        files = [relation_to_composite_file(rels[a], a) for a in ("a", "b")]
        partitioner = HypercubePartitioner([300, 300], 2)
        assert_matches_oracle(
            "make_hypercube_join_job",
            "np-range",
            files,
            partitioner,
            conditions,
            {a: r.schema for a, r in rels.items()},
        )

    def test_hypercube_hash_probe(self):
        rels = {"a": big_rel("A", 300, 50, 3), "b": big_rel("B", 300, 50, 3, 1)}
        conditions = [JoinCondition.parse(1, "a.g = b.g", "a.v < b.v")]
        files = [relation_to_composite_file(rels[a], a) for a in ("a", "b")]
        partitioner = HypercubePartitioner([300, 300], 2)
        assert_matches_oracle(
            "make_hypercube_join_job",
            "np-hash",
            files,
            partitioner,
            conditions,
            {a: r.schema for a, r in rels.items()},
        )

    def test_equi_pair_mask(self):
        rels = {"a": big_rel("A", 150, 40, 1), "b": big_rel("B", 150, 40, 1, 1)}
        conditions = [JoinCondition.parse(1, "a.g = b.g", "a.v != b.v")]
        assert_matches_oracle(
            "make_equi_join_job",
            "np-equi",
            relation_to_composite_file(rels["a"], "a"),
            relation_to_composite_file(rels["b"], "b"),
            conditions,
            {a: r.schema for a, r in rels.items()},
            num_reducers=2,
        )

    def test_broadcast_pair_mask(self):
        rels = {"a": big_rel("A", 300, 2000, 4), "b": big_rel("B", 80, 2000, 4, 1)}
        conditions = [JoinCondition.parse(1, "a.v < b.v")]
        assert_matches_oracle(
            "make_broadcast_join_job",
            "np-bcast",
            relation_to_composite_file(rels["a"], "a"),
            relation_to_composite_file(rels["b"], "b"),
            conditions,
            {a: r.schema for a, r in rels.items()},
            num_reducers=2,
        )

    def test_equichain_pair_mask(self):
        rels = {"a": big_rel("A", 200, 500, 1), "b": big_rel("B", 200, 500, 1, 1)}
        conditions = [
            JoinCondition.parse(1, "a.g = b.g"),
            JoinCondition.parse(2, "a.v < b.v"),
        ]
        assert_matches_oracle(
            "make_equichain_join_job",
            "np-chain",
            [
                relation_to_composite_file(rels["a"], "a"),
                relation_to_composite_file(rels["b"], "b"),
            ],
            conditions,
            {a: r.schema for a, r in rels.items()},
            num_reducers=2,
        )


class TestKeyspreadPartitioner:
    def test_balanced_key_counts(self):
        keys = [("k", (i,)) for i in range(103)]
        partition, mapping = make_keyspread_partitioner(keys, 8)
        per_reducer = [0] * 8
        for key in keys:
            index = partition(key, 8)
            assert 0 <= index < 8
            per_reducer[index] += 1
        assert max(per_reducer) - min(per_reducer) <= 1

    def test_deterministic(self):
        keys = [("k", (i, i % 3)) for i in range(50)]
        _, mapping_a = make_keyspread_partitioner(keys, 16)
        _, mapping_b = make_keyspread_partitioner(reversed(keys), 16)
        assert mapping_a == mapping_b

    def test_fewer_keys_than_reducers(self):
        keys = [("k", (i,)) for i in range(3)]
        partition, mapping = make_keyspread_partitioner(keys, 64)
        assert len({partition(k, 64) for k in keys}) == 3

    def test_empty_population_falls_back(self):
        partition, mapping = make_keyspread_partitioner([], 8)
        assert mapping == {}
        assert partition(("k", (1,)), 8) in range(8)
