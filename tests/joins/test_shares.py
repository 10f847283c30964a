"""Tests for the Afrati-Ullman share-based multi-way equi-join."""

import pytest
from scalar_oracle import assert_job_matches_oracle, shares_reduce_side

from repro.errors import ExecutionError, PlanningError
from repro.joins.records import relation_to_composite_file
from repro.joins.reference import join_result_signature, reference_join
from repro.joins.shares import (
    attribute_classes,
    make_shares_join_job,
    optimize_shares,
)
from repro.mapreduce.runtime import SimulatedCluster
from repro.relational.predicates import JoinCondition
from repro.relational.query import JoinQuery
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.utils import make_rng


def rel(name, rows, seed=0, groups=5):
    rng = make_rng("shares-test", name, seed)
    return Relation(
        name,
        Schema.of("id:int", "x:int", "y:int"),
        [
            (i, rng.randint(0, groups - 1), rng.randint(0, groups - 1))
            for i in range(rows)
        ],
    )


def chain_equi_query(rows=18):
    """R(a) x=x S(b) y=y T(c): two attribute classes."""
    return JoinQuery(
        "shares-chain",
        {"a": rel("A", rows), "b": rel("B", rows, seed=1), "c": rel("C", rows, seed=2)},
        [
            JoinCondition.parse(1, "a.x = b.x"),
            JoinCondition.parse(2, "b.y = c.y"),
        ],
    )


class TestAttributeClasses:
    def test_chain_has_two_classes(self):
        classes = attribute_classes(list(chain_equi_query().conditions))
        assert len(classes) == 2

    def test_transitive_equality_single_class(self):
        conditions = [
            JoinCondition.parse(1, "a.x = b.x"),
            JoinCondition.parse(2, "b.x = c.x"),
        ]
        classes = attribute_classes(conditions)
        assert len(classes) == 1
        assert set(classes[0]) == {"a", "b", "c"}

    def test_theta_rejected(self):
        with pytest.raises(PlanningError):
            attribute_classes([JoinCondition.parse(1, "a.x < b.x")])


class TestOptimizeShares:
    def test_product_within_budget(self):
        classes = attribute_classes(list(chain_equi_query().conditions))
        shares = optimize_shares({"a": 100, "b": 100, "c": 100}, classes, 16)
        product = 1
        for share in shares:
            product *= share
        assert product <= 16

    def test_big_relation_gets_protected(self):
        """The dominant relation should be replicated least: the classes
        it misses keep share 1 when it dwarfs the others."""
        classes = attribute_classes(list(chain_equi_query().conditions))
        # 'a' participates in class x only; giving class y a large share
        # replicates a.  With |a| huge the optimizer must keep y's share low.
        shares = optimize_shares({"a": 1e9, "b": 10, "c": 10}, classes, 64)
        class_y_index = next(
            i for i, klass in enumerate(classes) if "c" in klass
        )
        assert shares[class_y_index] <= 2


class TestSharesJoin:
    @pytest.mark.parametrize("budget", [1, 4, 16])
    def test_reduce_side_matches_scalar_oracle(self, budget):
        """Outputs and their order, comparisons, input bytes and task
        costs of the shared kernel equal the per-key-group reference."""
        query = chain_equi_query()
        files = [
            relation_to_composite_file(query.relations[a], a)
            for a in sorted(query.relations)
        ]
        schemas = {a: query.relations[a].schema for a in query.relations}
        spec = make_shares_join_job(
            "shares", files, query.conditions, schemas, total_reducers=budget
        )
        oracle = shares_reduce_side(spec, files, query.conditions, schemas)
        assert_job_matches_oracle(SimulatedCluster(), spec, oracle, require_output=True)

    def test_rejects_non_singleton_inputs(self):
        query = chain_equi_query(6)
        files = [
            relation_to_composite_file(query.relations[a], a)
            for a in sorted(query.relations)
        ]
        files[0].tag = "z"
        with pytest.raises(ExecutionError, match="singleton"):
            make_shares_join_job(
                "bad", files, query.conditions,
                {a: query.relations[a].schema for a in query.relations},
                total_reducers=4,
            )

    @pytest.mark.parametrize("budget", [1, 4, 16])
    def test_matches_reference(self, budget):
        query = chain_equi_query()
        cluster = SimulatedCluster()
        files = [
            relation_to_composite_file(query.relations[a], a)
            for a in sorted(query.relations)
        ]
        spec = make_shares_join_job(
            "shares", files, query.conditions,
            {a: query.relations[a].schema for a in query.relations},
            total_reducers=budget,
        )
        result = cluster.run_job(spec)
        assert join_result_signature(result.output.records) == join_result_signature(
            reference_join(query)
        )

    def test_explicit_share_vector(self):
        query = chain_equi_query(12)
        cluster = SimulatedCluster()
        files = [
            relation_to_composite_file(query.relations[a], a)
            for a in sorted(query.relations)
        ]
        spec = make_shares_join_job(
            "shares-explicit", files, query.conditions,
            {a: query.relations[a].schema for a in query.relations},
            total_reducers=8, shares=[2, 4],
        )
        assert spec.num_reducers == 8
        result = cluster.run_job(spec)
        assert join_result_signature(result.output.records) == join_result_signature(
            reference_join(query)
        )

    def test_star_join(self):
        hub = rel("HUB", 15)
        d1 = rel("D1", 12, seed=1)
        d2 = rel("D2", 10, seed=2)
        query = JoinQuery(
            "star",
            {"h": hub, "d1": d1, "d2": d2},
            [
                JoinCondition.parse(1, "h.x = d1.x"),
                JoinCondition.parse(2, "h.y = d2.y"),
            ],
        )
        cluster = SimulatedCluster()
        files = [
            relation_to_composite_file(query.relations[a], a)
            for a in sorted(query.relations)
        ]
        spec = make_shares_join_job(
            "shares-star", files, query.conditions,
            {a: query.relations[a].schema for a in query.relations},
            total_reducers=9,
        )
        result = cluster.run_job(spec)
        assert join_result_signature(result.output.records) == join_result_signature(
            reference_join(query)
        )
