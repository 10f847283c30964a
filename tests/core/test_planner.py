"""Tests for the end-to-end planner (G'JP -> Topt -> schedule)."""


from repro.core.plan import STRATEGY_EQUI, STRATEGY_EQUICHAIN, STRATEGY_HYPERCUBE
from repro.core.planner import ThetaJoinPlanner, default_unit_options
from repro.mapreduce.config import ClusterConfig
from repro.relational.predicates import JoinCondition
from repro.relational.query import JoinQuery
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.utils import make_rng


def rel(name, rows, seed=0, groups=6):
    rng = make_rng("planner-test", name, seed)
    return Relation(
        name,
        Schema.of("id:int", "v:int", "g:int"),
        [(i, rng.randint(0, 50), rng.randint(0, groups - 1)) for i in range(rows)],
    )


class TestPlanShape:
    def test_plan_covers_all_conditions(self, triangle_query):
        plan = ThetaJoinPlanner(ClusterConfig()).plan(triangle_query)
        assert plan.covered_condition_ids() == frozenset(
            triangle_query.condition_ids
        )

    def test_pure_equi_pair_uses_equi_job(self):
        query = JoinQuery(
            "eq",
            {"a": rel("A", 60), "b": rel("B", 50, seed=1)},
            [JoinCondition.parse(1, "a.g = b.g")],
        )
        plan = ThetaJoinPlanner(ClusterConfig()).plan(query)
        assert plan.num_jobs == 1
        assert plan.jobs[0].strategy in (STRATEGY_EQUI, STRATEGY_EQUICHAIN)

    def test_pure_theta_pair_uses_hypercube(self):
        query = JoinQuery(
            "th",
            {"a": rel("A", 60), "b": rel("B", 50, seed=1)},
            [JoinCondition.parse(1, "a.v < b.v")],
        )
        plan = ThetaJoinPlanner(ClusterConfig()).plan(query)
        assert plan.num_jobs == 1
        assert plan.jobs[0].strategy == STRATEGY_HYPERCUBE

    def test_reducers_within_units(self, triangle_query):
        config = ClusterConfig().with_units(16)
        plan = ThetaJoinPlanner(config).plan(triangle_query)
        for job in plan.jobs:
            assert job.num_reducers <= config.total_units
            assert job.units <= config.total_units

    def test_notes_populated(self, triangle_query):
        plan = ThetaJoinPlanner(ClusterConfig()).plan(triangle_query)
        assert plan.notes["gjp_candidates"] >= 4
        assert plan.notes["options_tried"] >= 2
        assert "chosen_kind" in plan.notes

    def test_estimate_positive(self, three_way_query):
        plan = ThetaJoinPlanner(ClusterConfig()).plan(three_way_query)
        assert plan.est_makespan_s > 0


class TestUnitOptions:
    def test_powers_plus_budget(self):
        assert default_unit_options(96) == [1, 2, 4, 8, 16, 32, 64, 96]
        assert default_unit_options(8) == [1, 2, 4, 8]


class TestKpAwareness:
    def test_smaller_kp_never_much_faster(self, triangle_query):
        # At test scale start-up costs dominate, so allow slack; a small
        # cluster must never be estimated substantially faster.
        big = ThetaJoinPlanner(ClusterConfig()).plan(triangle_query)
        small = ThetaJoinPlanner(ClusterConfig().with_units(8)).plan(
            triangle_query
        )
        assert small.est_makespan_s >= big.est_makespan_s * 0.8

    def test_catalog_reused(self, three_way_query):
        from repro.relational.statistics import StatisticsCatalog

        catalog = StatisticsCatalog()
        planner = ThetaJoinPlanner(ClusterConfig(), catalog=catalog)
        planner.plan(three_way_query)
        assert set(catalog.names()) >= {"A", "B", "C"}
