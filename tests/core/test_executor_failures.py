"""Failure-path tests: malformed plans must be rejected, the earlier the
better — at PlannedJob construction, at ExecutionPlan construction, or at
execution time, in that order of preference."""

import pytest

from repro.core.executor import PlanExecutor
from repro.core.plan import (
    STRATEGY_BROADCAST,
    STRATEGY_HYPERCUBE,
    ExecutionPlan,
    InputRef,
    PlannedJob,
)
from repro.errors import ExecutionError, PlanningError
from repro.joins.records import CompositeSlab, composite_width
from repro.mapreduce.config import ClusterConfig
from repro.mapreduce.runtime import SimulatedCluster
from repro.relational.predicates import JoinCondition
from repro.relational.query import JoinQuery
from repro.workloads.synthetic import uniform_relation


def two_way_query() -> JoinQuery:
    return JoinQuery(
        "q",
        {
            "a": uniform_relation("A", 12, seed=1),
            "b": uniform_relation("B", 12, seed=2),
        },
        [JoinCondition.parse(1, "a.v0 < b.v0")],
    )


def three_way_query() -> JoinQuery:
    return JoinQuery(
        "q3",
        {
            "a": uniform_relation("A", 10, seed=1),
            "b": uniform_relation("B", 10, seed=2),
            "c": uniform_relation("C", 10, seed=3),
        },
        [
            JoinCondition.parse(1, "a.v0 < b.v0"),
            JoinCondition.parse(2, "b.v0 <= c.v0"),
        ],
    )


def job(job_id="j1", strategy=STRATEGY_BROADCAST, inputs=None, conditions=(1,),
        depends_on=()):
    return PlannedJob(
        job_id=job_id,
        strategy=strategy,
        inputs=inputs or (InputRef.base("a"), InputRef.base("b")),
        condition_ids=tuple(conditions),
        num_reducers=2,
        units=4,
        depends_on=tuple(depends_on),
    )


def plan_of(*jobs) -> ExecutionPlan:
    return ExecutionPlan(
        name="p", method="test", query_name="q", jobs=list(jobs), total_units=8
    )


def run(plan, query):
    return PlanExecutor(SimulatedCluster(ClusterConfig().with_units(8))).execute(
        plan, query
    )


class TestConstructionGuards:
    def test_job_without_conditions_rejected(self):
        with pytest.raises(PlanningError, match="no condition"):
            job(conditions=())

    def test_unknown_strategy_rejected(self):
        with pytest.raises(PlanningError, match="strategy"):
            job(strategy="mapjoin")

    def test_single_input_rejected(self):
        with pytest.raises(PlanningError, match="two inputs"):
            job(strategy=STRATEGY_HYPERCUBE, inputs=(InputRef.base("a"),))

    def test_pairwise_strategy_rejects_three_inputs(self):
        with pytest.raises(PlanningError, match="pair-wise"):
            job(
                strategy=STRATEGY_BROADCAST,
                inputs=(
                    InputRef.base("a"),
                    InputRef.base("b"),
                    InputRef.base("c"),
                ),
            )

    def test_duplicate_job_ids_rejected(self):
        with pytest.raises(PlanningError, match="duplicate"):
            plan_of(job("j1"), job("j1"))

    def test_dangling_job_reference_rejected(self):
        with pytest.raises(PlanningError, match="unknown job"):
            plan_of(job("j1", inputs=(InputRef.job("ghost"), InputRef.base("b"))))

    def test_invalid_input_kind_rejected(self):
        with pytest.raises(PlanningError, match="kind"):
            InputRef("table", "a")


class TestExecutionGuards:
    def test_uncovered_condition_rejected(self):
        """A plan whose jobs miss one of the query's conditions is refused
        before anything runs."""
        query = three_way_query()
        partial = plan_of(job("j1", conditions=(1,)))
        with pytest.raises(ExecutionError, match="cover"):
            run(partial, query)

    def test_cyclic_inputs_detected(self):
        query = two_way_query()
        cyclic = plan_of(
            job("j1", inputs=(InputRef.job("j2"), InputRef.base("b"))),
            job("j2", inputs=(InputRef.job("j1"), InputRef.base("a"))),
        )
        with pytest.raises(ExecutionError, match="cyclic|deadlock"):
            run(cyclic, query)


class TestEmptyIntermediates:
    def test_empty_upstream_propagates_cleanly(self):
        """A join with no matches feeding a second job must produce an
        empty final answer, not an error."""
        relations = {
            "a": uniform_relation("A", 10, value_range=5, seed=1),
            "b": uniform_relation("B", 10, value_range=5, seed=2),
            "c": uniform_relation("C", 10, value_range=5, seed=3),
        }
        # a.v0 + 100 < b.v0 can never hold for values in [0, 5).
        query = JoinQuery(
            "empty",
            relations,
            [
                JoinCondition.parse(1, "a.v0 + 100 < b.v0"),
                JoinCondition.parse(2, "b.v0 <= c.v0"),
            ],
        )
        first = job("j1", inputs=(InputRef.base("a"), InputRef.base("b")),
                    conditions=(1,))
        second = job("j2", inputs=(InputRef.job("j1"), InputRef.base("c")),
                     conditions=(2,))
        cluster = SimulatedCluster(ClusterConfig().with_units(8))
        outcome = PlanExecutor(cluster).execute(plan_of(first, second), query)
        assert outcome.report.output_records == 0
        assert outcome.result.cardinality == 0
        # The downstream job is charged start-up only, not a full run.
        assert len(outcome.report.job_metrics) == 2
        # Its output is an empty slab over the union of its inputs' covers,
        # accounted at that cover's composite width.
        empty = outcome.job_outputs["j2"]
        assert isinstance(empty.records, CompositeSlab)
        assert empty.records.cover == ("a", "b", "c")
        schemas = {alias: rel.schema for alias, rel in relations.items()}
        assert empty.record_width == composite_width(schemas, ("a", "b", "c"))
        assert outcome.composites.cover == ("a", "b", "c")
        # The final relation keeps the full projected schema.
        assert outcome.result.schema.names == tuple(
            f"{alias}_{name}" for alias in "abc" for name in schemas[alias].names
        )

    def test_every_planner_survives_empty_answers(self):
        from repro.baselines import HivePlanner, PigPlanner, YSmartPlanner
        from repro.core.planner import ThetaJoinPlanner

        relations = {
            "a": uniform_relation("A", 8, value_range=5, seed=1),
            "b": uniform_relation("B", 8, value_range=5, seed=2),
        }
        query = JoinQuery(
            "never",
            relations,
            [JoinCondition.parse(1, "a.v0 + 100 < b.v0")],
        )
        config = ClusterConfig().with_units(8)
        for planner_cls in (
            ThetaJoinPlanner, YSmartPlanner, HivePlanner, PigPlanner
        ):
            plan = planner_cls(config).plan(query)
            outcome = PlanExecutor(SimulatedCluster(config)).execute(plan, query)
            assert outcome.report.output_records == 0, planner_cls.__name__
