"""Tests for plan execution: correctness, dependencies, merges, timing."""

import sys
from pathlib import Path

import pytest

from repro.baselines import HivePlanner, PigPlanner, YSmartPlanner
from repro.core.executor import PlanExecutor
from repro.core.merge import hash_merge
from repro.core.plan import ExecutionPlan, InputRef, PlannedJob
from repro.core.planner import ThetaJoinPlanner
from repro.errors import ExecutionError
from repro.joins.reference import join_result_signature, reference_join
from repro.mapreduce.config import ClusterConfig
from repro.mapreduce.runtime import SimulatedCluster
from repro.relational.predicates import JoinCondition
from repro.relational.query import JoinQuery
from repro.relational.relation import Relation
from repro.relational.schema import Schema

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "joins"))
from tail_oracle import merge_composites, singleton, slab_of  # noqa: E402


def execute(planner_cls, query, config=None):
    config = config or ClusterConfig()
    plan = planner_cls(config).plan(query)
    return plan, PlanExecutor(SimulatedCluster(config)).execute(plan, query)


class TestEndToEndCorrectness:
    @pytest.mark.parametrize(
        "planner_cls", [ThetaJoinPlanner, HivePlanner, PigPlanner, YSmartPlanner]
    )
    def test_three_way(self, planner_cls, three_way_query):
        reference = join_result_signature(reference_join(three_way_query))
        _, outcome = execute(planner_cls, three_way_query)
        assert join_result_signature(outcome.composites) == reference

    @pytest.mark.parametrize(
        "planner_cls", [ThetaJoinPlanner, HivePlanner, PigPlanner, YSmartPlanner]
    )
    def test_triangle_with_pendant(self, planner_cls, triangle_query):
        reference = join_result_signature(reference_join(triangle_query))
        _, outcome = execute(planner_cls, triangle_query)
        assert join_result_signature(outcome.composites) == reference

    @pytest.mark.parametrize(
        "planner_cls", [ThetaJoinPlanner, HivePlanner, YSmartPlanner]
    )
    def test_small_cluster(self, planner_cls, three_way_query, small_config):
        reference = join_result_signature(reference_join(three_way_query))
        _, outcome = execute(planner_cls, three_way_query, small_config)
        assert join_result_signature(outcome.composites) == reference

    def test_projection_applied(self, three_way_query):
        query = JoinQuery(
            three_way_query.name,
            three_way_query.relations,
            three_way_query.conditions,
            projection=[("a", "id")],
        )
        _, outcome = execute(ThetaJoinPlanner, query)
        assert outcome.result.schema.names == ("a_id",)

    def test_empty_join_result(self):
        schema = Schema.of("id:int", "v:int")
        low = Relation("LOW", schema, [(i, i) for i in range(10)])
        high = Relation("HIGH", schema, [(i, i + 100) for i in range(10)])
        query = JoinQuery(
            "empty", {"a": low, "b": high}, [JoinCondition.parse(1, "a.v > b.v")]
        )
        for planner_cls in (ThetaJoinPlanner, HivePlanner, YSmartPlanner):
            _, outcome = execute(planner_cls, query)
            assert outcome.report.output_records == 0

    def test_empty_intermediate_in_cascade(self):
        """A cascade step with zero matches must not break later steps."""
        schema = Schema.of("id:int", "v:int", "g:int")
        low = Relation("L2", schema, [(i, i, i % 2) for i in range(8)])
        high = Relation("H2", schema, [(i, i + 100, i % 2) for i in range(8)])
        mid = Relation("M2", schema, [(i, i, i % 2) for i in range(8)])
        query = JoinQuery(
            "empty-mid",
            {"a": low, "b": high, "c": mid},
            [
                JoinCondition.parse(1, "a.v > b.v"),  # empty
                JoinCondition.parse(2, "b.g = c.g"),
            ],
        )
        for planner_cls in (HivePlanner, YSmartPlanner, ThetaJoinPlanner):
            _, outcome = execute(planner_cls, query)
            assert outcome.report.output_records == 0


class TestReporting:
    def test_report_contains_all_jobs(self, three_way_query):
        plan, outcome = execute(HivePlanner, three_way_query)
        assert outcome.report.num_jobs == plan.num_jobs

    def test_makespan_at_least_longest_job(self, three_way_query):
        _, outcome = execute(ThetaJoinPlanner, three_way_query)
        longest = max(m.total_time_s for m in outcome.report.job_metrics)
        assert outcome.report.makespan_s >= longest

    def test_sequential_cascade_accumulates(self, three_way_query):
        plan, outcome = execute(HivePlanner, three_way_query)
        total = sum(m.total_time_s for m in outcome.report.job_metrics)
        assert outcome.report.makespan_s == pytest.approx(total, rel=0.01)

    def test_pig_slower_than_hive(self, triangle_query):
        _, hive = execute(HivePlanner, triangle_query)
        _, pig = execute(PigPlanner, triangle_query)
        assert pig.report.makespan_s > hive.report.makespan_s


class TestPlanValidation:
    def test_uncovered_condition_rejected(self, three_way_query):
        config = ClusterConfig()
        plan = ExecutionPlan(
            name="bad",
            method="hive",
            query_name=three_way_query.name,
            jobs=[
                PlannedJob(
                    job_id="only",
                    strategy="onebucket",
                    inputs=(InputRef.base("a"), InputRef.base("b")),
                    condition_ids=(1,),  # condition 2 uncovered
                    num_reducers=2,
                    units=4,
                )
            ],
            total_units=config.total_units,
        )
        with pytest.raises(ExecutionError):
            PlanExecutor(SimulatedCluster(config)).execute(plan, three_way_query)


class TestHashMerge:
    def test_merges_on_shared_ids(self):
        ab = slab_of(
            ("a", "b"),
            [
                merge_composites(singleton("a", 0, (0,)), singleton("b", 1, (1,))),
                merge_composites(singleton("a", 1, (1,)), singleton("b", 1, (1,))),
            ],
        )
        bc = slab_of(
            ("b", "c"),
            [merge_composites(singleton("b", 1, (1,)), singleton("c", 5, (5,)))],
        )
        merged = hash_merge(ab, bc)
        assert len(merged) == 2
        assert all(len(c) == 3 for c in merged)

    def test_no_shared_match(self):
        ab = slab_of(
            ("a", "b"),
            [merge_composites(singleton("a", 0, (0,)), singleton("b", 2, (2,)))],
        )
        bc = slab_of(
            ("b", "c"),
            [merge_composites(singleton("b", 1, (1,)), singleton("c", 5, (5,)))],
        )
        assert hash_merge(ab, bc) == []


def test_one_execute_reads_the_environment_once(monkeypatch):
    """A query resolves its settings when it enters: every phase below
    ``execute`` reads that one resolution, not ``os.environ`` again."""
    from repro.mapreduce.config import ExecutionSettings
    from repro.workloads.mobile import generate_mobile_calls, make_mobile_query

    calls = generate_mobile_calls(60, num_stations=25, num_users=5, seed=0)
    query = make_mobile_query(3, calls)
    config = ClusterConfig()
    plan = ThetaJoinPlanner(config).plan(query)
    assert len(plan.jobs) > 1
    reads = []
    from_env = ExecutionSettings.from_env.__func__

    def counting(cls, overrides=None):
        reads.append(overrides)
        return from_env(cls, overrides)

    monkeypatch.setattr(ExecutionSettings, "from_env", classmethod(counting))
    PlanExecutor(SimulatedCluster(config)).execute(plan, query)
    assert len(reads) == 1
