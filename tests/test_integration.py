"""Cross-module integration tests: random queries, every planner, exact results.

The strongest invariant in the repository: for ANY connected theta-join
query, all four planners must produce exactly the reference answer.
Hypothesis generates random join graphs (chains, stars, cycles, mixed
operators, offsets) and random data.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import HivePlanner, PigPlanner, YSmartPlanner
from repro.core.executor import PlanExecutor
from repro.core.planner import ThetaJoinPlanner
from repro.joins.reference import join_result_signature, reference_join
from repro.mapreduce.config import PAPER_CLUSTER_KP64, ClusterConfig
from repro.mapreduce.runtime import SimulatedCluster
from repro.relational.predicates import JoinCondition
from repro.relational.query import JoinQuery
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.utils import make_rng
from repro.workloads.mobile import mobile_benchmark_query

OPERATORS = ["<", "<=", "=", ">=", ">", "!="]


def random_query(seed: int, num_relations: int, shape: str) -> JoinQuery:
    rng = make_rng("integration", seed, num_relations, shape)
    schema = Schema.of("id:int", "v:int", "g:int")
    relations = {}
    for index in range(num_relations):
        alias = f"r{index}"
        rows = rng.randint(8, 16)
        relations[alias] = Relation(
            f"IR{seed}_{index}",
            schema,
            [
                (i, rng.randint(0, 12), rng.randint(0, 3))
                for i in range(rows)
            ],
        )
    conditions = []
    cid = 0

    def edge(a: str, b: str):
        nonlocal cid
        cid += 1
        op = rng.choice(OPERATORS)
        attr = rng.choice(["v", "g"])
        offset = rng.choice(["", " + 2", " - 1"]) if op not in ("=", "!=") else ""
        return JoinCondition.parse(cid, f"{a}.{attr}{offset} {op} {b}.{attr}")

    aliases = sorted(relations)
    if shape == "chain":
        for a, b in zip(aliases, aliases[1:]):
            conditions.append(edge(a, b))
    elif shape == "star":
        for other in aliases[1:]:
            conditions.append(edge(aliases[0], other))
    else:  # cycle
        for a, b in zip(aliases, aliases[1:]):
            conditions.append(edge(a, b))
        if num_relations > 2:
            conditions.append(edge(aliases[-1], aliases[0]))
    return JoinQuery(f"rand-{seed}-{shape}", relations, conditions)


ALL_PLANNERS = [ThetaJoinPlanner, HivePlanner, PigPlanner, YSmartPlanner]


class TestRandomQueriesAllPlanners:
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        num_relations=st.integers(min_value=2, max_value=4),
        shape=st.sampled_from(["chain", "star", "cycle"]),
    )
    @settings(max_examples=12, deadline=None)
    def test_every_planner_exact(self, seed, num_relations, shape):
        query = random_query(seed, num_relations, shape)
        reference = join_result_signature(reference_join(query))
        config = ClusterConfig()
        for planner_cls in ALL_PLANNERS:
            plan = planner_cls(config).plan(query)
            outcome = PlanExecutor(SimulatedCluster(config)).execute(plan, query)
            got = join_result_signature(outcome.composites)
            assert got == reference, (
                f"{planner_cls.__name__} wrong on {query.name}: "
                f"missing={len(reference - got)}, extra={len(got - reference)}"
            )

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=6, deadline=None)
    def test_constrained_cluster_exact(self, seed):
        query = random_query(seed, 3, "chain")
        reference = join_result_signature(reference_join(query))
        config = ClusterConfig().with_units(8)
        for planner_cls in (ThetaJoinPlanner, YSmartPlanner):
            plan = planner_cls(config).plan(query)
            outcome = PlanExecutor(SimulatedCluster(config)).execute(plan, query)
            assert join_result_signature(outcome.composites) == reference


class TestSelfJoinIntegration:
    def test_self_join_three_aliases(self):
        """The mobile queries' pattern: one relation, several aliases."""
        rng = make_rng("selfjoin-integration")
        schema = Schema.of("id:int", "v:int", "g:int")
        base = Relation(
            "BASE", schema,
            [(i, rng.randint(0, 10), rng.randint(0, 2)) for i in range(14)],
        )
        query = JoinQuery(
            "self3",
            {"t1": base, "t2": base, "t3": base},
            [
                JoinCondition.parse(1, "t1.v <= t2.v"),
                JoinCondition.parse(2, "t2.g = t3.g"),
            ],
        )
        reference = join_result_signature(reference_join(query))
        config = ClusterConfig()
        for planner_cls in ALL_PLANNERS:
            plan = planner_cls(config).plan(query)
            outcome = PlanExecutor(SimulatedCluster(config)).execute(plan, query)
            assert join_result_signature(outcome.composites) == reference


class TestBenchmarkQuerySmoke:
    def test_smoke_all_methods_agree(self):
        """The answer-agreement smoke of ``make smoke``: on the paper's
        mobile Q2 (20 GB label) all four planners produce the identical
        result set."""
        query = mobile_benchmark_query(2, 20)
        results = {}
        for planner_cls in ALL_PLANNERS:
            plan = planner_cls(PAPER_CLUSTER_KP64).plan(query)
            outcome = PlanExecutor(SimulatedCluster(PAPER_CLUSTER_KP64)).execute(
                plan, query
            )
            results[planner_cls.__name__] = sorted(map(tuple, outcome.result.rows))
        ours = results[ThetaJoinPlanner.__name__]
        assert ours, "smoke query returned no rows"
        for method, rows in results.items():
            assert rows == ours, f"{method} disagrees with ours"


class TestDeterminism:
    def test_same_query_same_plan_and_result(self):
        query = random_query(42, 3, "chain")
        config = ClusterConfig()
        plans = [ThetaJoinPlanner(config).plan(query) for _ in range(2)]
        assert plans[0].describe() == plans[1].describe()
        outcomes = [
            PlanExecutor(SimulatedCluster(config)).execute(plan, query)
            for plan in plans
        ]
        assert (
            outcomes[0].report.makespan_s == outcomes[1].report.makespan_s
        )
