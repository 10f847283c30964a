"""Tests for candidate-job costing (strategy choice, kR, skew awareness)."""

import pytest

from repro.core.cost_model import MRJCostModel
from repro.core.costing import CandidateJobCosting
from repro.core.join_graph import JoinGraph
from repro.core.plan import STRATEGY_EQUI, STRATEGY_EQUICHAIN, STRATEGY_HYPERCUBE
from repro.errors import PlanningError
from repro.mapreduce.config import ClusterConfig
from repro.relational.predicates import JoinCondition
from repro.relational.query import JoinQuery
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.relational.statistics import StatisticsCatalog
from repro.utils import make_rng


def rel(name, rows, seed=0, groups=8):
    rng = make_rng("costing-test", name, seed)
    return Relation(
        name,
        Schema.of("id:int", "v:int", "g:int"),
        [(i, rng.randint(0, 60), rng.randint(0, groups - 1)) for i in range(rows)],
    )


def costing_for(query):
    config = ClusterConfig()
    catalog = StatisticsCatalog()
    for relation in query.relations.values():
        if relation.name not in catalog:
            catalog.add_relation(relation)
    graph = JoinGraph.from_query(query)
    return CandidateJobCosting(
        query, graph, catalog, MRJCostModel.for_cluster(config), config.total_units
    )


@pytest.fixture
def chain_query():
    return JoinQuery(
        "chain",
        {"a": rel("A", 50), "b": rel("B", 45, seed=1), "c": rel("C", 40, seed=2)},
        [
            JoinCondition.parse(1, "a.v < b.v"),
            JoinCondition.parse(2, "b.g = c.g"),
        ],
    )


class TestStrategySelection:
    def test_pure_equi_single_edge(self, chain_query):
        costing = costing_for(chain_query)
        blueprint = costing.blueprint_for_path((2,))
        assert blueprint.strategy == STRATEGY_EQUI

    def test_theta_single_edge_is_hypercube(self, chain_query):
        costing = costing_for(chain_query)
        blueprint = costing.blueprint_for_path((1,))
        assert blueprint.strategy == STRATEGY_HYPERCUBE
        assert blueprint.partition_bits >= 1

    def test_key_covered_multiway_prefers_equichain(self):
        query = JoinQuery(
            "keys",
            {"a": rel("A", 60), "b": rel("B", 55, seed=1), "c": rel("C", 50, seed=2)},
            [
                JoinCondition.parse(1, "a.g = b.g", "a.v < b.v"),
                JoinCondition.parse(2, "b.g = c.g"),
            ],
        )
        costing = costing_for(query)
        blueprint = costing.blueprint_for_path((1, 2))
        assert blueprint.strategy == STRATEGY_EQUICHAIN

    def test_theta_multiway_is_hypercube(self, chain_query):
        costing = costing_for(chain_query)
        # Path (1, 2): theta + equi mixed; no single key class covers a,
        # so the hypercube must be chosen.
        blueprint = costing.blueprint_for_path((1, 2))
        assert blueprint.strategy == STRATEGY_HYPERCUBE


class TestBlueprintContents:
    def test_cost_positive_and_cached(self, chain_query):
        costing = costing_for(chain_query)
        first = costing.blueprint_for_path((1,))
        again = costing.blueprint(frozenset({1}))
        assert first is again
        assert first.est_time_s > 0

    def test_blueprint_for_labels_nonpath(self):
        """A star-shaped (non-path) condition set must still be priced."""
        query = JoinQuery(
            "star",
            {
                "hub": rel("HUB", 30),
                "x": rel("X", 25, seed=1),
                "y": rel("Y", 20, seed=2),
                "z": rel("Z", 15, seed=3),
            },
            [
                JoinCondition.parse(1, "hub.v < x.v"),
                JoinCondition.parse(2, "hub.v < y.v"),
                JoinCondition.parse(3, "hub.v < z.v"),
            ],
        )
        costing = costing_for(query)
        blueprint = costing.blueprint_for_labels((1, 2, 3))
        assert set(blueprint.dim_aliases) == {"hub", "x", "y", "z"}
        assert blueprint.est_time_s > 0

    def test_output_rows_reflect_selectivity(self, chain_query):
        costing = costing_for(chain_query)
        theta = costing.blueprint_for_path((1,))
        # a.v < b.v over uniform values: about half the cross product.
        cross = 50 * 45
        assert 0.2 * cross < theta.output_rows < 0.8 * cross

    def test_missing_blueprint_raises(self, chain_query):
        costing = costing_for(chain_query)
        with pytest.raises(PlanningError):
            costing.blueprint(frozenset({99}))

    def test_evaluator_protocol(self, chain_query):
        costing = costing_for(chain_query)
        cost = costing((1,))
        assert cost.time_s > 0
        assert cost.reducers >= 1


class TestStepPricing:
    def test_equi_step(self, chain_query):
        costing = costing_for(chain_query)
        seconds, strategy, reducers = costing.pairwise_step_cost(
            left_rows=100, left_width=64, new_alias="c",
            conditions=[chain_query.condition(2)], output_rows=500,
        )
        assert strategy == STRATEGY_EQUI
        assert seconds > 0 and reducers >= 1

    def test_theta_step(self, chain_query):
        costing = costing_for(chain_query)
        seconds, strategy, reducers = costing.pairwise_step_cost(
            left_rows=100, left_width=64, new_alias="b",
            conditions=[chain_query.condition(1)], output_rows=2000,
        )
        assert strategy == "onebucket"
        assert seconds > 0

    def test_bigger_intermediate_costs_more(self, chain_query):
        costing = costing_for(chain_query)
        cheap, _, _ = costing.pairwise_step_cost(
            100, 64, "c", [chain_query.condition(2)], 100
        )
        heavy, _, _ = costing.pairwise_step_cost(
            1_000_000, 64, "c", [chain_query.condition(2)], 100
        )
        assert heavy > cheap


#: ``(strategy, num_reducers, est_time_s)`` of ``blueprint_for_path`` and
#: ``(seconds, strategy, reduce_tasks)`` of ``pairwise_step_cost`` (the
#: path's intermediate joined with its last alias) for every path of at
#: most two edges of the mobile Q1 and Q3 instances at 20 GB.  Pinned
#: exactly: every candidate the planner prices, not just the chosen plan,
#: must come out of the kR sweep and the key statistics bit for bit.
GOLDEN_MOBILE_20GB = {
    1: {
        (1,): (
            ("equichain", 64, 476.45751921656046),
            (1227.3046245219778, "equi", 64),
        ),
        (1, 2): (
            ("equichain", 64, 788.2154001312058),
            (411.87487263466056, "equi", 96),
        ),
        (2,): (
            ("equi", 96, 180.80377602254788),
            (180.80377602254788, "equi", 96),
        ),
    },
    3: {
        (1,): (
            ("hypercube", 16, 2512.089911173295),
            (9958.45153043989, "equi", 16),
        ),
        (1, 2): (
            ("hypercube", 96, 5478.922851245884),
            (93209.38562383859, "equi", 16),
        ),
        (1, 3): (
            ("hypercube", 96, 12736.104958999098),
            (19106.92876098941, "onebucket", 64),
        ),
        (1, 4): (
            ("hypercube", 96, 4687.091635226585),
            (1545.5714751170885, "equi", 96),
        ),
        (2,): (
            ("hypercube", 16, 2512.089911173295),
            (9958.45153043989, "equi", 16),
        ),
        (3,): (
            ("hypercube", 16, 9090.715144676135),
            (9090.715144676135, "onebucket", 16),
        ),
        (3, 2): (
            ("hypercube", 96, 12822.15018596407),
            (655523.21635613, "equi", 16),
        ),
        (3, 4): (
            ("hypercube", 96, 6530.5229241546085),
            (11510.07609372162, "equi", 96),
        ),
        (4,): (
            ("equi", 96, 187.58620683152387),
            (187.58620683152387, "equi", 96),
        ),
    },
}


class TestGoldenMobileCosts:
    @pytest.mark.parametrize("query_id", sorted(GOLDEN_MOBILE_20GB))
    def test_every_short_path_is_priced_exactly(self, query_id):
        from repro.core.join_path_graph import enumerate_paths
        from repro.joins.records import composite_width
        from repro.workloads.mobile import mobile_benchmark_query

        query = mobile_benchmark_query(query_id, 20)
        golden = GOLDEN_MOBILE_20GB[query_id]
        paths = {p for _, _, p in enumerate_paths(JoinGraph.from_query(query), 2)}
        assert paths == set(golden)
        schemas = {alias: r.schema for alias, r in query.relations.items()}
        for path in sorted(paths):
            costing = costing_for(query)
            blueprint = costing.blueprint_for_path(path)
            *left, new = blueprint.dim_aliases
            left_rows = (
                query.relations[left[0]].cardinality
                if len(path) == 1
                else costing.blueprint_for_path(path[:1]).output_rows
            )
            step = costing.pairwise_step_cost(
                left_rows,
                composite_width(schemas, sorted(left)),
                new,
                [query.condition(c) for c in path if query.condition(c).touches(new)],
                blueprint.output_rows,
            )
            priced = (blueprint.strategy, blueprint.num_reducers, blueprint.est_time_s)
            assert (priced, step) == golden[path], path
