"""Tests for the sampling-based joint selectivity estimator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.relational.predicates import AttrRef, JoinCondition, JoinPredicate, ThetaOp
from repro.relational.query import JoinQuery
from repro.relational.relation import Relation
from repro.relational.sampling import SampledJoinEstimator
from repro.relational.schema import Schema
from repro.relational.statistics import StatisticsCatalog
from repro.relational.stats_cache import (
    ColumnarSample,
    PlanningCache,
    get_planning_cache,
)
from repro.utils import make_rng


def rel(name, rows, seed=0):
    rng = make_rng("sampling-test", name, seed)
    return Relation(
        name,
        Schema.of("id:int", "v:int", "d:int"),
        [
            (i, rng.randint(0, 99), rng.randint(1, 30))
            for i in range(rows)
        ],
    )


def estimator_for(query):
    catalog = StatisticsCatalog()
    for relation in query.relations.values():
        if relation.name not in catalog:
            catalog.add_relation(relation)
    return SampledJoinEstimator(query, catalog)


def true_selectivity(query, conditions):
    from repro.joins.reference import reference_join

    sub = JoinQuery(
        "truth",
        {
            a: query.relations[a]
            for c in conditions
            for a in c.aliases
        },
        conditions,
    )
    matches = len(reference_join(sub))
    denom = 1.0
    for alias in sub.relations:
        denom *= len(sub.relations[alias])
    return matches / denom


class TestSingleCondition:
    def test_close_to_truth_range(self):
        query = JoinQuery(
            "q",
            {"a": rel("A", 200), "b": rel("B", 180, seed=1)},
            [JoinCondition.parse(1, "a.v < b.v")],
        )
        est = estimator_for(query)
        truth = true_selectivity(query, list(query.conditions))
        approx = est.selectivity(list(query.conditions))
        assert approx == pytest.approx(truth, rel=0.15)

    def test_empty_conditions_are_one(self):
        query = JoinQuery(
            "q",
            {"a": rel("A", 10), "b": rel("B", 10, seed=1)},
            [JoinCondition.parse(1, "a.v < b.v")],
        )
        assert estimator_for(query).selectivity([]) == 1.0

    def test_cached(self):
        query = JoinQuery(
            "q",
            {"a": rel("A", 50), "b": rel("B", 50, seed=1)},
            [JoinCondition.parse(1, "a.v < b.v")],
        )
        est = estimator_for(query)
        first = est.selectivity(list(query.conditions))
        assert est.selectivity(list(query.conditions)) == first


class TestCorrelatedConditions:
    def test_triangle_correlation_captured(self):
        """The product-of-histograms estimate is off by orders of magnitude
        on a windowed triangle; the sample join must get close."""
        query = JoinQuery(
            "tri",
            {"a": rel("A", 90), "b": rel("B", 90, seed=1), "c": rel("C", 90, seed=2)},
            [
                JoinCondition.parse(1, "a.d < b.d"),
                JoinCondition.parse(2, "b.d < c.d"),
                JoinCondition.parse(3, "a.d + 3 > c.d"),
            ],
        )
        est = estimator_for(query)
        truth = true_selectivity(query, list(query.conditions))
        approx = est.selectivity(list(query.conditions))
        assert approx == pytest.approx(truth, rel=0.35)
        # And it is far below the independence product (~0.5*0.5*0.55).
        assert approx < 0.02

    def test_zero_matches_dont_return_zero(self):
        low = Relation("LOW3", Schema.of("v:int"), [(i,) for i in range(50)])
        high = Relation("HIGH3", Schema.of("v:int"), [(i + 1000,) for i in range(50)])
        query = JoinQuery(
            "disj", {"a": low, "b": high}, [JoinCondition.parse(1, "a.v > b.v")]
        )
        est = estimator_for(query)
        sel = est.selectivity(list(query.conditions))
        assert 0.0 < sel < 1e-3

    def test_expected_rows(self):
        query = JoinQuery(
            "q",
            {"a": rel("A", 100), "b": rel("B", 100, seed=1)},
            [JoinCondition.parse(1, "a.v <= b.v")],
        )
        est = estimator_for(query)
        rows = est.expected_rows(list(query.conditions))
        truth = true_selectivity(query, list(query.conditions)) * 100 * 100
        assert rows == pytest.approx(truth, rel=0.2)


class TestWorkCap:
    def test_cap_falls_back_to_histograms(self):
        query = JoinQuery(
            "q",
            {"a": rel("A", 150), "b": rel("B", 150, seed=1)},
            [JoinCondition.parse(1, "a.v < b.v")],
        )
        catalog = StatisticsCatalog()
        for relation in query.relations.values():
            catalog.add_relation(relation)
        tiny_cap = SampledJoinEstimator(query, catalog, work_cap=10)
        sel = tiny_cap.selectivity(list(query.conditions))
        # Histogram fallback still gives a sane ballpark for uniform <.
        assert 0.2 < sel < 0.8


# ----------------------------------------------------------------------
# Kernel equivalence: the vectorised sample join against the scalar loop
# ----------------------------------------------------------------------


def _reference_sample_join(self, conditions):
    """The tuple-at-a-time progressive sample join that
    ``SampledJoinEstimator._run_sample_join`` replaced, moved here
    unchanged as the oracle: a nested loop over the sample rows charging
    one unit of work per probed (combination, row) pair."""
    aliases = self._connected_order(conditions)
    if aliases is None:
        return None
    schemas = {a: self.query.relations[a].schema for a in aliases}
    samples = {a: self.sample_of(a).relation for a in aliases}

    work = 0
    work_cap = self.work_cap
    bound = [aliases[0]]
    partial = [{aliases[0]: row} for row in samples[aliases[0]].rows]
    for alias in aliases[1:]:
        bound.append(alias)
        ready = [
            c
            for c in conditions
            if alias in c.aliases and set(c.aliases) <= set(bound)
        ]
        new_schema = schemas[alias]
        checks = []
        for condition in ready:
            for predicate in condition.predicates:
                if predicate.left.alias == alias:
                    new_ref, bound_ref = predicate.left, predicate.right
                    op = predicate.op.swapped()
                else:
                    new_ref, bound_ref = predicate.right, predicate.left
                    op = predicate.op
                checks.append(
                    (
                        bound_ref.alias,
                        schemas[bound_ref.alias].index_of(bound_ref.attr),
                        bound_ref.offset,
                        op.as_function,
                        new_schema.index_of(new_ref.attr),
                        new_ref.offset,
                    )
                )
        rows = samples[alias].rows
        grown = []
        for combo in partial:
            bound_side = [
                (
                    combo[bound_alias][bound_idx] + bound_off
                    if bound_off
                    else combo[bound_alias][bound_idx],
                    compare,
                    new_idx,
                    new_off,
                )
                for bound_alias, bound_idx, bound_off, compare, new_idx, new_off in checks
            ]
            for row in rows:
                work += 1
                if work > work_cap:
                    return None
                for bound_value, compare, new_idx, new_off in bound_side:
                    new_value = row[new_idx]
                    if new_off:
                        new_value = new_value + new_off
                    if not compare(bound_value, new_value):
                        break
                else:
                    candidate = dict(combo)
                    candidate[alias] = row
                    grown.append(candidate)
        partial = grown
        if not partial:
            break
    matches = len(partial)
    denominator = 1
    for alias in aliases:
        denominator *= max(1, len(samples[alias]))
    return matches, denominator


def both_observations(query, conditions=None, sample_rows=400, work_cap=3_000_000):
    """(kernel, reference) observations of one condition set."""
    estimator = SampledJoinEstimator(
        query,
        StatisticsCatalog(),
        sample_rows=sample_rows,
        work_cap=work_cap,
        cache=PlanningCache(),
    )
    conditions = list(query.conditions if conditions is None else conditions)
    return (
        estimator._run_sample_join(conditions),
        _reference_sample_join(estimator, conditions),
    )


MIXED_SCHEMA = Schema.of("i:int", "f:float", "s:str")

#: Small domains on purpose: heavy repeats (skew) make `=` and `!=` both
#: selective and unselective within one draw.
_ints = st.integers(min_value=-6, max_value=6)
_floats = st.sampled_from([-2.5, -1.0, 0.0, 0.5, 1.0, 3.0, float("inf")])
_strs = st.sampled_from(["", "a", "ab", "b", "zz"])
_offsets = st.sampled_from([0, 0, 1, -2, 3.0, -1.5])
_attr_pairs = st.sampled_from(
    [("i", "i"), ("f", "f"), ("i", "f"), ("f", "i"), ("s", "s")]
)

#: alias-pair edges per shape; shapes needing a third/fourth alias are
#: trimmed to the aliases the draw has.
_SHAPES = {
    "chain": [("a", "b"), ("b", "c"), ("c", "d")],
    "star": [("a", "b"), ("a", "c"), ("a", "d")],
    "triangle": [("a", "b"), ("b", "c"), ("a", "c"), ("c", "d")],
}


@st.composite
def _relations(draw, count):
    relations = {}
    for alias in "abcd"[:count]:
        size = draw(st.sampled_from([0, 4, 7, 9, 11, 12, 14, 14]))
        rows = st.tuples(_ints, _floats, _strs)
        relations[alias] = Relation(
            f"R{alias}",
            MIXED_SCHEMA,
            draw(st.lists(rows, min_size=size, max_size=size)),
        )
    return relations


@st.composite
def _predicate(draw, left, right):
    left_attr, right_attr = draw(_attr_pairs)
    numeric = left_attr != "s"
    return JoinPredicate(
        AttrRef(left, left_attr, draw(_offsets) if numeric else 0),
        draw(st.sampled_from(list(ThetaOp))),
        AttrRef(right, right_attr, draw(_offsets) if numeric else 0),
    )


@st.composite
def sample_join_cases(draw):
    count = draw(st.integers(min_value=2, max_value=4))
    relations = draw(_relations(count))
    edges = [
        edge
        for edge in _SHAPES[draw(st.sampled_from(sorted(_SHAPES)))]
        if set(edge) <= set(relations)
    ]
    conditions = []
    for condition_id, (left, right) in enumerate(edges, start=1):
        if draw(st.booleans()):
            left, right = right, left
        predicates = draw(
            st.lists(_predicate(left, right), min_size=1, max_size=2)
        )
        conditions.append(JoinCondition(condition_id, predicates))
    query = JoinQuery("case", relations, conditions)
    sample_rows = draw(st.integers(min_value=1, max_value=14))
    work_cap = draw(st.sampled_from([0, 60, 400, 3_000_000, 3_000_000]))
    return query, sample_rows, work_cap


class TestKernelMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(sample_join_cases())
    def test_random_schemas_shapes_and_operators(self, case):
        query, sample_rows, work_cap = case
        kernel, reference = both_observations(
            query, sample_rows=sample_rows, work_cap=work_cap
        )
        assert kernel == reference

    def test_step_without_ready_predicate_is_a_charged_cross_product(self, monkeypatch):
        """``_connected_order`` never produces such a step, so force an
        order in which ``b`` is bound before anything it joins with."""
        query = JoinQuery(
            "cross",
            {"a": rel("A", 12), "b": rel("B", 9, seed=1), "c": rel("C", 7, seed=2)},
            [JoinCondition.parse(1, "a.v < c.v"), JoinCondition.parse(2, "b.d = c.d")],
        )
        monkeypatch.setattr(
            SampledJoinEstimator, "_connected_order", lambda self, conditions: ["a", "b", "c"]
        )
        kernel, reference = both_observations(query)
        assert kernel == reference and kernel[0] > 0
        # 12 x 9 cells for the cross product, then all 108 pairs x 7.
        assert both_observations(query, work_cap=12 * 9 + 108 * 7 - 1) == (None, None)
        assert both_observations(query, work_cap=12 * 9 + 108 * 7)[0] == kernel

    def test_empty_samples(self):
        empty = Relation("E", Schema.of("id:int", "v:int", "d:int"), [])
        for relations in (
            {"a": empty, "b": rel("B", 5)},
            {"a": rel("A", 5), "b": empty},
            {"a": empty, "b": empty},
        ):
            query = JoinQuery("e", relations, [JoinCondition.parse(1, "a.v <= b.v")])
            kernel, reference = both_observations(query)
            denominator = max(1, len(relations["a"])) * max(1, len(relations["b"]))
            assert kernel == reference == (0, denominator)


class TestAwkwardColumns:
    """Columns NumPy would happily mis-cast: every comparison must stay
    the Python comparison the scalar loop made."""

    @staticmethod
    def query(left_values, right_values, text, kinds=("int", "int")):
        left = Relation("L", Schema.of(f"v:{kinds[0]}"), [(v,) for v in left_values])
        right = Relation("R", Schema.of(f"v:{kinds[1]}"), [(v,) for v in right_values])
        return JoinQuery("awk", {"a": left, "b": right}, [JoinCondition.parse(1, text)])

    @pytest.mark.parametrize("op", ["=", "!=", "<", "<=", ">", ">="])
    def test_int_beyond_float_precision_against_float(self, op):
        # float(2**53 + 1) == float(2**53): a float64 cast flips `=`.
        query = self.query(
            [2**53 + 1, 2**53, 7], [float(2**53), 7.0], f"a.v {op} b.v",
            kinds=("int", "float"),
        )
        kernel, reference = both_observations(query)
        assert kernel == reference
        if op == "=":
            assert kernel == (2, 6)

    @pytest.mark.parametrize("op", ["=", "<", ">="])
    def test_ints_beyond_int64(self, op):
        query = self.query([2**70, -(2**65), 3], [2**70, 3, 2**63], f"a.v {op} b.v")
        kernel, reference = both_observations(query)
        assert kernel == reference

    @pytest.mark.parametrize("offset", [1, 2**62, 2**63, -(2**64), 0.5])
    def test_offset_that_would_wrap_int64(self, offset):
        left = Relation("L", Schema.of("v:int"), [(2**62 - 1,), (-(2**62) + 1,), (5,)])
        right = Relation("R", Schema.of("v:int"), [(2**62,), (2**63 - 1,), (6,)])
        condition = JoinCondition(
            1, [JoinPredicate(AttrRef("a", "v", offset), ThetaOp.LE, AttrRef("b", "v", 1))]
        )
        query = JoinQuery("wrap", {"a": left, "b": right}, [condition])
        kernel, reference = both_observations(query)
        assert kernel == reference

    @pytest.mark.parametrize("op", ["=", "!=", "<", ">="])
    def test_mixed_int_float_column(self, op):
        query = self.query(
            [1, 1.0, 2.5, 2**53 + 1], [1, 2.5, float(2**53)], f"a.v + 1 {op} b.v + 1"
        )
        kernel, reference = both_observations(query)
        assert kernel == reference

    @pytest.mark.parametrize("op", ["=", "!="])
    def test_none_and_bool_values(self, op):
        query = self.query([None, 1, True, 0], [None, 1, False], f"a.v {op} b.v")
        kernel, reference = both_observations(query)
        assert kernel == reference

    @pytest.mark.parametrize("op", ["=", "!=", "<", ">="])
    def test_str_columns(self, op):
        query = self.query(
            ["a", "b", "", "ab"], ["ab", "b", "c"], f"a.v {op} b.v", kinds=("str", "str")
        )
        kernel, reference = both_observations(query)
        assert kernel == reference

    def test_nan_never_matches_an_ordering(self):
        nan = float("nan")
        query = self.query([nan, 1.0], [nan, 1.0], "a.v <= b.v", kinds=("float", "float"))
        assert both_observations(query) == ((1, 4), (1, 4))

    def test_column_dtypes(self):
        relation = Relation(
            "T",
            Schema.of("i:int", "f:float", "s:str", "m:int", "h:int", "n:int"),
            [(1, 1.5, "x", 1, 2**70, None), (2, 2.5, "y", 2.0, 1, 3)],
        )
        sample = ColumnarSample(relation)
        assert sample.column("i").dtype == np.int64
        assert sample.column("f").dtype == np.float64
        for attr in "smhn":
            assert sample.column(attr).dtype == object
        assert sample.column("i") is sample.column("i")  # built once


class TestWorkCapBoundary:
    def chain(self):
        relations = {
            "a": rel("A", 20),
            "b": rel("B", 15, seed=1),
            "c": rel("C", 10, seed=2),
        }
        first = JoinCondition.parse(1, "a.v < b.v")
        second = JoinCondition.parse(2, "b.d <= c.d")
        query = JoinQuery("cap", relations, [first, second])
        (matches_ab, _), _ = both_observations(query, [first])
        assert matches_ab > 0
        return query, 20 * 15, 20 * 15 + matches_ab * 10

    def test_work_equal_to_cap_passes(self):
        query, _, total = self.chain()
        kernel, reference = both_observations(query, work_cap=total)
        assert kernel == reference and kernel is not None

    def test_one_past_the_cap_overflows(self):
        query, _, total = self.chain()
        assert both_observations(query, work_cap=total - 1) == (None, None)

    def test_overflow_on_the_last_step_only(self):
        query, first_step, total = self.chain()
        assert first_step < total - 1
        assert both_observations(query, work_cap=first_step) == (None, None)
        assert both_observations(query, work_cap=first_step - 1) == (None, None)
        kernel, _ = both_observations(query, list(query.conditions)[:1], work_cap=first_step)
        assert kernel is not None

    def test_zero_matches_keep_the_fallback_clamp(self, monkeypatch):
        low = Relation("LOW4", Schema.of("v:int"), [(i,) for i in range(40)])
        high = Relation("HIGH4", Schema.of("v:int"), [(i + 500,) for i in range(40)])
        query = JoinQuery(
            "disj", {"a": low, "b": high}, [JoinCondition.parse(1, "a.v > b.v")]
        )
        assert both_observations(query) == ((0, 1600), (0, 1600))
        with_kernel = estimator_for(query)
        value = with_kernel.selectivity(list(query.conditions))
        fallback = with_kernel._fallback.conditions_selectivity(
            query.conditions, with_kernel._relation_names
        )
        assert value == max(min(0.5 / 1600, fallback), 0.1 / 1600)
        monkeypatch.setattr(
            SampledJoinEstimator, "_run_sample_join", _reference_sample_join
        )
        get_planning_cache().clear()
        assert estimator_for(query).selectivity(list(query.conditions)) == value

    def test_step_larger_than_one_block(self):
        """1100 x 1100 = 1.21 M cells > 2**20: the first step runs in two
        blocks and materialises its pairs, the second only counts."""
        rng = make_rng("blocked-step")

        def table(name, rows):
            return Relation(
                name,
                Schema.of("g:int", "v:int"),
                [(rng.randint(0, 199), rng.randint(0, 50)) for _ in range(rows)],
            )

        query = JoinQuery(
            "blocked",
            {"a": table("BA", 1100), "b": table("BB", 1100), "c": table("BC", 60)},
            [JoinCondition.parse(1, "a.g = b.g"), JoinCondition.parse(2, "b.v < c.v")],
        )
        kernel, reference = both_observations(query, sample_rows=1100)
        assert kernel == reference and kernel[0] > 0


PLAN_QUERIES = [("mobile", q, 20) for q in (1, 2, 3, 4)] + [
    ("tpch", 7, 200),
    ("tpch", 17, 200),
]


@pytest.mark.parametrize("workload,query_id,volume", PLAN_QUERIES)
def test_plans_do_not_depend_on_the_kernel(workload, query_id, volume, monkeypatch):
    """Every planner picks the same jobs, notes and estimated makespan
    with the kernel as with the scalar reference in its place."""
    from repro.cli import PLANNERS, build_query
    from repro.mapreduce.config import PAPER_CLUSTER_KP64

    query = build_query(workload, query_id, volume, seed=0)

    def plan_all():
        get_planning_cache().clear()
        plans = {}
        for method in sorted(PLANNERS):
            plan = PLANNERS[method](PAPER_CLUSTER_KP64).plan(query)
            plans[method] = (plan.jobs, plan.notes, plan.est_makespan_s)
        return plans

    with_kernel = plan_all()
    monkeypatch.setattr(
        SampledJoinEstimator, "_run_sample_join", _reference_sample_join
    )
    assert plan_all() == with_kernel
    get_planning_cache().clear()
