"""Tests for column statistics and theta selectivity estimation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SchemaError
from repro.relational.predicates import AttrRef, JoinCondition, JoinPredicate, ThetaOp
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.relational.statistics import (
    SelectivityEstimator,
    StatisticsCatalog,
    compute_column_stats,
    compute_relation_stats,
)
from repro.utils import make_rng


def uniform_rel(name: str, n: int, hi: int = 1000, seed: int = 0) -> Relation:
    rng = make_rng("stats-test", name, seed)
    schema = Schema.of("id:int", "v:int")
    return Relation(name, schema, [(i, rng.randint(0, hi - 1)) for i in range(n)])


def estimate(left_values, right_values, op, shift=0.0):
    """Midpoint estimate of ``P[l.v + shift  op  r.v]`` over two value lists."""
    catalog = StatisticsCatalog()
    for name, values in (("L", left_values), ("R", right_values)):
        catalog.add_relation(
            Relation(name, Schema.of("v:float"), [(v,) for v in values])
        )
    predicate = JoinPredicate(AttrRef("l", "v", shift), op, AttrRef("r", "v"))
    return SelectivityEstimator(catalog).predicate_selectivity(predicate, "L", "R")


def brute_force(left_values, right_values, op, shift=0.0):
    """Exact match fraction by nested loop."""
    hits = sum(
        1 for x in left_values for y in right_values if op.evaluate(x + shift, y)
    )
    return hits / (len(left_values) * len(right_values))


class TestColumnStats:
    def test_min_max_count_distinct(self):
        stats = compute_column_stats("v", [5, 1, 9, 1, 3])
        assert stats.min_value == 1
        assert stats.max_value == 9
        assert stats.count == 5
        assert stats.distinct == 4

    def test_fraction_below_extremes(self):
        stats = compute_column_stats("v", list(range(100)))
        assert stats.fraction_below(-1, inclusive=False) == 0.0
        assert stats.fraction_below(1000, inclusive=True) == 1.0

    def test_fraction_below_midpoint(self):
        stats = compute_column_stats("v", list(range(100)))
        mid = stats.fraction_below(50, inclusive=False)
        assert 0.4 < mid < 0.6

    def test_fraction_below_monotone(self):
        stats = compute_column_stats("v", [make_rng("m", i).randint(0, 99) for i in range(200)])
        fracs = [stats.fraction_below(x, inclusive=False) for x in range(0, 100, 5)]
        assert fracs == sorted(fracs)

    def test_empty_column(self):
        stats = compute_column_stats("v", [])
        assert stats.count == 0
        assert stats.fraction_below(5, inclusive=True) == 0.0

    def test_string_column_rank_transform(self):
        stats = compute_column_stats("v", ["b", "a", "c", "a"])
        assert stats.distinct == 3
        assert stats.count == 4

    def test_constant_column(self):
        stats = compute_column_stats("v", [5.0] * 100, buckets=8)
        assert stats.distinct == 1
        assert set(stats.boundaries) == {5.0}
        assert stats.max_frequency == 1.0
        assert stats.fraction_below(5.0, inclusive=True) == 1.0

    def test_boundaries_are_equi_depth(self):
        stats = compute_column_stats("v", list(range(1000)), buckets=16)
        assert stats.buckets == 16
        assert len(stats.boundaries) == 17
        assert list(stats.boundaries) == sorted(stats.boundaries)
        assert (stats.boundaries[0], stats.boundaries[-1]) == (0, 999)

    def test_buckets_clamped_to_value_count(self):
        stats = compute_column_stats("v", [1, 2, 3], buckets=20)
        assert stats.buckets == 3

    def test_top_frequencies_descending(self):
        values = [7] * 50 + [3] * 30 + list(range(100, 120))
        stats = compute_column_stats("v", values, top_k=3)
        assert [value for value, _ in stats.top_frequencies] == [7, 3, 100]
        assert stats.top_frequencies[0][1] == pytest.approx(0.5)
        assert stats.max_frequency == pytest.approx(0.5)

    def test_max_frequency_without_top_values_is_uniform(self):
        stats = compute_column_stats("v", list(range(40)), top_k=0)
        assert stats.max_frequency == pytest.approx(1 / 40)

    def test_empty_column_max_frequency(self):
        assert compute_column_stats("v", []).max_frequency == 0.0

    @pytest.mark.parametrize("probe", [10.0, 33.0, 50.0, 90.0])
    def test_fraction_below_matches_ecdf_uniform(self, probe):
        rng = make_rng("stats-ecdf")
        values = [rng.uniform(0, 100) for _ in range(2000)]
        stats = compute_column_stats("v", values)
        exact = sum(1 for v in values if v < probe) / len(values)
        assert stats.fraction_below(probe, inclusive=False) == pytest.approx(
            exact, abs=0.01
        )


class TestRelationStats:
    def test_exact_cardinality_with_sampling(self):
        relation = uniform_rel("R", 5000)
        stats = compute_relation_stats(relation, sample_size=100)
        assert stats.cardinality == 5000
        assert stats.size_bytes == relation.size_bytes

    def test_all_columns_covered(self):
        relation = uniform_rel("R", 50)
        stats = compute_relation_stats(relation)
        assert set(stats.columns) == {"id", "v"}

    def test_sampling_is_deterministic(self):
        relation = uniform_rel("R", 3000)
        first = compute_relation_stats(relation, sample_size=200)
        second = compute_relation_stats(relation, sample_size=200)
        assert first == second

    def test_unknown_column_rejected(self):
        stats = compute_relation_stats(uniform_rel("R", 10))
        with pytest.raises(SchemaError):
            stats.column("missing")


class TestStatisticsCatalog:
    def test_add_and_lookup(self):
        catalog = StatisticsCatalog()
        catalog.add_relation(uniform_rel("B", 10))
        catalog.add_relation(uniform_rel("A", 10))
        assert "A" in catalog and "C" not in catalog
        assert catalog.names() == ["A", "B"]
        assert catalog.get("A").cardinality == 10

    def test_unknown_relation_rejected(self):
        with pytest.raises(SchemaError):
            StatisticsCatalog().get("missing")


class TestSelectivityEstimator:
    @pytest.fixture
    def estimator(self):
        catalog = StatisticsCatalog()
        catalog.add_relation(uniform_rel("L", 2000))
        catalog.add_relation(uniform_rel("R", 2000, seed=1))
        return catalog, SelectivityEstimator(catalog)

    def _true_selectivity(self, predicate, left, right):
        hits = 0
        for lrow in left:
            for rrow in right:
                if predicate.evaluate_values(lrow[1], rrow[1]):
                    hits += 1
        return hits / (len(left) * len(right))

    @pytest.mark.parametrize("text", ["a.v < b.v", "a.v >= b.v", "a.v <= b.v"])
    def test_range_estimates_close_to_truth(self, estimator, text):
        catalog, est = estimator
        predicate = JoinPredicate.parse(text)
        approx = est.predicate_selectivity(predicate, "L", "R")
        assert abs(approx - 0.5) < 0.1

    def test_offset_shifts_selectivity(self, estimator):
        catalog, est = estimator
        no_shift = est.predicate_selectivity(
            JoinPredicate.parse("a.v < b.v"), "L", "R"
        )
        shifted = est.predicate_selectivity(
            JoinPredicate.parse("a.v + 500 < b.v"), "L", "R"
        )
        assert shifted < no_shift

    def test_eq_small(self, estimator):
        catalog, est = estimator
        sel = est.predicate_selectivity(JoinPredicate.parse("a.v = b.v"), "L", "R")
        assert 0 < sel < 0.01

    def test_ne_complements_eq(self, estimator):
        catalog, est = estimator
        eq = est.predicate_selectivity(JoinPredicate.parse("a.v = b.v"), "L", "R")
        ne = est.predicate_selectivity(JoinPredicate.parse("a.v != b.v"), "L", "R")
        assert abs((eq + ne) - 1.0) < 1e-9

    def test_condition_selectivity_multiplies(self, estimator):
        catalog, est = estimator
        condition = JoinCondition.parse(1, "a.v < b.v", "a.id >= b.id")
        sel = est.condition_selectivity(condition, {"a": "L", "b": "R"})
        lone = est.predicate_selectivity(JoinPredicate.parse("a.v < b.v"), "L", "R")
        assert sel < lone

    def test_disjoint_ranges_give_zero_eq(self):
        catalog = StatisticsCatalog()
        low = Relation("LOW", Schema.of("v:int"), [(i,) for i in range(100)])
        high = Relation("HIGH", Schema.of("v:int"), [(i + 1000,) for i in range(100)])
        catalog.add_relation(low)
        catalog.add_relation(high)
        est = SelectivityEstimator(catalog)
        assert est.predicate_selectivity(
            JoinPredicate.parse("a.v = b.v"), "LOW", "HIGH"
        ) == 0.0
        # And the range estimate knows LOW < HIGH always holds.
        assert est.predicate_selectivity(
            JoinPredicate.parse("a.v < b.v"), "LOW", "HIGH"
        ) > 0.95


class TestMidpointEstimates:
    def test_identical_distributions_half(self):
        rng = make_rng("stats-iid")
        values = [rng.uniform(0, 10) for _ in range(1000)]
        assert estimate(values, values, ThetaOp.LT) == pytest.approx(0.5, abs=0.03)
        assert estimate(values, values, ThetaOp.GT) == pytest.approx(0.5, abs=0.03)

    def test_constant_columns(self):
        atom = [5.0] * 100
        assert estimate(atom, atom, ThetaOp.LT) == 0.0
        assert estimate(atom, atom, ThetaOp.GE) == 1.0
        assert estimate(atom, atom, ThetaOp.EQ) == 1.0
        assert estimate(atom, atom, ThetaOp.NE) == 0.0

    def test_shift_moves_probability(self):
        rng = make_rng("stats-shift")
        values = [rng.uniform(0, 10) for _ in range(500)]
        down = estimate(values, values, ThetaOp.LT, shift=-5.0)
        no_shift = estimate(values, values, ThetaOp.LT)
        up = estimate(values, values, ThetaOp.LT, shift=5.0)
        # l.v + shift < r.v: a larger left offset makes the predicate rarer.
        assert up < no_shift < down

    def test_eq_uniform_distinct(self):
        """Two aligned uniform columns with d distinct values: sel = 1/d."""
        values = [float(v) for v in range(100)]
        assert estimate(values, values, ThetaOp.EQ) == pytest.approx(0.01)

    def test_disjoint_ranges_order(self):
        low = [float(v) for v in range(100)]
        high = [float(v + 1000) for v in range(100)]
        assert estimate(low, high, ThetaOp.GT) == 0.0
        assert estimate(high, low, ThetaOp.LT) == 0.0
        assert estimate(high, low, ThetaOp.GT) == 1.0

    def test_empty_relation_gives_zero(self):
        for op in ThetaOp:
            assert estimate([], [1.0, 2.0], op) == 0.0

    def test_conditions_selectivity_multiplies(self):
        catalog = StatisticsCatalog()
        for name, seed in (("L", 0), ("R", 1), ("S", 2)):
            catalog.add_relation(uniform_rel(name, 500, seed=seed))
        est = SelectivityEstimator(catalog)
        names = {"a": "L", "b": "R", "c": "S"}
        first = JoinCondition.parse(1, "a.v < b.v")
        second = JoinCondition.parse(2, "b.v <= c.v")
        both = est.conditions_selectivity([first, second], names)
        assert both == pytest.approx(
            est.condition_selectivity(first, names)
            * est.condition_selectivity(second, names)
        )
        assert est.conditions_selectivity([], names) == 1.0


class TestAgainstBruteForce:
    @pytest.mark.parametrize("op", [ThetaOp.LT, ThetaOp.LE, ThetaOp.GT, ThetaOp.GE])
    def test_uniform_data(self, op):
        rng = make_rng("stats-brute", op.value)
        left = [rng.uniform(0, 100) for _ in range(400)]
        right = [rng.uniform(20, 140) for _ in range(400)]
        assert estimate(left, right, op) == pytest.approx(
            brute_force(left, right, op), abs=0.02
        )

    @pytest.mark.parametrize("shift", [-30.0, 0.0, 30.0])
    def test_shifted_window(self, shift):
        rng = make_rng("stats-brute-shift", shift)
        left = [rng.uniform(0, 100) for _ in range(300)]
        right = [rng.uniform(0, 100) for _ in range(300)]
        assert estimate(left, right, ThetaOp.LT, shift) == pytest.approx(
            brute_force(left, right, ThetaOp.LT, shift), abs=0.02
        )

    def test_skewed_data(self):
        rng = make_rng("stats-brute-skew")
        left = [rng.expovariate(0.05) for _ in range(500)]
        right = [rng.expovariate(0.02) for _ in range(500)]
        assert estimate(left, right, ThetaOp.LT) == pytest.approx(
            brute_force(left, right, ThetaOp.LT), abs=0.02
        )


# ---------------------------------------------------------------------------
# Property-based
# ---------------------------------------------------------------------------

values_strategy = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False),
    min_size=2,
    max_size=200,
)


class TestProperties:
    @given(values_strategy, st.integers(min_value=1, max_value=30))
    @settings(max_examples=60, deadline=None)
    def test_boundaries_span_the_column(self, values, buckets):
        stats = compute_column_stats("v", values, buckets=buckets)
        assert list(stats.boundaries) == sorted(stats.boundaries)
        assert stats.boundaries[0] == min(values)
        assert stats.boundaries[-1] == max(values)
        assert 1 <= stats.buckets <= buckets

    @given(values_strategy)
    @settings(max_examples=40, deadline=None)
    def test_fraction_below_is_monotone_cdf(self, values):
        stats = compute_column_stats("v", values, buckets=10)
        lo, hi = stats.min_value, stats.max_value
        probes = sorted([lo - 1, lo, (lo + hi) / 2, hi, hi + 1])
        for inclusive in (False, True):
            fractions = [stats.fraction_below(p, inclusive) for p in probes]
            assert fractions == sorted(fractions)
            assert 0.0 <= min(fractions) and max(fractions) <= 1.0

    @given(values_strategy)
    @settings(max_examples=40, deadline=None)
    def test_top_frequency_mass_at_most_one(self, values):
        stats = compute_column_stats("v", values)
        shares = [share for _, share in stats.top_frequencies]
        assert shares == sorted(shares, reverse=True)
        assert sum(shares) <= 1.0 + 1e-9

    @given(values_strategy, values_strategy)
    @settings(max_examples=40, deadline=None)
    def test_lt_and_ge_complement(self, left_values, right_values):
        lt = estimate(left_values, right_values, ThetaOp.LT)
        ge = estimate(left_values, right_values, ThetaOp.GE)
        assert lt + ge == pytest.approx(1.0, abs=1e-9)

    @given(values_strategy, values_strategy)
    @settings(max_examples=40, deadline=None)
    def test_le_and_gt_complement(self, left_values, right_values):
        le = estimate(left_values, right_values, ThetaOp.LE)
        gt = estimate(left_values, right_values, ThetaOp.GT)
        assert le + gt == pytest.approx(1.0, abs=1e-9)

    @given(values_strategy, values_strategy)
    @settings(max_examples=40, deadline=None)
    def test_selectivities_in_unit_interval(self, left_values, right_values):
        for op in ThetaOp:
            assert 0.0 <= estimate(left_values, right_values, op) <= 1.0
