"""Tests for the travel-planning (flight itinerary) workload."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import QueryError
from repro.joins.reference import reference_join
from repro.relational.predicates import ThetaOp
from repro.workloads.flights import (
    DAY_MINUTES,
    DEFAULT_STAYOVER,
    StayOver,
    flight_schema,
    generate_flight_leg,
    stayover_condition,
    travel_plan_query,
)


class TestStayOver:
    def test_valid_window(self):
        window = StayOver(30.0, 120.0)
        assert window.min_minutes == 30.0

    def test_negative_lower_rejected(self):
        with pytest.raises(QueryError):
            StayOver(-1.0, 60.0)

    def test_empty_window_rejected(self):
        with pytest.raises(QueryError):
            StayOver(60.0, 60.0)
        with pytest.raises(QueryError):
            StayOver(60.0, 30.0)


class TestSchema:
    def test_three_fields(self):
        schema = flight_schema()
        assert [f.name for f in schema.fields] == ["fno", "dt", "at"]

    def test_inflated_width(self):
        schema = flight_schema(bytes_per_row=3000)
        assert schema.row_width >= 2900


class TestGenerator:
    def test_row_count(self):
        leg = generate_flight_leg("FI_a_b", 40)
        assert len(leg) == 40

    def test_arrival_after_departure(self):
        leg = generate_flight_leg("FI_a_b", 100, duration_minutes=90.0)
        for fno, depart, arrive in leg:
            assert arrive > depart
            # +/-20% jitter around the nominal duration.
            assert 0.75 * 90 <= arrive - depart <= 1.25 * 90

    def test_departures_inside_horizon(self):
        horizon = 3 * DAY_MINUTES
        leg = generate_flight_leg("FI_a_b", 200, horizon_minutes=horizon)
        for _fno, depart, _arrive in leg:
            assert 0 <= depart < horizon

    def test_deterministic_by_seed(self):
        a = generate_flight_leg("FI_a_b", 30, seed=7)
        b = generate_flight_leg("FI_a_b", 30, seed=7)
        c = generate_flight_leg("FI_a_b", 30, seed=8)
        assert a.rows == b.rows
        assert a.rows != c.rows

    def test_flight_numbers_are_indices(self):
        leg = generate_flight_leg("FI_a_b", 25)
        assert [row[0] for row in leg] == list(range(25))

    def test_invalid_parameters(self):
        with pytest.raises(QueryError):
            generate_flight_leg("x", 0)
        with pytest.raises(QueryError):
            generate_flight_leg("x", 10, duration_minutes=0)
        with pytest.raises(QueryError):
            generate_flight_leg("x", 10, horizon_minutes=100)


class TestStayoverCondition:
    def test_two_sided_window(self):
        condition = stayover_condition(1, "leg1", "leg2", StayOver(30, 240))
        assert len(condition.predicates) == 2
        assert all(p.op is ThetaOp.LT for p in condition.predicates)

    def test_semantics(self):
        """The condition accepts exactly layovers inside (l1, l2)."""
        condition = stayover_condition(1, "leg1", "leg2", StayOver(30, 240))
        schema = flight_schema()
        schemas = {"leg1": schema, "leg2": schema}

        def ok(arrive, depart):
            rows = {"leg1": (0, 0, arrive), "leg2": (1, depart, depart + 60)}
            return condition.evaluate(rows, schemas)

        assert ok(600, 700)          # 100-minute layover
        assert not ok(600, 620)      # too short (20 < 30)
        assert not ok(600, 900)      # too long (300 > 240)
        assert not ok(600, 630)      # boundary is strict
        assert not ok(600, 840)      # boundary is strict


class TestTravelPlanQuery:
    def test_structure(self):
        query = travel_plan_query(["HKG", "SIN", "NRT"], flights_per_leg=20)
        assert len(query.aliases) == 2
        assert len(query.conditions) == 1
        assert query.relations["leg1"].name == "FI_HKG_SIN"
        assert query.relations["leg2"].name == "FI_SIN_NRT"

    def test_chain_shape(self):
        """Every condition links consecutive legs: a chain join graph."""
        query = travel_plan_query(
            ["a", "b", "c", "d", "e"], flights_per_leg=10
        )
        assert len(query.conditions) == 3
        for index, condition in enumerate(query.conditions):
            assert set(condition.aliases) == {f"leg{index + 1}", f"leg{index + 2}"}

    def test_validation(self):
        with pytest.raises(QueryError):
            travel_plan_query(["a", "b"])  # only one leg
        with pytest.raises(QueryError):
            travel_plan_query(["a", "b", "a"])  # repeated city
        with pytest.raises(QueryError):
            travel_plan_query(["a", "b", "c"], stayovers=[])  # wrong count

    def test_results_satisfy_stayover_windows(self):
        """Ground-truth check: every reference-join itinerary respects the
        stay-over windows, and layover-violating pairs are excluded."""
        windows = [StayOver(45, 360)]
        query = travel_plan_query(
            ["HKG", "SIN", "NRT"],
            flights_per_leg=40,
            stayovers=windows,
            seed=3,
        )
        results = reference_join(query)
        assert results, "expected at least one valid itinerary"
        for composite in results:
            rows = {alias: row for alias, _, row in composite}
            arrive = rows["leg1"][2]
            depart = rows["leg2"][1]
            layover = depart - arrive
            assert windows[0].min_minutes < layover < windows[0].max_minutes

    def test_tight_window_prunes_results(self):
        loose = travel_plan_query(
            ["a", "b", "c"], flights_per_leg=40,
            stayovers=[StayOver(30, 720)], seed=5,
        )
        tight = travel_plan_query(
            ["a", "b", "c"], flights_per_leg=40,
            stayovers=[StayOver(30, 60)], seed=5,
        )
        assert len(reference_join(tight)) <= len(reference_join(loose))

    def test_default_stayover_used(self):
        query = travel_plan_query(["a", "b", "c", "d"], flights_per_leg=5)
        for condition in query.conditions:
            offsets = sorted(
                p.left.offset + p.right.offset for p in condition.predicates
            )
            assert offsets == sorted(
                [DEFAULT_STAYOVER.min_minutes, DEFAULT_STAYOVER.max_minutes]
            )


class TestEndToEnd:
    def test_planner_answer_matches_reference(self):
        """The full paper pipeline on the intro scenario gives the same
        itinerary set as the nested-loop oracle."""
        from repro.core.executor import PlanExecutor
        from repro.core.planner import ThetaJoinPlanner
        from repro.mapreduce.config import ClusterConfig
        from repro.mapreduce.runtime import SimulatedCluster

        query = travel_plan_query(
            ["HKG", "SIN", "NRT", "SFO"], flights_per_leg=25, seed=11
        )
        config = ClusterConfig().with_units(8)
        plan = ThetaJoinPlanner(config).plan(query)
        outcome = PlanExecutor(SimulatedCluster(config)).execute(plan, query)
        expected = reference_join(query)
        assert outcome.report.output_records == len(expected)
        assert sorted(outcome.composites) == expected


@st.composite
def window_strategy(draw):
    lo = draw(st.floats(min_value=0, max_value=300))
    width = draw(st.floats(min_value=1, max_value=800))
    return StayOver(lo, lo + width)


class TestProperties:
    @given(window_strategy(), st.integers(min_value=2, max_value=40))
    @settings(max_examples=20, deadline=None)
    def test_reference_results_always_respect_window(self, window, flights):
        query = travel_plan_query(
            ["x", "y", "z"], flights_per_leg=flights,
            stayovers=[window], seed=1,
        )
        for composite in reference_join(query):
            rows = {alias: row for alias, _, row in composite}
            layover = rows["leg2"][1] - rows["leg1"][2]
            assert window.min_minutes < layover < window.max_minutes

    @given(st.integers(min_value=3, max_value=6))
    @settings(max_examples=10, deadline=None)
    def test_leg_count_tracks_city_count(self, num_cities):
        cities = [f"c{i}" for i in range(num_cities)]
        query = travel_plan_query(cities, flights_per_leg=4)
        assert len(query.aliases) == num_cities - 1
        assert len(query.conditions) == num_cities - 2
