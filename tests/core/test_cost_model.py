"""Tests for the Equation 1-6 cost model."""

import pytest

from repro.core.cost_model import (
    CostModelParameters,
    JobProfile,
    MRJCostModel,
)
from repro.errors import PlanningError
from repro.mapreduce.config import ClusterConfig
from repro.utils import GB


@pytest.fixture
def model() -> MRJCostModel:
    return MRJCostModel.for_cluster(ClusterConfig())


def profile(
    input_gb: float = 10.0,
    alpha: float = 1.0,
    reducers: int = 16,
    comparisons: float = 0.0,
    output_gb: float = 0.0,
) -> JobProfile:
    input_bytes = input_gb * GB
    return JobProfile(
        name="p",
        input_bytes=input_bytes,
        input_records=input_bytes / 100,
        map_output_bytes=input_bytes * alpha,
        map_output_records=input_bytes * alpha / 100,
        num_reducers=reducers,
        comparisons_max_reducer=comparisons,
        output_bytes=output_gb * GB,
    )


class TestPhaseStructure:
    def test_phases_all_positive(self, model):
        breakdown = model.estimate(profile(), map_units=96)
        assert breakdown.map_time_s > 0
        assert breakdown.copy_time_s > 0
        assert breakdown.reduce_time_s > 0
        assert breakdown.total_s > breakdown.startup_s

    def test_startup_included(self, model):
        breakdown = model.estimate(profile(input_gb=0.001), map_units=96)
        assert breakdown.total_s >= model.params.startup_s

    def test_more_input_costs_more(self, model):
        t_small = model.estimate_seconds(profile(input_gb=1), 96)
        t_large = model.estimate_seconds(profile(input_gb=100), 96)
        assert t_large > t_small

    def test_fewer_units_cost_more(self, model):
        t96 = model.estimate_seconds(profile(input_gb=50), 96)
        t8 = model.estimate_seconds(profile(input_gb=50), 8)
        assert t8 > t96

    def test_higher_alpha_costs_more(self, model):
        t1 = model.estimate_seconds(profile(alpha=0.5), 96)
        t2 = model.estimate_seconds(profile(alpha=4.0), 96)
        assert t2 > t1

    def test_equation6_overlap(self, model):
        """Total must be below the naive sum JM + JCP + JR (overlap)."""
        p = profile(input_gb=50)
        breakdown = model.estimate(p, map_units=32)
        naive = (
            breakdown.map_time_s + breakdown.copy_time_s + breakdown.reduce_time_s
        )
        assert breakdown.total_s - breakdown.startup_s <= naive + 1e-9


class TestReducerCountEffects:
    """The Figure 6 phenomenon: more reducers first help, then stop helping
    (connection overhead q*n grows while per-reducer input shrinks)."""

    def test_connection_overhead_grows_with_n(self, model):
        p_small_n = profile(input_gb=0.5, reducers=2)
        p_large_n = profile(input_gb=0.5, reducers=96)
        t_small = model.estimate(p_small_n, 96)
        t_large = model.estimate(p_large_n, 96)
        assert t_large.copy_time_s > t_small.copy_time_s

    def test_reduce_time_shrinks_with_n(self, model):
        t2 = model.estimate(profile(input_gb=50, reducers=2), 96)
        t32 = model.estimate(profile(input_gb=50, reducers=32), 96)
        assert t32.reduce_time_s < t2.reduce_time_s

    def test_diminishing_returns(self, model):
        """Gain from 2->8 reducers exceeds gain from 32->96 (Figure 6)."""
        times = {
            n: model.estimate_seconds(profile(input_gb=50, reducers=n), 96)
            for n in (2, 8, 32, 96)
        }
        gain_early = times[2] - times[8]
        gain_late = times[32] - times[96]
        assert gain_early > gain_late


class TestSkewAndComparisons:
    def test_explicit_max_reducer_input_dominates(self, model):
        balanced = profile(input_gb=10, reducers=16)
        from dataclasses import replace

        skewed = replace(
            balanced, max_reducer_input_bytes=balanced.map_output_bytes * 0.5
        )
        assert model.estimate_seconds(skewed, 96) > model.estimate_seconds(
            balanced, 96
        )

    def test_comparisons_add_cpu(self, model):
        cheap = profile(comparisons=0)
        heavy = profile(comparisons=1e12)
        assert model.estimate_seconds(heavy, 96) > model.estimate_seconds(cheap, 96)

    def test_output_write_charged(self, model):
        small = profile(output_gb=0)
        big = profile(output_gb=500)
        assert model.estimate_seconds(big, 96) > model.estimate_seconds(small, 96)

    def test_skewed_output_write_charged(self, model):
        from dataclasses import replace

        base = profile(output_gb=100)
        skewed = replace(base, output_max_reducer_bytes=base.output_bytes * 0.4)
        assert model.estimate_seconds(skewed, 96) > model.estimate_seconds(base, 96)


class TestParameters:
    def test_from_config_inverts_rates(self):
        config = ClusterConfig()
        params = CostModelParameters.from_config(config)
        assert params.read_s_per_byte == pytest.approx(
            1.0 / config.disk_read_bytes_s
        )
        assert params.write_s_per_byte == pytest.approx(
            1.0 / config.disk_write_bytes_s
        )

    def test_invalid_units(self, model):
        with pytest.raises(PlanningError):
            model.estimate(profile(), map_units=0)
