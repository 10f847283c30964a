"""Tests for shared utilities."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils import (
    argmin,
    ceil_div,
    chunks,
    format_bytes,
    linear_fit,
    make_rng,
    mean,
    reservoir_sample,
    stable_hash,
    stddev,
)


class TestRng:
    def test_same_seed_same_stream(self):
        assert make_rng("a", 1).random() == make_rng("a", 1).random()

    def test_different_seed_parts(self):
        assert make_rng("job", 3).random() != make_rng("job", 30).random()


class TestStableHash:
    def test_in_range(self):
        for value in ("x", 42, (1, "y")):
            assert 0 <= stable_hash(value, 7) < 7

    def test_deterministic(self):
        assert stable_hash("key", 100) == stable_hash("key", 100)

    def test_invalid_buckets(self):
        with pytest.raises(ValueError):
            stable_hash("x", 0)

    @given(st.integers(), st.integers(min_value=1, max_value=1000))
    @settings(max_examples=30)
    def test_property_range(self, value, buckets):
        assert 0 <= stable_hash(value, buckets) < buckets


class TestMath:
    def test_ceil_div(self):
        assert ceil_div(5, 2) == 3
        assert ceil_div(4, 2) == 2
        assert ceil_div(0, 3) == 0
        with pytest.raises(ValueError):
            ceil_div(1, 0)

    def test_mean_stddev(self):
        assert mean([1.0, 2.0, 3.0]) == 2.0
        assert stddev([2.0, 2.0]) == 0.0
        with pytest.raises(ValueError):
            mean([])

    def test_linear_fit(self):
        a, b = linear_fit([0, 1, 2, 3], [1, 3, 5, 7])
        assert a == pytest.approx(2.0)
        assert b == pytest.approx(1.0)
        with pytest.raises(ValueError):
            linear_fit([1, 1], [2, 3])

    def test_argmin(self):
        assert argmin([("a", 3.0), ("b", 1.0), ("c", 2.0)]) == "b"
        with pytest.raises(ValueError):
            argmin([])


class TestFormatting:
    def test_format_bytes(self):
        assert format_bytes(512) == "512.0 B"
        assert format_bytes(2 * 1024 ** 2) == "2.0 MB"
        assert format_bytes(3 * 1024 ** 3) == "3.0 GB"


class TestCollections:
    def test_chunks(self):
        assert list(chunks([1, 2, 3, 4, 5], 2)) == [[1, 2], [3, 4], [5]]
        with pytest.raises(ValueError):
            list(chunks([1], 0))

    def test_reservoir_sample_size(self):
        sample = reservoir_sample(range(100), 10, make_rng("s"))
        assert len(sample) == 10
        assert len(set(sample)) == 10

    def test_reservoir_small_input(self):
        assert sorted(reservoir_sample(range(3), 10, make_rng("s"))) == [0, 1, 2]

    @given(st.integers(min_value=0, max_value=50))
    @settings(max_examples=20)
    def test_property_reservoir_uniform_membership(self, k):
        sample = reservoir_sample(range(100), k, make_rng("p", k))
        assert len(sample) == min(k, 100)
        assert all(0 <= x < 100 for x in sample)
