"""Tests for the table-driven partitioner build, the shared LRU cache, and
the kR clamp surfacing (the hot-path overhaul's correctness contract)."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import partitioner as pmod
from repro.core.partitioner import (
    GridPartitioner,
    HypercubePartitioner,
    RandomPartitioner,
    clear_partitioner_cache,
    get_partitioner,
)
from repro.core.reducer_selection import (
    choose_reducer_count,
    evaluate_reducer_counts,
)

ALL_CLASSES = (HypercubePartitioner, GridPartitioner, RandomPartitioner)


class TestOwnershipTable:
    """owner_of_ids (two array lookups) must equal the validated
    owner_component, which itself must match the per-cell assignment."""

    @pytest.mark.parametrize("cls", ALL_CLASSES)
    @pytest.mark.parametrize("cards,k", [([7, 5], 3), ([10, 8, 6], 5)])
    def test_fast_owner_equals_validated_owner(self, cls, cards, k):
        partition = cls(cards, k)
        rng = random.Random(42)
        for _ in range(200):
            combo = [rng.randrange(c) for c in cards]
            assert partition.owner_of_ids(combo) == partition.owner_component(combo)

    @pytest.mark.parametrize("cls", ALL_CLASSES)
    @pytest.mark.parametrize(
        "cards,k", [([7, 5], 3), ([10, 8, 6], 5), ([33, 17], 8), ([5, 5, 5, 5], 9)]
    )
    def test_id_columns_equal_scalar_owner(self, cls, cards, k):
        """The whole-column form equals ``owner_of_ids`` row by row, on
        random ids and on the first and last ids of every dimension (the
        top used slab, where both forms clamp)."""
        partition = cls(cards, k)
        rng = random.Random(7)
        combos = [[rng.randrange(c) for c in cards] for _ in range(300)]
        combos += [[c - 1 for c in cards], [0] * len(cards)]
        combos += [
            [c - 1 if d == dim else rng.randrange(c) for d, c in enumerate(cards)]
            for dim in range(len(cards))
            for _ in range(20)
        ]
        columns = [np.array(column, dtype=np.int64) for column in zip(*combos)]
        owners = partition.owners_of_id_columns(columns)
        assert owners.tolist() == [partition.owner_of_ids(combo) for combo in combos]
        assert partition.owners_of_id_columns([c[:0] for c in columns]).tolist() == []

    @pytest.mark.parametrize("cls", ALL_CLASSES)
    def test_owner_consistent_with_cell_assignment(self, cls):
        """The flat ownership array flows through each subclass's
        component_of_cell_index override (Grid/Random included)."""
        partition = cls([12, 9], 4, bits=2)
        for curve_index in range(partition.num_cells):
            from repro.core import hilbert

            cell = hilbert.index_to_point(curve_index, partition.bits, partition.dims)
            flat = 0
            for coordinate in cell:
                flat = flat * partition.side + coordinate
            assert partition._owner_by_flat[flat] == partition.component_of_cell_index(
                curve_index
            )

    def test_subclasses_differ_from_base(self):
        """Sanity: the overrides actually produce different layouts, i.e.
        the shared table build did not flatten them onto the base rule."""
        cards, k, bits = [64, 64], 16, 4

        def owners(cls):
            partition = cls(cards, k, bits=bits)
            return [
                partition.component_of_cell_index(i)
                for i in range(partition.num_cells)
            ]

        hilbert_owner = owners(HypercubePartitioner)
        assert hilbert_owner != owners(GridPartitioner)
        assert hilbert_owner != owners(RandomPartitioner)


class TestSummaryEquivalence:
    @pytest.mark.parametrize("cls", ALL_CLASSES)
    @given(
        st.lists(st.integers(min_value=1, max_value=200), min_size=1, max_size=3),
        st.integers(min_value=1, max_value=32),
    )
    @settings(max_examples=30, deadline=None)
    def test_cached_summary_equals_fresh(self, cls, cards, k):
        clear_partitioner_cache()
        cached = get_partitioner(cls, tuple(cards), k)
        again = get_partitioner(cls, tuple(cards), k)
        assert cached is again  # shared instance
        fresh = cls(cards, k)
        assert cached.summary() == fresh.summary()
        assert cached.duplication_by_dim() == fresh.duplication_by_dim()
        assert cached.duplication_score() == fresh.duplication_score()

    def test_cache_distinguishes_class_and_bits(self):
        clear_partitioner_cache()
        a = get_partitioner(HypercubePartitioner, (64, 64), 8)
        b = get_partitioner(GridPartitioner, (64, 64), 8)
        c = get_partitioner(HypercubePartitioner, (64, 64), 8, bits=2)
        assert a is not b and a is not c

    def test_cache_eviction_bounded(self):
        clear_partitioner_cache()
        for k in range(1, pmod._PARTITIONER_CACHE_MAX + 50):
            get_partitioner(HypercubePartitioner, (50, 50), 1 + k % 64, bits=3)
        assert len(pmod._PARTITIONER_CACHE) <= pmod._PARTITIONER_CACHE_MAX


class TestClampSurfacing:
    """Regression: requesting more components than grid cells used to
    silently shrink ReducerChoice.num_reducers mid-sweep."""

    def test_summary_reports_clamp(self):
        partition = HypercubePartitioner([2, 2], 1000, bits=1)
        summary = partition.summary()
        assert summary.clamped is True
        assert summary.requested_components == 1000
        assert summary.num_components == partition.num_cells == 4

    def test_summary_no_clamp_flag_when_unclamped(self):
        summary = HypercubePartitioner([64, 64], 8).summary()
        assert summary.clamped is False
        assert summary.requested_components == 8

    def test_sweep_deduplicates_clamped_candidates(self):
        """With the grid resolution pinned (as the executor pins
        ``partition_bits``) many requested kR values clamp to the same
        effective count; the sweep must evaluate each effective count once
        instead of returning duplicate num_reducers entries."""
        choices = evaluate_reducer_counts(
            [2, 2], 256, partitioner_cls=_PinnedBitsPartitioner
        )
        effective = [c.num_reducers for c in choices]
        assert effective == [1, 2, 4]  # the 2x2 grid has four cells
        # The retained candidates are exactly the unclamped ones: every
        # clamped duplicate (8, 16, ..., 256 all collapse onto 4) was
        # dropped rather than silently re-evaluated under a smaller kR.
        assert all(not c.clamped for c in choices)
        assert all(c.requested_reducers == c.num_reducers for c in choices)
        # A direct construction past the cell count still surfaces the clamp.
        direct = _PinnedBitsPartitioner([2, 2], 8).summary()
        assert direct.clamped and direct.requested_components == 8
        assert direct.num_components == 4

    def test_sweep_unclamped_candidates_unchanged(self):
        choices = evaluate_reducer_counts([100, 100], 16)
        assert [c.num_reducers for c in choices] == [1, 2, 4, 8, 16]
        assert all(not c.clamped for c in choices)

    def test_choice_still_minimises_delta_under_clamp(self):
        best = choose_reducer_count(
            [2, 2], 256, partitioner_cls=_PinnedBitsPartitioner
        )
        choices = evaluate_reducer_counts(
            [2, 2], 256, partitioner_cls=_PinnedBitsPartitioner
        )
        assert best.delta == min(c.delta for c in choices)


class _PinnedBitsPartitioner(HypercubePartitioner):
    """A 1-bit-per-dimension grid, like an executor job with fixed
    ``partition_bits`` — the configuration where the clamp actually bites."""

    def __init__(self, cardinalities, num_components, bits=0):
        super().__init__(cardinalities, num_components, bits=1)
