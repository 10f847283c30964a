"""Hilbert-curve partitioning of the join hyper-cube (Section 5.1).

The cross-product space S of the relations in a multi-way theta-join is a
hyper-cube with one dimension per relation.  A partition function maps S
onto ``kR`` disjoint components, one per reduce task.  This module
implements the paper's perfect partition function (Theorem 2): overlay a
``2**bits``-per-side grid on S, order the grid cells by the Hilbert curve,
and cut the curve into ``kR`` equal segments.

Key quantities:

* each tuple of relation ``Ri`` with global id ``g`` lives in grid slab
  ``g // cell_width_i`` of dimension ``i`` and must be replicated to every
  component that intersects that slab;
* the **duplication score** of Equation 7 is the total number of such
  (tuple, component) incidences — the data volume copied over the network;
* each joint grid cell belongs to exactly one component, which gives the
  reducer-side *ownership* rule that makes results exact and duplicate-free.

Hot-path layout: construction makes ONE pass over the memoized curve
table (:func:`repro.core.hilbert.curve_tables`), building the slab index,
the flat ``cell -> component`` ownership array, the per-dimension
duplication counts, and the full :class:`PartitionSummary` together.
After that every query is an array lookup, and :func:`get_partitioner`
lets the kR sweep, the planner's costing, and the executor share one
instance per ``(class, cardinalities, kR, bits)``.
"""

from __future__ import annotations

import functools
import math
from collections import OrderedDict
from dataclasses import dataclass
from typing import List, Sequence, Tuple, Type

import numpy as np

from repro.core import hilbert
from repro.errors import PartitionError
from repro.utils import ceil_div

#: Hard cap on grid cells so planning stays cheap (2^14 cells).
MAX_GRID_CELLS = 1 << 14


def choose_grid_bits(dims: int, num_components: int, oversample: int = 8) -> int:
    """Per-dimension bits so the grid has ~``oversample``x more cells than components.

    More cells than components lets segment boundaries balance load; the
    cap keeps the slab-to-component index small enough to precompute.
    """
    if dims < 1:
        raise PartitionError("dims must be >= 1")
    if num_components < 1:
        raise PartitionError("num_components must be >= 1")
    bits = 1
    while (1 << (bits * dims)) < num_components * oversample:
        if (1 << ((bits + 1) * dims)) > MAX_GRID_CELLS:
            break
        bits += 1
    return bits


@dataclass(frozen=True)
class PartitionSummary:
    """Size accounting of one hypercube partition (drives Eq. 10)."""

    num_components: int
    #: Eq. 7: total (tuple, component) incidences = tuples copied over the network.
    duplication_score: int
    #: Eq. 7 broken down per dimension (per relation), for byte accounting.
    duplication_by_dim: Tuple[int, ...]
    #: Total candidate combinations summed over components (= product of cardinalities).
    total_combinations: int
    #: Candidate combinations of the most loaded component.
    max_combinations_per_component: int
    #: Input tuples (with duplication) of the most loaded component.
    max_tuples_per_component: int
    #: Standard deviation of per-component input tuples.
    tuples_sigma: float
    #: kR as originally requested, before any clamp to the cell count.
    requested_components: int = 0
    #: True when ``requested_components > num_cells`` forced a smaller kR.
    clamped: bool = False


class HypercubePartitioner:
    """Hilbert-curve partition of the cross-product space of ``m`` relations."""

    def __init__(
        self,
        cardinalities: Sequence[int],
        num_components: int,
        bits: int = 0,
    ) -> None:
        """
        Parameters
        ----------
        cardinalities:
            ``|R1|, ..., |Rm|`` in dimension order.
        num_components:
            kR — the number of reduce tasks / curve segments.
        bits:
            Grid resolution per dimension; 0 picks a sensible default.
        """
        if not cardinalities:
            raise PartitionError("need at least one relation")
        if any(c < 1 for c in cardinalities):
            raise PartitionError(f"cardinalities must be positive: {cardinalities}")
        if num_components < 1:
            raise PartitionError("num_components must be >= 1")

        self.cardinalities: Tuple[int, ...] = tuple(cardinalities)
        self.dims = len(self.cardinalities)
        self.bits = bits or choose_grid_bits(self.dims, num_components)
        self.side = 1 << self.bits
        self.num_cells = hilbert.curve_length(self.bits, self.dims)
        self.requested_components = num_components
        self.clamped = num_components > self.num_cells
        if self.clamped:
            # Cannot have more components than grid cells; clamp like the
            # paper clamps kR to the available resolution.
            num_components = self.num_cells
        self.num_components = num_components
        #: Tuples of Ri covered by one grid slab along dimension i.
        self.cell_widths: Tuple[int, ...] = tuple(
            ceil_div(c, self.side) for c in self.cardinalities
        )
        #: Grid slabs actually populated along each dimension.
        self.used_side: Tuple[int, ...] = tuple(
            ceil_div(c, w) for c, w in zip(self.cardinalities, self.cell_widths)
        )
        self._build_tables()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def component_of_cell_index(self, curve_index: int) -> int:
        """Balanced contiguous segmentation of the curve into components."""
        return min(
            self.num_components - 1,
            curve_index * self.num_components // self.num_cells,
        )

    def _cell_points(self) -> Sequence[Tuple[int, ...]]:
        """All grid cells in curve order, through the memoized codec."""
        tables = hilbert.curve_tables(self.bits, self.dims)
        if tables is not None:
            return tables.points
        return hilbert.decode_many(range(self.num_cells), self.bits, self.dims)

    def _build_tables(self) -> None:
        """ONE pass over the cached curve table builds everything at once:

        * ``_slab_components``: per dimension, which components touch each
          populated grid slab (Algorithm 1's map-side routing);
        * ``_owner_by_flat``: row-major flattened cell -> owning component
          (the reducer-side ownership rule, now two array lookups);
        * the per-dimension duplication counts of Equation 7 and the full
          per-component load statistics of :meth:`summary`.
        """
        dims = self.dims
        used_side = self.used_side
        cell_widths = self.cell_widths
        cardinalities = self.cardinalities
        num_components = self.num_components

        points = self._cell_points()
        component_of = self.component_of_cell_index
        owner: List[int] = [component_of(i) for i in range(self.num_cells)]

        # Flat (row-major) cell id -> owning component, covering the whole
        # grid so out-of-populated-region probes still resolve.
        side = self.side
        owner_by_flat: List[int] = [0] * self.num_cells
        for curve_index, point in enumerate(points):
            f = 0
            for coordinate in point:
                f = f * side + coordinate
            owner_by_flat[f] = owner[curve_index]
        self._owner_by_flat: Sequence[int] = owner_by_flat

        #: Tuples held by each populated slab of each dimension.
        slab_counts: List[List[int]] = []
        for d in range(dims):
            width = cell_widths[d]
            cardinality = cardinalities[d]
            slab_counts.append(
                [
                    min(width, cardinality - slab * width)
                    for slab in range(used_side[d])
                ]
            )

        touch: List[List[set]] = [
            [set() for _ in range(used_side[d])] for d in range(dims)
        ]
        combos_per_component: List[int] = [0] * num_components
        for curve_index, point in enumerate(points):
            component = owner[curve_index]
            combos = 1
            usable = True
            for d in range(dims):
                coordinate = point[d]
                if coordinate >= used_side[d]:
                    usable = False
                    break
                combos *= slab_counts[d][coordinate]
            if not usable:
                # Cells outside the populated region hold no tuples; they
                # still belong to a segment but never receive data.
                continue
            for d in range(dims):
                touch[d][point[d]].add(component)
            combos_per_component[component] += combos

        self._slab_components: List[List[Tuple[int, ...]]] = [
            [tuple(sorted(s)) for s in per_dim] for per_dim in touch
        ]

        per_dim_duplication: List[int] = []
        tuples_per_component: List[int] = [0] * num_components
        for d in range(dims):
            incidences = 0
            counts = slab_counts[d]
            for slab, components in enumerate(self._slab_components[d]):
                tuples_in_slab = counts[slab]
                incidences += tuples_in_slab * len(components)
                for component in components:
                    tuples_per_component[component] += tuples_in_slab
            per_dim_duplication.append(incidences)
        self._duplication_by_dim: Tuple[int, ...] = tuple(per_dim_duplication)

        mean_load = sum(tuples_per_component) / num_components
        sigma = math.sqrt(
            sum((v - mean_load) ** 2 for v in tuples_per_component)
            / num_components
        )
        self._summary = PartitionSummary(
            num_components=num_components,
            duplication_score=sum(per_dim_duplication),
            duplication_by_dim=self._duplication_by_dim,
            total_combinations=sum(combos_per_component),
            max_combinations_per_component=max(combos_per_component),
            max_tuples_per_component=max(tuples_per_component),
            tuples_sigma=sigma,
            requested_components=self.requested_components,
            clamped=self.clamped,
        )

    # ------------------------------------------------------------------
    # tuple routing (Algorithm 1's map side)
    # ------------------------------------------------------------------

    def slab_of(self, dim: int, global_id: int) -> int:
        """Grid slab along ``dim`` containing tuple ``global_id``."""
        if not 0 <= dim < self.dims:
            raise PartitionError(f"dimension {dim} outside [0, {self.dims})")
        if not 0 <= global_id < self.cardinalities[dim]:
            raise PartitionError(
                f"global id {global_id} outside [0, {self.cardinalities[dim]}) "
                f"for dimension {dim}"
            )
        return min(global_id // self.cell_widths[dim], self.used_side[dim] - 1)

    def components_for(self, dim: int, global_id: int) -> Tuple[int, ...]:
        """All components a tuple must be replicated to (its slab's components)."""
        return self._slab_components[dim][self.slab_of(dim, global_id)]

    def slab_components(self) -> List[List[Tuple[int, ...]]]:
        """Per-dimension ``slab -> touching components`` routing tables.

        Exposed so join jobs can route tuples without per-record range
        validation (their record counts are checked once at build time).
        """
        return self._slab_components

    def owner_of_ids(self, global_ids: Sequence[int]) -> int:
        """Fast ownership: two array lookups, no validation.

        Callers must pass exactly ``dims`` in-range global ids (join jobs
        guarantee this because record counts equal the cardinalities).
        """
        side = self.side
        cell_widths = self.cell_widths
        used_side = self.used_side
        flat = 0
        for d, global_id in enumerate(global_ids):
            slab = global_id // cell_widths[d]
            limit = used_side[d] - 1
            if slab > limit:
                slab = limit
            flat = flat * side + slab
        return self._owner_by_flat[flat]

    @functools.cached_property
    def _owner_table(self) -> np.ndarray:
        return np.asarray(self._owner_by_flat, dtype=np.int64)

    def owners_of_id_columns(self, id_columns: Sequence[np.ndarray]) -> np.ndarray:
        """:meth:`owner_of_ids` of every row of ``dims`` in-range id
        columns at once: one clamp per dimension, one table gather."""
        flat = 0
        for d, ids in enumerate(id_columns):
            slab = np.minimum(ids // self.cell_widths[d], self.used_side[d] - 1)
            flat = flat * self.side + slab
        return self._owner_table[flat]

    def owner_component(self, global_ids: Sequence[int]) -> int:
        """The unique component owning the joint cell of a tuple combination.

        This is the reducer that may *output* the combination — the
        deduplication rule that keeps results exact.
        """
        if len(global_ids) != self.dims:
            raise PartitionError(
                f"expected {self.dims} global ids, got {len(global_ids)}"
            )
        for d, global_id in enumerate(global_ids):
            if not 0 <= global_id < self.cardinalities[d]:
                raise PartitionError(
                    f"global id {global_id} outside [0, {self.cardinalities[d]}) "
                    f"for dimension {d}"
                )
        return self.owner_of_ids(global_ids)

    # ------------------------------------------------------------------
    # analytics (Equations 7 and 10)
    # ------------------------------------------------------------------

    def duplication_by_dim(self) -> Tuple[int, ...]:
        """Eq. 7 contribution of each dimension: copies of Ri's tuples sent out."""
        return self._duplication_by_dim

    def duplication_score(self) -> int:
        """Equation 7: sum over all tuples of how many components receive them."""
        return self._summary.duplication_score

    def summary(self) -> PartitionSummary:
        """Per-component load statistics for the cost model (precomputed)."""
        return self._summary


class GridPartitioner(HypercubePartitioner):
    """Row-major ("naive grid") ablation baseline: same grid, no Hilbert.

    Cells are assigned to components in lexicographic order instead of
    Hilbert order.  Theorem 2's proof predicts a worse duplication score
    because lexicographic segments sweep one dimension completely before
    advancing the others.
    """

    @functools.cached_property
    def _tables(self):
        return hilbert.curve_tables(self.bits, self.dims)

    def component_of_cell_index(self, curve_index: int) -> int:
        tables = self._tables
        if tables is not None:
            flat = tables.flat_of(tables.points[curve_index])
        else:
            cell = hilbert.index_to_point(curve_index, self.bits, self.dims)
            flat = 0
            for coordinate in cell:
                flat = flat * self.side + coordinate
        return min(
            self.num_components - 1, flat * self.num_components // self.num_cells
        )


class RandomPartitioner(HypercubePartitioner):
    """Random cell-to-component assignment: the worst-case ablation baseline."""

    def component_of_cell_index(self, curve_index: int) -> int:
        from repro.utils import stable_hash

        return stable_hash(("cell", curve_index), self.num_components)


# ---------------------------------------------------------------------------
# shared-instance cache (kR sweep, planner costing, and executor all reuse)
# ---------------------------------------------------------------------------

_PARTITIONER_CACHE: "OrderedDict[tuple, HypercubePartitioner]" = OrderedDict()
_PARTITIONER_CACHE_MAX = 256


def get_partitioner(
    partitioner_cls: Type[HypercubePartitioner],
    cardinalities: Sequence[int],
    num_components: int,
    bits: int = 0,
) -> HypercubePartitioner:
    """LRU-cached partitioner construction.

    Partitioners are immutable after ``__init__``, so the Equation 10 kR
    sweep, the planner's costing, and the executor can all share one
    instance per ``(class, cardinalities, kR, bits)`` — the summary and
    ownership tables are then computed exactly once per configuration.
    """
    # Normalize bits so the sweep/costing (bits=0) and the executor (the
    # resolved job.partition_bits) hit the same cache entry.
    resolved_bits = bits or choose_grid_bits(len(cardinalities), num_components)
    key = (partitioner_cls, tuple(cardinalities), num_components, resolved_bits)
    cached = _PARTITIONER_CACHE.get(key)
    if cached is not None:
        _PARTITIONER_CACHE.move_to_end(key)
        return cached
    built = partitioner_cls(cardinalities, num_components, bits=resolved_bits)
    _PARTITIONER_CACHE[key] = built
    if len(_PARTITIONER_CACHE) > _PARTITIONER_CACHE_MAX:
        _PARTITIONER_CACHE.popitem(last=False)
    return built


def clear_partitioner_cache() -> None:
    """Drop all cached partitioners (used by benchmarks for cold timings)."""
    _PARTITIONER_CACHE.clear()
