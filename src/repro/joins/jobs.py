"""MapReduce join-job builders.

Four physical join operators, all consuming and producing files of
composite records (:mod:`repro.joins.records`):

* :func:`make_hypercube_join_job` — the paper's Algorithm 1: a multi-way
  theta-join in ONE MapReduce job.  Each input file is one dimension of
  the cross-product hyper-cube; tuples are replicated to the Hilbert-curve
  components their grid slab intersects; each reducer evaluates its
  component and outputs only combinations whose joint cell it *owns*
  (exactness + no duplicates).
* :func:`make_equi_join_job` — classic repartition equi-join: the join
  attributes are the shuffle key; residual theta predicates are filtered
  reducer-side.
* :func:`make_broadcast_join_job` — the Hive/Pig-style pair-wise theta
  fallback: the smaller input is replicated to every reducer, the larger
  is hashed uniformly; reducers run a filtered nested loop.
* :func:`make_equichain_join_job` — several inputs co-partitioned on one
  shared equality class (YSmart's merged job).

An operator *is* its router.  Each builder validates its inputs and
writes one ``batch_mapper`` that routes a whole record chunk — as
``(tag, position)`` values, the record's index in its input file, never
the record itself; the reduce
side of all four is the same progressive join — dimension by dimension,
every condition applied as soon as both its endpoints are bound, the
actually-performed comparisons charged so reducer workload (the quantity
the paper balances) is measured, not assumed — compiled once per job by
:mod:`repro.joins.progressive`.  The record-at-a-time mappers and
reducers these replace are the oracle in ``tests/joins/scalar_oracle.py``.
"""

from __future__ import annotations

from itertools import repeat
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

from repro.core.partitioner import HypercubePartitioner
from repro.errors import ExecutionError
from repro.joins.progressive import ProgressiveJoin, reduce_side
from repro.joins.records import composite_width, input_cover
from repro.mapreduce.hdfs import DistributedFile
from repro.mapreduce.job import MapBatch, MapReduceJobSpec
from repro.relational.predicates import JoinCondition, key_classes
from repro.relational.schema import Schema
from repro.utils import stable_hash


def _value_widths(
    header: int, covers: Sequence[Iterable[str]], schemas: Mapping[str, Schema]
) -> List[int]:
    """Serialized width of one shuffle value per input: the operator's tag
    header plus ``alias + global id + row`` per covered alias — what the
    composite a position stands for would cost on the wire.  Every
    input's composites cover a fixed alias set, so these are constants."""
    return [
        header + sum(16 + schemas[alias].row_width for alias in cover)
        for cover in covers
    ]

#: Hash space for ranking keys; any fixed size far above key counts works.
_SPREAD_SPACE = 1 << 61


def make_keyspread_partitioner(keys: Iterable[object], num_reducers: int):
    """Rank-balanced key -> reducer map over a *known* key population.

    The simulator's scaling substitution makes every record — and every
    shuffle key — stand for a large population of real ones, so modelling
    key placement as ``hash(key) % n`` over a few dozen simulated keys
    overstates reducer imbalance by orders of magnitude: real Hadoop
    hashes millions of keys into the same reduce tasks and lands within a
    fraction of a percent of perfect balance, unless the data itself is
    skewed.  This partitioner reproduces that behaviour at simulation
    granularity: keys are ranked by their (deterministic) hash and the
    ranks spread evenly over the reducers.  It stays *skew-oblivious* —
    a hot key's whole group still lands on one reducer, which is exactly
    the skew the paper's balanced partitioning is measured against; only
    the artificial collision noise of coarse-grained keys is removed.

    Returns ``(partitioner, mapping)``; the partitioner is a lookup in
    the mapping.
    """
    ranked = sorted(
        set(keys), key=lambda key: (stable_hash(key, _SPREAD_SPACE), repr(key))
    )
    count = len(ranked)
    if count == 0:
        from repro.mapreduce.job import default_partitioner

        return default_partitioner, {}
    mapping = {key: (rank * num_reducers) // count for rank, key in enumerate(ranked)}

    def partition(key: object, _num_reducers: int) -> int:
        return mapping[key]

    return partition, mapping


# ---------------------------------------------------------------------------
# Algorithm 1: multi-way theta-join in one MapReduce job
# ---------------------------------------------------------------------------

def make_hypercube_join_job(
    name: str,
    dim_files: Sequence[DistributedFile],
    partitioner: HypercubePartitioner,
    conditions: Sequence[JoinCondition],
    schemas_by_alias: Mapping[str, Schema],
    output_name: str = "",
) -> MapReduceJobSpec:
    """One-MRJ multi-way theta-join over the hyper-cube partition.

    ``dim_files[i]`` is dimension ``i`` of the cube; its slab's cover is
    the dimension's alias set.  The partitioner's cardinalities must equal
    the file record counts.
    """
    covers = [input_cover(name, file) for file in dim_files]
    if len(dim_files) != partitioner.dims:
        raise ExecutionError(
            f"job {name!r}: {len(dim_files)} inputs but partitioner has "
            f"{partitioner.dims} dimensions"
        )
    for index, file in enumerate(dim_files):
        if file.num_records != partitioner.cardinalities[index]:
            raise ExecutionError(
                f"job {name!r}: input {file.name!r} has {file.num_records} "
                f"records but partitioner expects {partitioner.cardinalities[index]}"
            )

    dim_of_tag = {file.tag: index for index, file in enumerate(dim_files)}
    if len(dim_of_tag) != len(dim_files):
        raise ExecutionError(f"job {name!r}: input files must carry distinct tags")

    output_width = composite_width(
        schemas_by_alias, sorted({a for cover in covers for a in cover})
    )
    join = ProgressiveJoin(
        name,
        covers,
        conditions,
        schemas_by_alias,
        scan_first=True,
        probe=True,
        # Ownership rule: output only combinations whose joint grid cell
        # falls in this reducer's curve segment (one gather through the
        # partitioner's precomputed ownership table per bucket).
        owners_of=partitioner.owners_of_id_columns,
    )

    # Table-driven routing: record counts were validated against the
    # cardinalities above, so the mapper can use the partitioner's
    # precomputed slab tables without per-record checks.
    slab_components = partitioner.slab_components()
    cell_widths = partitioner.cell_widths
    slab_top = tuple(u - 1 for u in partitioner.used_side)
    num_components = partitioner.num_components
    dim_value_width = _value_widths(16, covers, schemas_by_alias)

    def batch_mapper(tag: str, records: Sequence[object], base_index: int) -> MapBatch:
        """Route a whole record chunk through the flat slab tables.

        Record ``i`` of dimension ``d`` goes, as ``(d, i)``, to every
        component its grid slab ``min(i // cell_width, top)`` intersects.
        Contiguous global ids share a slab, so routing happens per *span*
        of records instead of per record: each span's value tuples are
        built once and extended onto every component the slab intersects.
        """
        dim = dim_of_tag[tag]
        width = cell_widths[dim]
        top = slab_top[dim]
        components_of_slab = slab_components[dim]
        pair_width = 12 + dim_value_width[dim]
        buckets: List[Dict[object, List[object]]] = [
            {} for _ in range(num_components)
        ]
        count = len(records)
        pair_count = 0
        lo = 0
        while lo < count:
            # Slabs clamp to the top used slab, which takes the remainder.
            slab = min((base_index + lo) // width, top)
            hi = count if slab == top else min(count, (slab + 1) * width - base_index)
            values = list(zip(repeat(dim), range(base_index + lo, base_index + hi)))
            components = components_of_slab[slab]
            pair_count += (hi - lo) * len(components)
            for component in components:
                buckets[component].setdefault(component, []).extend(values)
            lo = hi
        return MapBatch(buckets, pair_count, pair_count * pair_width)

    return MapReduceJobSpec(
        name=name,
        inputs=list(dim_files),
        num_reducers=num_components,
        output_record_width=output_width,
        batch_mapper=batch_mapper,
        **reduce_side(
            join, {dim: dim for dim in range(len(dim_files))}, dim_value_width, dim_files
        ),
        output_name=output_name or f"{name}.out",
    )


def _keyed_batch_mapper(
    keys_of_tag: Mapping[str, Sequence[object]],
    header_of_tag: Mapping[str, object],
    value_width_of_tag: Mapping[str, int],
    partition,
    num_reducers: int,
):
    """Repartition routing: record ``i`` of the file tagged ``tag`` goes,
    as ``(header_of_tag[tag], i)``, to the reducer its build-time shuffle
    key ``keys_of_tag[tag][i]`` is placed on."""

    def batch_mapper(tag: str, records: Sequence[object], base_index: int) -> MapBatch:
        keys = keys_of_tag[tag]
        header = header_of_tag[tag]
        buckets: List[Dict[object, List[object]]] = [
            {} for _ in range(num_reducers)
        ]
        for position in range(base_index, base_index + len(records)):
            key = keys[position]
            value = (header, position)
            bucket = buckets[partition(key, num_reducers)]
            existing = bucket.get(key)
            if existing is None:
                bucket[key] = [value]
            else:
                existing.append(value)
        return MapBatch(
            buckets, len(records), len(records) * (12 + value_width_of_tag[tag])
        )

    return batch_mapper


# ---------------------------------------------------------------------------
# Repartition equi-join with residual theta filters
# ---------------------------------------------------------------------------

def make_equi_join_job(
    name: str,
    left_file: DistributedFile,
    right_file: DistributedFile,
    conditions: Sequence[JoinCondition],
    schemas_by_alias: Mapping[str, Schema],
    num_reducers: int,
    output_name: str = "",
) -> MapReduceJobSpec:
    """Hash-partitioned equi-join keyed on all pure-equality predicates.

    Every equality predicate with zero offsets between the two inputs
    becomes part of the shuffle key; any remaining predicates are applied
    as reducer-side filters.  At least one key predicate is required —
    otherwise use the broadcast or hypercube job.
    """
    covers = [input_cover(name, left_file), input_cover(name, right_file)]
    key_predicates = [p for c in conditions for p in c.predicates if p.is_key]
    if not key_predicates:
        raise ExecutionError(
            f"job {name!r}: equi-join requires at least one equality predicate"
        )

    left_tag, right_tag = left_file.tag, right_file.tag
    if left_tag == right_tag:
        raise ExecutionError(f"job {name!r}: inputs must carry distinct tags")

    for predicate in key_predicates:
        sides = {predicate.left.alias, predicate.right.alias}
        if not all(sides.intersection(cover) for cover in covers):
            raise ExecutionError(
                f"job {name!r}: key predicate {predicate} does not connect "
                f"the two inputs"
            )
    output_width = composite_width(schemas_by_alias, sorted({*covers[0], *covers[1]}))

    def shuffle_keys(file: DistributedFile, cover) -> List[Tuple[str, tuple]]:
        """Every record's shuffle key, in record order: one column gather
        per key attribute, read on the side's own alias."""
        refs = [p.left if p.left.alias in cover else p.right for p in key_predicates]
        columns = [
            file.records.column(ref.alias, schemas_by_alias[ref.alias].index_of(ref.attr))
            for ref in refs
        ]
        return [("k", key) for key in zip(*columns)]

    # The whole key population is known at build time (the simulator hands
    # the builder complete files), which enables two things: the
    # rank-balanced key-spread shuffle placement, and batch mapping that
    # reuses the precomputed per-record keys instead of re-deriving them.
    keys_of_tag = {
        left_tag: shuffle_keys(left_file, covers[0]),
        right_tag: shuffle_keys(right_file, covers[1]),
    }
    partition, _ = make_keyspread_partitioner(
        (key for keys in keys_of_tag.values() for key in keys), num_reducers
    )
    widths = _value_widths(2, covers, schemas_by_alias)
    return MapReduceJobSpec(
        name=name,
        inputs=[left_file, right_file],
        num_reducers=num_reducers,
        partitioner=partition,
        output_record_width=output_width,
        batch_mapper=_keyed_batch_mapper(
            keys_of_tag,
            {left_tag: True, right_tag: False},
            {left_tag: widths[0], right_tag: widths[1]},
            partition,
            num_reducers,
        ),
        **reduce_side(
            ProgressiveJoin(
                name, covers, conditions, schemas_by_alias, scan_first=False
            ),
            {True: 0, False: 1},
            widths,
            [left_file, right_file],
        ),
        output_name=output_name or f"{name}.out",
    )


# ---------------------------------------------------------------------------
# Broadcast (fragment-replicate) pair-wise theta-join
# ---------------------------------------------------------------------------

def make_broadcast_join_job(
    name: str,
    big_file: DistributedFile,
    small_file: DistributedFile,
    conditions: Sequence[JoinCondition],
    schemas_by_alias: Mapping[str, Schema],
    num_reducers: int,
    output_name: str = "",
) -> MapReduceJobSpec:
    """Pair-wise theta-join by replicating the small input to all reducers.

    This is how Hive/Pig era systems evaluate an arbitrary theta predicate:
    a cross join (small side broadcast) followed by a filter.  Network
    volume is ``|small| * n + |big|`` — the baseline our hypercube job is
    measured against.
    """
    covers = [input_cover(name, big_file), input_cover(name, small_file)]
    if big_file.tag == small_file.tag:
        raise ExecutionError(f"job {name!r}: inputs must carry distinct tags")
    big_tag = big_file.tag
    output_width = composite_width(schemas_by_alias, sorted({*covers[0], *covers[1]}))
    big_value_width, small_value_width = _value_widths(6, covers, schemas_by_alias)

    def batch_mapper(tag: str, records: Sequence[object], base_index: int) -> MapBatch:
        """Big record ``i`` goes, as ``("big", i)``, to reducer
        ``stable_hash(("b", i))``; every small record goes to every
        reducer."""
        buckets: List[Dict[object, List[object]]] = [
            {} for _ in range(num_reducers)
        ]
        positions = range(base_index, base_index + len(records))
        if tag == big_tag:
            for position in positions:
                index = stable_hash(("b", position), num_reducers)
                buckets[index].setdefault(index, []).append(("big", position))
            pair_count = len(records)
            pair_bytes = pair_count * (12 + big_value_width)
        else:
            # Replicate: the same value tuple is shared by every reducer.
            for position in positions:
                value = ("small", position)
                for component in range(num_reducers):
                    buckets[component].setdefault(component, []).append(value)
            pair_count = len(records) * num_reducers
            pair_bytes = pair_count * (12 + small_value_width)
        return MapBatch(buckets, pair_count, pair_bytes)

    return MapReduceJobSpec(
        name=name,
        inputs=[big_file, small_file],
        num_reducers=num_reducers,
        output_record_width=output_width,
        batch_mapper=batch_mapper,
        **reduce_side(
            ProgressiveJoin(
                name, covers, conditions, schemas_by_alias, scan_first=False
            ),
            {"big": 0, "small": 1},
            [big_value_width, small_value_width],
            [big_file, small_file],
        ),
        output_name=output_name or f"{name}.out",
    )


# ---------------------------------------------------------------------------
# Equichain: several inputs co-partitioned on one equality class (YSmart's
# common-MapReduce framework / transit correlation, Lee et al. [23])
# ---------------------------------------------------------------------------

def find_single_key_class(
    conditions: Sequence[JoinCondition],
    alias_groups: Sequence[Tuple[str, ...]],
):
    """An equality class covering every input, or ``None``.

    Builds the equivalence classes of attribute references connected by
    zero-offset equality predicates.  When one class contains a reference
    into *every* alias group, all inputs can be co-partitioned on that
    class in a single MapReduce job — YSmart's transit-correlation merge.
    Returns ``{alias: AttrRef}`` (one key reference per alias that has
    one) or ``None``.
    """
    predicates = [p for condition in conditions for p in condition.predicates]
    for members in key_classes(predicates):
        member_aliases = {ref.alias for ref in members}
        if all(set(group) & member_aliases for group in alias_groups):
            by_alias = {}
            for ref in members:
                by_alias.setdefault(ref.alias, ref)
            return by_alias
    return None


def make_equichain_join_job(
    name: str,
    input_files: Sequence[DistributedFile],
    conditions: Sequence[JoinCondition],
    schemas_by_alias: Mapping[str, Schema],
    num_reducers: int,
    output_name: str = "",
) -> MapReduceJobSpec:
    """Several joins sharing one equality key class, in one MapReduce job.

    All inputs are hash-partitioned by the shared key; reducers join the
    co-located groups progressively, applying every condition (equality
    and residual theta alike) as soon as its aliases are bound.  This is
    the merged job YSmart's common-MapReduce framework produces for
    transit-correlated joins.
    """
    alias_groups = [input_cover(name, file) for file in input_files]
    key_refs = find_single_key_class(conditions, alias_groups)
    if key_refs is None:
        raise ExecutionError(
            f"job {name!r}: inputs do not share a single equality key class"
        )
    tags = [f.tag for f in input_files]
    if len(set(tags)) != len(tags):
        raise ExecutionError(f"job {name!r}: inputs must carry distinct tags")
    key_ref_of_tag = {}
    for file, group in zip(input_files, alias_groups):
        for alias in group:
            if alias in key_refs:
                key_ref_of_tag[file.tag] = key_refs[alias]
                break

    all_aliases = sorted({a for group in alias_groups for a in group})
    output_width = composite_width(schemas_by_alias, all_aliases)

    key_spec_of_tag = {
        tag: (ref.alias, schemas_by_alias[ref.alias].index_of(ref.attr))
        for tag, ref in key_ref_of_tag.items()
    }

    # Build-time key gather (one column per input): enables the
    # rank-balanced key-spread shuffle and lets the batch mapper reuse
    # precomputed keys.
    keys_of_tag: Dict[str, List[Tuple[str, object]]] = {
        file.tag: [
            ("k", value) for value in file.records.column(*key_spec_of_tag[file.tag])
        ]
        for file in input_files
    }
    partition, _ = make_keyspread_partitioner(
        (key for keys in keys_of_tag.values() for key in keys), num_reducers
    )

    widths = _value_widths(8, alias_groups, schemas_by_alias)
    return MapReduceJobSpec(
        name=name,
        inputs=list(input_files),
        num_reducers=num_reducers,
        partitioner=partition,
        output_record_width=output_width,
        batch_mapper=_keyed_batch_mapper(
            keys_of_tag,
            {tag: index for index, tag in enumerate(tags)},
            dict(zip(tags, widths)),
            partition,
            num_reducers,
        ),
        **reduce_side(
            ProgressiveJoin(
                name, alias_groups, conditions, schemas_by_alias, scan_first=True
            ),
            {index: index for index in range(len(tags))},
            widths,
            input_files,
        ),
        output_name=output_name or f"{name}.out",
    )
