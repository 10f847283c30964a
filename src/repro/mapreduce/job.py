"""MapReduce job specifications for the simulated cluster.

A job is defined exactly the way the paper's programming model describes:
a mapper transforming input records into (key, value) pairs, a partitioner
routing keys to one of ``num_reducers`` reduce tasks, and a reducer
producing output records from each key group.  The reduce-task count is
the single user-supplied scheduling parameter RN(MRJ) the paper optimises.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import ExecutionError
from repro.mapreduce.hdfs import DistributedFile
from repro.utils import stable_hash


class TaskContext:
    """Handed to per-record mappers and per-group reducers for cost
    accounting (by :func:`lift_mapper` / :func:`lift_reducer`, its only
    users; batch callables report their counts in the batch they return).

    A reducer calls :meth:`charge_comparisons` for every candidate tuple
    combination it tests; the runtime converts the count into simulated CPU
    time, which is how reducer-workload balance (the paper's core concern)
    becomes visible in the makespan.
    """

    def __init__(self) -> None:
        self.comparisons: int = 0
        #: Position of the current record within its input file.  This is
        #: the "global ID" of the paper's Algorithm 1: the paper assigns it
        #: by uniform random selection because real mappers lack a global
        #: view; the simulator can hand out exact positions, which realises
        #: the same uniform-unique-id semantics deterministically.
        self.record_index: int = -1

    def charge_comparisons(self, count: int) -> None:
        if count < 0:
            raise ExecutionError("cannot charge a negative comparison count")
        self.comparisons += count


#: mapper(source_tag, record, ctx) -> iterable of (key, value)
Mapper = Callable[[str, object, TaskContext], Iterable[Tuple[object, object]]]
#: reducer(key, values, ctx) -> iterable of output records
Reducer = Callable[[object, List[object], TaskContext], Iterable[object]]
#: partitioner(key, num_reducers) -> reducer index
Partitioner = Callable[[object, int], int]


@dataclass
class MapBatch:
    """Pre-bucketed map output for one chunk of input records.

    ``buckets[r]`` holds the chunk's shuffle groups destined for reduce
    task ``r``, keyed by shuffle key with values in emission order, so the
    runtime merges chunk batches with dict/list extends instead of
    re-routing every pair.  ``pair_count``/``pair_bytes`` carry the
    chunk's map-output counters (bytes by :meth:`MapReduceJobSpec.pair_bytes`).
    """

    buckets: List[Dict[object, List[object]]]
    pair_count: int
    pair_bytes: int


#: batch_mapper(source_tag, records, base_index) -> MapBatch; ``records``
#: is a contiguous slice of the input file starting at ``base_index``.
#: Must emit exactly what a per-record mapper would for the same records,
#: in the same order — the equivalence tests hold it to that.
BatchMapper = Callable[[str, Sequence[object], int], MapBatch]


@dataclass
class ReduceBatch:
    """Batched reduce output for one call over a run of key groups — the
    key groups of a contiguous range of reduce tasks (buckets), bucket
    after bucket.

    ``outputs`` holds the output records in the exact order a per-group
    reducer would emit them (key groups in the order given, records in
    emission order within a group) — or, for a job with its own
    ``collect_outputs``, whatever that folds into such records (a join:
    one position vector per input).  The three other fields are
    per-key-group integer sequences in key order: comparisons charged
    (what :meth:`TaskContext.charge_comparisons` would total), outputs
    produced and input bytes (:meth:`MapReduceJobSpec.pair_bytes` of the
    group's values).  The runtime sums them back per bucket, so a reduce
    task's accounting does not depend on how many buckets one call got.
    """

    outputs: Sequence[object]
    group_comparisons: Sequence[int]
    group_produced: Sequence[int]
    group_bytes: Sequence[int]


#: batch_reducer(keys, values, group_offsets) -> ReduceBatch.  One call
#: covers the key groups of a bucket range: ``keys[i]`` is the i-th
#: shuffle key (buckets in order, each in insertion order) and its value
#: group is the flat slice ``values[group_offsets[i]:group_offsets[i + 1]]``
#: (key-major layout — ``len(group_offsets) == len(keys) + 1``).  Key
#: groups are independent: nothing may carry from one group to the next.
#: Must produce exactly what a per-key-group reducer would for the same
#: groups; the equivalence suite holds it to that.
BatchReducer = Callable[[Sequence[object], Sequence[object], Sequence[int]], ReduceBatch]


def chain_outputs(parts: Sequence[Sequence[object]]) -> List[object]:
    """The default ``collect_outputs``: one list, task outputs in task order."""
    return list(chain.from_iterable(parts))


def default_partitioner(key: object, num_reducers: int) -> int:
    """Hadoop's default: stable hash of the key modulo reducer count."""
    if isinstance(key, int) and 0 <= key < num_reducers:
        # Integer keys already in range are used verbatim; this is how the
        # hypercube partitioner addresses components directly.
        return key
    return stable_hash(key, num_reducers)


def estimate_width(value: object) -> int:
    """Serialized-size estimate in bytes for shuffle accounting.

    Mirrors typical Hadoop Writable encodings: 8 bytes per number, the
    character count plus a length header for strings, and the recursive
    sum for tuples/lists with a small container header.
    """
    if value is None:
        return 1
    if isinstance(value, bool):
        return 1
    if isinstance(value, (int, float)):
        return 8
    if isinstance(value, str):
        return 4 + len(value)
    if isinstance(value, bytes):
        return 4 + len(value)
    if isinstance(value, (tuple, list)):
        return 4 + sum(estimate_width(v) for v in value)
    if isinstance(value, dict):
        return 4 + sum(
            estimate_width(k) + estimate_width(v) for k, v in value.items()
        )
    return 16


@dataclass
class MapReduceJobSpec:
    """Everything needed to run one MapReduce job on the simulator.

    ``mapper`` / ``reducer`` / ``partitioner`` are the paper's programming
    model and all a user-written job declares.  The runtime itself runs
    batches only: :meth:`batched_mapper` / :meth:`batched_reducer` hand it
    ``batch_mapper`` / ``batch_reducer`` when a job ships them (the join
    builders do) and the per-record form lifted by :func:`lift_mapper` /
    :func:`lift_reducer` otherwise (the calibration shuffle probe, the
    shares mapper, user jobs).
    """

    name: str
    inputs: List[DistributedFile]
    num_reducers: int
    mapper: Optional[Mapper] = None
    reducer: Optional[Reducer] = None
    partitioner: Partitioner = default_partitioner
    #: Width of one output record in bytes; join outputs pass the real
    #: concatenated row width here.
    output_record_width: int = 64
    #: Replication factor for the job's output (1 for intermediates).
    output_replication: int = 1
    #: Optional fixed width for map-output pairs; when 0 the width is
    #: estimated per pair via :func:`estimate_width`.
    pair_width: int = 0
    #: Optional exact width of a map-output *value* in bytes; overrides the
    #: generic estimate.  Join jobs use this to account for schema-declared
    #: row widths (which may be far larger than the in-memory tuples).
    pair_width_fn: Optional[Callable[[object], int]] = None
    #: Vectorized mapper: maps a whole record chunk in one call, returning
    #: pre-bucketed arrays (:class:`MapBatch`).  Preferred over ``mapper``
    #: when both are set; they must then agree exactly (same buckets, same
    #: counters).
    batch_mapper: Optional[BatchMapper] = None
    #: Vectorized reducer: consumes a range of reduce tasks' buckets at
    #: once, key-major (flat value array + group offsets), returning
    #: outputs and per-key-group counters (:class:`ReduceBatch`).
    #: Preferred over ``reducer`` when both are set; they must then agree
    #: exactly.
    batch_reducer: Optional[BatchReducer] = None
    output_name: str = ""
    #: How the runtime joins the reducer calls' ``outputs`` (one per
    #: bucket range, range order) into the job's output records.  A join
    #: returns one position vector per input per call, and names here
    #: their concatenation composed over its input slabs
    #: (``repro.joins.records.compose``).
    collect_outputs: Callable[[Sequence[Sequence[object]]], Sequence[object]] = (
        chain_outputs
    )

    def __post_init__(self) -> None:
        if self.num_reducers < 1:
            raise ExecutionError(
                f"job {self.name!r}: num_reducers must be >= 1, got {self.num_reducers}"
            )
        if not self.inputs:
            raise ExecutionError(f"job {self.name!r}: needs at least one input file")
        if self.mapper is None and self.batch_mapper is None:
            raise ExecutionError(
                f"job {self.name!r}: needs a mapper or a batch_mapper"
            )
        if self.reducer is None and self.batch_reducer is None:
            raise ExecutionError(
                f"job {self.name!r}: needs a reducer or a batch_reducer"
            )
        if not self.output_name:
            self.output_name = f"{self.name}.out"

    def pair_bytes(self, values: Sequence[object]) -> int:
        """Shuffle bytes of the map-output pairs carrying ``values``: the
        fixed ``pair_width`` per pair when set, else a 12-byte header plus
        each value's exact (``pair_width_fn``) or estimated width."""
        if self.pair_width:
            return self.pair_width * len(values)
        return 12 * len(values) + sum(map(self.pair_width_fn or estimate_width, values))

    def batched_mapper(self) -> BatchMapper:
        return self.batch_mapper or lift_mapper(self)

    def batched_reducer(self) -> BatchReducer:
        return self.batch_reducer or lift_reducer(self)

    @property
    def input_bytes(self) -> int:
        return sum(f.size_bytes for f in self.inputs)

    @property
    def input_records(self) -> int:
        return sum(f.num_records for f in self.inputs)


def lift_mapper(spec: MapReduceJobSpec) -> BatchMapper:
    """``spec.mapper`` + ``spec.partitioner`` as a batch mapper: one call
    per record in chunk order, every pair routed (and the route checked)
    as it is emitted.  ``ctx.record_index`` is the record's position in
    its input file, whichever chunk it fell into."""
    mapper, partition, num_reducers = spec.mapper, spec.partitioner, spec.num_reducers
    assert mapper is not None

    def batch_mapper(tag: str, records: Sequence[object], base_index: int) -> MapBatch:
        buckets: List[Dict[object, List[object]]] = [{} for _ in range(num_reducers)]
        emitted: List[object] = []
        ctx = TaskContext()
        for position, record in enumerate(records, base_index):
            ctx.record_index = position
            for key, value in mapper(tag, record, ctx):
                index = partition(key, num_reducers)
                if not 0 <= index < num_reducers:
                    raise ExecutionError(
                        f"job {spec.name!r}: partitioner returned {index} "
                        f"outside [0, {num_reducers})"
                    )
                buckets[index].setdefault(key, []).append(value)
                emitted.append(value)
        return MapBatch(buckets, len(emitted), spec.pair_bytes(emitted))

    return batch_mapper


def lift_reducer(spec: MapReduceJobSpec) -> BatchReducer:
    """``spec.reducer`` as a batch reducer: one call per key group in
    order, each with a fresh :class:`TaskContext`; a group's input bytes
    are :meth:`MapReduceJobSpec.pair_bytes` of its values (additive, so
    a bucket's total is that of its values)."""
    reducer = spec.reducer
    assert reducer is not None

    def batch_reducer(
        keys: Sequence[object], values: Sequence[object], offsets: Sequence[int]
    ) -> ReduceBatch:
        outputs: List[object] = []
        comparisons: List[int] = []
        produced: List[int] = []
        input_bytes: List[int] = []
        for position, key in enumerate(keys):
            group = values[offsets[position] : offsets[position + 1]]
            ctx = TaskContext()
            before = len(outputs)
            outputs.extend(reducer(key, group, ctx))  # type: ignore[arg-type]
            comparisons.append(ctx.comparisons)
            produced.append(len(outputs) - before)
            input_bytes.append(spec.pair_bytes(group))
        return ReduceBatch(outputs, comparisons, produced, input_bytes)

    return batch_reducer


@dataclass
class JobResult:
    """Output file plus metrics of one simulated job run."""

    output: DistributedFile
    metrics: "JobMetrics"  # noqa: F821  (imported lazily to avoid a cycle)
