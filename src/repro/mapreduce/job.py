"""MapReduce job specifications for the simulated cluster.

A job is defined exactly the way the paper's programming model describes:
a mapper transforming input records into (key, value) pairs, a partitioner
routing keys to one of ``num_reducers`` reduce tasks, and a reducer
producing output records from each key group.  The reduce-task count is
the single user-supplied scheduling parameter RN(MRJ) the paper optimises.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import ExecutionError
from repro.mapreduce.hdfs import DistributedFile
from repro.utils import stable_hash


class TaskContext:
    """Handed to mapper/reducer callables for cost accounting.

    Reduce-side join implementations call :meth:`charge_comparisons` for
    every candidate tuple combination they test; the runtime converts the
    count into simulated CPU time, which is how reducer-workload balance
    (the paper's core concern) becomes visible in the makespan.
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
    task ``r``, keyed by shuffle key with values in emission order —
    exactly the structure the scalar map loop builds pair by pair, so the
    runtime merges chunk batches with dict/list extends instead of
    re-routing every pair.  ``pair_count``/``pair_bytes`` carry the
    chunk's map-output counters (bytes include the 12-byte per-pair
    header the scalar path charges).
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
    """Batched reduce output for one whole reduce task (bucket).

    ``outputs`` holds the task's output records in the exact order the
    scalar reducer would emit them (key groups in bucket insertion order,
    records in emission order within a group); ``comparisons`` is the
    total the scalar reducer would charge via
    :meth:`TaskContext.charge_comparisons` over the same bucket.  When a
    batch reducer knows its value widths statically it may also fill
    ``input_bytes`` (the scalar path's per-value width sum, computed
    arithmetically); leaving it ``None`` makes the runtime derive it the
    scalar way.
    """

    outputs: List[object]
    comparisons: int
    input_bytes: Optional[int] = None


#: batch_reducer(keys, values, group_offsets) -> ReduceBatch.  One call
#: covers one whole reduce task: ``keys[i]`` is the i-th shuffle key in
#: bucket insertion order and its value group is the flat slice
#: ``values[group_offsets[i]:group_offsets[i + 1]]`` (key-major layout —
#: ``len(group_offsets) == len(keys) + 1``).  Must produce exactly what
#: a per-key-group reducer would for the same bucket; the equivalence
#: suite holds it to that.
BatchReducer = Callable[[Sequence[object], Sequence[object], Sequence[int]], ReduceBatch]


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

    Each phase needs one callable and may carry both forms: the runtime
    runs ``batch_mapper`` / ``batch_reducer`` when present and the
    per-record ``mapper`` / per-key-group ``reducer`` otherwise.  The join
    builders provide only batch forms; the calibration shuffle probe, the
    shares mapper and user-written jobs use the scalar ones.
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
    #: Vectorized reducer: consumes a whole reduce task's bucket at once,
    #: key-major (flat value array + group offsets), returning outputs and
    #: counters (:class:`ReduceBatch`).  Preferred over ``reducer`` when
    #: both are set; they must then agree exactly.
    batch_reducer: Optional[BatchReducer] = None
    output_name: str = ""

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

    @property
    def input_bytes(self) -> int:
        return sum(f.size_bytes for f in self.inputs)

    @property
    def input_records(self) -> int:
        return sum(f.num_records for f in self.inputs)


@dataclass
class JobResult:
    """Output file plus metrics of one simulated job run."""

    output: DistributedFile
    metrics: "JobMetrics"  # noqa: F821  (imported lazily to avoid a cycle)
