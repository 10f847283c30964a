"""The simulated MapReduce runtime.

Jobs are *really executed* — mappers and reducers run over the actual
records, so join answers are exact — while time is charged according to
the phase structure of the paper's Figure 3:

* Map tasks run in rounds of ``m'`` parallel tasks over ``m`` blocks;
  each task pays sequential read plus spill-write proportional to its
  output (Equation 1).
* The copy (shuffle) phase pays network transfer plus a per-connection
  overhead ``q * n`` for serving ``n`` reduce tasks (Equation 3), and
  overlaps with mapping per Equation 6.
* The reduce phase is dominated by the most loaded reduce task
  (Equation 5); reduce work includes merge I/O, the user-code comparison
  count charged by join reducers, and writing the output.

With ``noise_sigma == 0`` the runtime is deterministic; benchmarks that
need "measured" times distinct from model estimates use a small sigma.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ExecutionError
from repro.mapreduce.backend import get_backend
from repro.mapreduce.cancel import check_cancelled
from repro.mapreduce.config import ClusterConfig, execution_settings
from repro.mapreduce.counters import JobMetrics
from repro.mapreduce.hdfs import DistributedFile
from repro.mapreduce.job import JobResult, MapReduceJobSpec
from repro.utils import ceil_div, make_rng


def _split(count: int, parts: int) -> List[Tuple[int, int]]:
    """``range(count)`` cut into at most ``parts`` contiguous, non-empty
    ``(lo, hi)`` ranges of ``ceil(count / parts)`` items (the last one may
    be shorter): the map phase's chunks of a file, the reduce phase's
    bucket ranges."""
    step = max(1, ceil_div(count, parts))
    return [(lo, min(lo + step, count)) for lo in range(0, count, step)]


def _key_major(
    buckets: Sequence[Dict[object, List[object]]],
) -> Tuple[List[object], List[object], List[int], List[int]]:
    """The buckets' key groups flattened for a batch reducer: shuffle keys
    in bucket and insertion order, one flat value list, the group offsets
    into it — and, per bucket, the number of its first key group."""
    keys: List[object] = []
    flat: List[object] = []
    offsets: List[int] = [0]
    first_group: List[int] = [0]
    for bucket in buckets:
        for key, values in bucket.items():
            keys.append(key)
            flat.extend(values)
            offsets.append(len(flat))
        first_group.append(len(keys))
    return keys, flat, offsets, first_group


class SimulatedCluster:
    """Executes MapReduce jobs with timing; holds its configuration only.

    A job reads the :class:`DistributedFile` inputs its spec carries and
    returns its output in the :class:`JobResult`; the cluster keeps no
    file state, so a task closure that captures it ships config only.
    """

    def __init__(self, config: Optional[ClusterConfig] = None) -> None:
        self.config = config or ClusterConfig()

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def run_job(
        self,
        spec: MapReduceJobSpec,
        map_units: Optional[int] = None,
        reduce_units: Optional[int] = None,
    ) -> JobResult:
        """Execute ``spec``; returns output file + metrics.

        ``map_units`` / ``reduce_units`` bound the parallel task slots the
        job may use, defaulting to the full cluster.  The scheduler passes
        smaller values when several jobs share the cluster.
        """
        units = self.config.total_units
        map_units = units if map_units is None else map_units
        reduce_units = units if reduce_units is None else reduce_units
        if map_units < 1 or reduce_units < 1:
            raise ExecutionError(f"job {spec.name!r}: units must be >= 1")
        map_units = min(units, map_units)
        reduce_units = min(units, reduce_units)
        if spec.num_reducers > units:
            raise ExecutionError(
                f"job {spec.name!r}: {spec.num_reducers} reducers exceed the "
                f"cluster's {units} processing units"
            )

        metrics = JobMetrics(job_name=spec.name)
        metrics.input_bytes = spec.input_bytes
        metrics.input_records = spec.input_records
        metrics.num_reduce_tasks = spec.num_reducers

        # Cooperative cancellation checkpoints: a serve-session deadline
        # or cancel fires between phases (and between the independent
        # work items inside each phase), never mid-record.
        check_cancelled()
        buckets = self._run_map_phase(spec, metrics)
        check_cancelled()
        output_records, reducer_costs = self._run_reduce_phase(spec, buckets, metrics)
        self._charge_time(spec, metrics, map_units, reduce_units, reducer_costs)

        output = DistributedFile(
            name=spec.output_name,
            records=output_records,
            record_width=spec.output_record_width,
            tag=spec.output_name,
        )
        metrics.output_records = len(output_records)
        metrics.output_bytes = output.size_bytes * spec.output_replication
        return JobResult(output=output, metrics=metrics)

    # ------------------------------------------------------------------
    # phases
    # ------------------------------------------------------------------

    def _run_map_phase(
        self, spec: MapReduceJobSpec, metrics: JobMetrics
    ) -> List[Dict[object, List[object]]]:
        """Run the map tasks, bucket pairs per reducer; fills size counters.

        Each input file is cut into contiguous chunks; the job's batch
        mapper turns a chunk into a pre-bucketed :class:`MapBatch`; batches
        are merged into the global buckets strictly in chunk order, so key
        insertion order and per-key value order — hence reducer iteration
        order, metrics, and answers — are those of one pass over the
        records.  Chunks are independent, which is what lets them shard
        across the selected execution backend (``REPRO_EXEC_BACKEND`` /
        ``REPRO_EXEC_WORKERS``) without changing any output — including
        over TCP to remote worker daemons (``REPRO_WORKERS_ADDRS``),
        whose chunk batches come back pickle-round-tripped but are
        merged by the very same in-order loop.
        """
        block = self.config.hadoop.fs_block_size
        metrics.num_map_tasks = sum(f.blocks(block) for f in spec.inputs)
        if metrics.num_map_tasks == 0:
            raise ExecutionError(f"job {spec.name!r}: all inputs are empty")

        settings = execution_settings()
        fanout = settings.chunk_fanout
        chunks: List[Tuple[str, Sequence[object], int]] = []
        for file in spec.inputs:
            records = file.records
            for lo, hi in _split(len(records), fanout):
                whole = hi - lo == len(records)
                chunks.append((file.tag, records if whole else records[lo:hi], lo))

        batch_mapper = spec.batched_mapper()

        def map_chunk(index: int):
            # Per-chunk cancellation checkpoint: active when the serial
            # backend (or a local fallback) runs chunks on the session
            # thread; a free no-op on pool/dispatcher threads and inside
            # remote workers, where no token scope exists.
            check_cancelled()
            return batch_mapper(*chunks[index])

        backend = get_backend(settings)
        batches = backend.run_tasks(map_chunk, len(chunks))

        buckets: List[Dict[object, List[object]]] = [
            {} for _ in range(spec.num_reducers)
        ]
        pair_count = 0
        pair_bytes = 0
        for batch in batches:  # deterministic: input/chunk order
            if len(batch.buckets) != spec.num_reducers:
                raise ExecutionError(
                    f"job {spec.name!r}: batch mapper produced "
                    f"{len(batch.buckets)} buckets for {spec.num_reducers} reducers"
                )
            pair_count += batch.pair_count
            pair_bytes += batch.pair_bytes
            for index, chunk_bucket in enumerate(batch.buckets):
                if not chunk_bucket:
                    continue
                bucket = buckets[index]
                if not bucket:
                    # First batch to reach this reducer: adopt its groups
                    # wholesale (chunk buckets are fresh, never shared).
                    buckets[index] = chunk_bucket
                    continue
                for key, values in chunk_bucket.items():
                    existing = bucket.get(key)
                    if existing is None:
                        bucket[key] = values
                    else:
                        existing.extend(values)
        metrics.map_output_records = pair_count
        metrics.map_output_bytes = pair_bytes
        metrics.shuffle_bytes = pair_bytes
        return buckets

    def _run_reduce_phase(
        self,
        spec: MapReduceJobSpec,
        buckets: List[Dict[object, List[object]]],
        metrics: JobMetrics,
    ) -> Tuple[Sequence[object], List[float]]:
        """Run the reduce tasks; returns output records and per-task cost
        seconds.

        The buckets are cut into ``chunk_fanout`` contiguous ranges (one
        per worker; one range, so one reducer call per job, when nothing
        runs in parallel).  A range's key groups go to the job's batch
        reducer in one key-major call, and the per-key-group accounting
        of the :class:`ReduceBatch` it returns is summed back per bucket:
        every reduce task gets the input bytes, comparisons and cost of
        its own key groups, whatever range it fell into.  Ranges share
        nothing, so they are dispatched through the execution backend and
        folded in range order — counters, costs and outputs are
        bit-identical on every backend.
        """
        batch_reducer = spec.batched_reducer()
        settings = execution_settings()
        ranges = _split(len(buckets), settings.chunk_fanout)

        def reduce_range(index: int) -> Tuple[Sequence[object], List[Tuple[int, ...]]]:
            # Per-range cancellation checkpoint: active on the session
            # thread (serial, local fallbacks), a no-op on pool threads.
            check_cancelled()
            lo, hi = ranges[index]
            keys, flat, offsets, first_group = _key_major(buckets[lo:hi])
            batch = batch_reducer(keys, flat, offsets)
            # Running totals over the key groups, as Python ints.
            comparisons, produced, input_bytes = (
                [0, *np.cumsum(counts, dtype=np.int64).tolist()]
                for counts in (batch.group_comparisons, batch.group_produced, batch.group_bytes)
            )
            tasks = [
                (
                    input_bytes[b] - input_bytes[a],
                    offsets[b] - offsets[a],
                    comparisons[b] - comparisons[a],
                    produced[b] - produced[a],
                )
                for a, b in zip(first_group, first_group[1:])
            ]
            return batch.outputs, tasks

        parts: List[Sequence[object]] = []
        reducer_costs: List[float] = []
        for outputs, tasks in get_backend(settings).run_tasks(reduce_range, len(ranges)):
            parts.append(outputs)
            for input_bytes, values, comparisons, produced in tasks:
                metrics.reducer_input_bytes.append(input_bytes)
                metrics.reduce_comparisons += comparisons
                reducer_costs.append(
                    self._reduce_task_cost(
                        spec, input_bytes, values, comparisons, produced
                    )
                )
        return spec.collect_outputs(parts), reducer_costs

    def _reduce_task_cost(
        self,
        spec: MapReduceJobSpec,
        input_bytes: int,
        input_values: int,
        comparisons: int,
        produced: int,
    ) -> float:
        """One reduce task's simulated seconds (Equation 5's summand):
        merge-sort I/O on the task's input, user CPU, output write."""
        config = self.config
        merge_passes = self._merge_passes(input_bytes)
        io_time = input_bytes * merge_passes * (
            1.0 / config.disk_read_bytes_s + 1.0 / config.disk_write_bytes_s
        )
        cpu_time = (
            input_values * config.cpu_per_record_s
            + comparisons * config.cpu_per_comparison_s
        )
        write_time = (
            produced
            * spec.output_record_width
            * spec.output_replication
            / config.disk_write_bytes_s
        )
        return io_time + cpu_time + write_time

    def _merge_passes(self, input_bytes: int) -> float:
        """How many times reduce input is re-read/written during merge sort."""
        sort_bytes = self.config.hadoop.io_sort_bytes
        if input_bytes <= sort_bytes:
            return 1.0
        # Each factor-of-io.sort.factor growth adds one merge pass.
        extra = math.log(input_bytes / sort_bytes, self.config.hadoop.io_sort_factor)
        return 1.0 + max(0.0, extra)

    # ------------------------------------------------------------------
    # timing (Figure 3 / Equations 1-6)
    # ------------------------------------------------------------------

    def _charge_time(
        self,
        spec: MapReduceJobSpec,
        metrics: JobMetrics,
        map_units: int,
        reduce_units: int,
        reducer_costs: List[float],
    ) -> None:
        config = self.config
        m = metrics.num_map_tasks
        n = spec.num_reducers
        rounds = ceil_div(m, max(1, map_units))
        metrics.map_rounds = rounds
        metrics.reduce_rounds = ceil_div(n, max(1, reduce_units))

        input_per_task = metrics.input_bytes / m
        output_per_task = metrics.map_output_bytes / m
        records_per_task = metrics.input_records / m

        # Equation 1: sequential read plus spill writes.
        spill_passes = self._spill_passes(output_per_task)
        t_map = (
            input_per_task / config.disk_read_bytes_s
            + output_per_task * spill_passes / config.disk_write_bytes_s
            + records_per_task * config.cpu_per_record_s
        )
        j_map = rounds * t_map

        # Equation 3: copying one map task's output to n reducers.
        t_copy = (
            output_per_task / config.network_bytes_s
            + config.connection_overhead_s * n
        )
        j_copy = rounds * t_copy

        # Equation 5 via real per-reducer costs; the slowest schedule of
        # the reduce tasks over the allotted units bounds JR.
        if reducer_costs:
            j_reduce = max(
                sum(reducer_costs) / max(1, reduce_units), max(reducer_costs)
            )
        else:
            j_reduce = 0.0

        # Equation 6: map and copy overlap; the longer stream dominates.
        if t_map >= t_copy:
            body = j_map + t_copy + j_reduce
        else:
            body = t_map + j_copy + j_reduce

        noise = self._noise_factor(spec.name)
        metrics.map_time_s = j_map * noise
        metrics.copy_time_s = j_copy * noise
        metrics.reduce_time_s = j_reduce * noise
        metrics.startup_time_s = config.job_startup_s
        metrics.total_time_s = (body * noise) + config.job_startup_s

    def _spill_passes(self, map_output_per_task: float) -> float:
        """Spill amplification: the paper's random variable p grows with output."""
        threshold = self.config.hadoop.spill_threshold_bytes
        if map_output_per_task <= threshold:
            return 1.0
        return 1.0 + 0.35 * math.log2(map_output_per_task / threshold)

    def _noise_factor(self, job_name: str) -> float:
        sigma = self.config.noise_sigma
        if sigma <= 0:
            return 1.0
        rng = make_rng("runtime-noise", job_name, round(sigma, 6))
        return math.exp(rng.gauss(0.0, sigma))
