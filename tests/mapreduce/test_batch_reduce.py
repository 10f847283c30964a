"""Tests for the batched reduce phase of the runtime.

Mirrors ``test_batch_map.py``: a job whose ``batch_reducer`` reproduces
its scalar ``reducer`` must yield bit-identical outputs, counters, and
per-task costs through both paths, and the runtime must hand the batch
reducer the documented key-major layout (keys in bucket insertion order,
flat values, group offsets).
"""

import dataclasses

from repro.mapreduce.config import ClusterConfig
from repro.mapreduce.counters import JobMetrics
from repro.mapreduce.hdfs import DistributedFile
from repro.mapreduce.job import (
    MapReduceJobSpec,
    ReduceBatch,
    TaskContext,
)
from repro.mapreduce.runtime import SimulatedCluster


def make_spec(num_records=100, num_reducers=4, with_batch=True, input_bytes=False):
    """A counting job whose batch reducer mirrors its scalar reducer."""
    records = [f"rec-{i}" for i in range(num_records)]
    file = DistributedFile(name="in", records=records, record_width=64, tag="in")

    def mapper(tag, record, ctx):
        yield ctx.record_index % 7, record

    def reducer(key, values, ctx):
        ctx.charge_comparisons(len(values))
        yield (key, len(values))
        if len(values) > 10:
            yield (key, "big")

    def batch_reducer(keys, values, offsets):
        outputs = []
        comparisons = 0
        for g, key in enumerate(keys):
            count = offsets[g + 1] - offsets[g]
            comparisons += count
            outputs.append((key, count))
            if count > 10:
                outputs.append((key, "big"))
        extra = None
        if input_bytes:
            # The scalar path's per-value estimate, computed arithmetically:
            # every record is "rec-<i>" (4 + len bytes) plus the 12-byte
            # pair header.
            extra = sum(12 + 4 + len(v) for v in values)
        return ReduceBatch(outputs, comparisons, extra)

    return MapReduceJobSpec(
        name="batchy-reduce",
        inputs=[file],
        mapper=mapper,
        reducer=reducer,
        num_reducers=num_reducers,
        batch_reducer=batch_reducer if with_batch else None,
    )


def run_reduce(spec):
    cluster = SimulatedCluster(ClusterConfig())
    metrics = JobMetrics(job_name=spec.name)
    buckets = cluster._run_map_phase(
        dataclasses.replace(spec, batch_reducer=None), metrics
    )
    outputs, costs = cluster._run_reduce_phase(spec, buckets, metrics)
    return outputs, costs, metrics


class TestBatchedReducePhase:
    def test_matches_scalar_path(self):
        batched_out, batched_costs, batched_metrics = run_reduce(make_spec())
        scalar_out, scalar_costs, scalar_metrics = run_reduce(
            make_spec(with_batch=False)
        )
        assert batched_out == scalar_out
        assert batched_costs == scalar_costs
        assert batched_metrics.reducer_input_bytes == scalar_metrics.reducer_input_bytes
        assert batched_metrics.reduce_comparisons == scalar_metrics.reduce_comparisons

    def test_precomputed_input_bytes_match_scalar(self):
        batched_out, batched_costs, batched_metrics = run_reduce(
            make_spec(input_bytes=True)
        )
        scalar_out, scalar_costs, scalar_metrics = run_reduce(
            make_spec(with_batch=False)
        )
        assert batched_out == scalar_out
        assert batched_costs == scalar_costs
        assert batched_metrics.reducer_input_bytes == scalar_metrics.reducer_input_bytes

    def test_key_major_layout(self, monkeypatch):
        """The runtime must flatten each bucket key-major: keys in bucket
        insertion order, one contiguous value span per key.

        Observes the reducer's calls through a parent-side list, which
        only works in-process — pin the serial backend so the test stays
        valid under a ``REPRO_EXEC_BACKEND=process`` run of the suite.
        """
        monkeypatch.setenv("REPRO_EXEC_BACKEND", "serial")
        seen = []

        def recording_reducer(keys, values, offsets):
            assert len(offsets) == len(keys) + 1
            assert offsets[0] == 0 and offsets[-1] == len(values)
            seen.append(
                {
                    key: list(values[offsets[g] : offsets[g + 1]])
                    for g, key in enumerate(keys)
                }
            )
            return ReduceBatch([], 0)

        spec = dataclasses.replace(make_spec(), batch_reducer=recording_reducer)
        cluster = SimulatedCluster(ClusterConfig())
        metrics = JobMetrics(job_name=spec.name)
        buckets = cluster._run_map_phase(
            dataclasses.replace(spec, batch_mapper=None, batch_reducer=None), metrics
        )
        cluster._run_reduce_phase(spec, buckets, metrics)
        assert seen == [
            {key: values for key, values in bucket.items()} for bucket in buckets
        ]
        for batch_view, bucket in zip(seen, buckets):
            assert list(batch_view) == list(bucket)  # key order too

    def test_full_job_identical_result(self):
        cluster = SimulatedCluster(ClusterConfig())
        batched = cluster.run_job(make_spec())
        scalar = SimulatedCluster(ClusterConfig()).run_job(make_spec(with_batch=False))
        assert batched.output.records == scalar.output.records
        assert batched.metrics.total_time_s == scalar.metrics.total_time_s
        assert batched.metrics.reduce_time_s == scalar.metrics.reduce_time_s
        assert (
            batched.metrics.reducer_input_bytes == scalar.metrics.reducer_input_bytes
        )

    def test_scalar_reducer_still_runs_without_batch(self):
        outputs, costs, metrics = run_reduce(make_spec(with_batch=False))
        assert outputs and costs
        assert metrics.reduce_comparisons > 0

    def test_task_context_unused_by_batch_path(self):
        """The batched path accounts comparisons through ReduceBatch, not
        TaskContext; a stray context must not leak across buckets."""
        ctx = TaskContext()
        assert ctx.comparisons == 0
        _, _, metrics = run_reduce(make_spec())
        assert ctx.comparisons == 0
        assert metrics.reduce_comparisons == 100  # one per input record
