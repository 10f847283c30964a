"""Failure-injection tests: the simulator must fail loudly, not wrongly.

A cost simulator that silently produces bad answers under malformed jobs
would poison every benchmark built on it, so every contract violation —
bad reducer counts, rogue partitioners, crashing user code, unit
under-allocation — must surface as an explicit error, and a partial
failure must leave the cluster usable.
"""

import pytest

from repro.errors import ExecutionError
from repro.mapreduce.config import ClusterConfig
from repro.mapreduce.hdfs import DistributedFile
from repro.mapreduce.job import MapBatch, MapReduceJobSpec, ReduceBatch, TaskContext
from repro.mapreduce.runtime import SimulatedCluster


def small_file(name: str = "input", rows: int = 10) -> DistributedFile:
    return DistributedFile(
        name=name,
        records=[(i, i * 3) for i in range(rows)],
        record_width=16,
        tag=name,
    )


def identity_spec(file: DistributedFile, **overrides) -> MapReduceJobSpec:
    def mapper(tag, record, ctx):
        yield record[0] % 4, record

    def reducer(key, values, ctx):
        for value in values:
            yield value

    settings = dict(
        name="probe",
        inputs=[file],
        mapper=mapper,
        reducer=reducer,
        num_reducers=4,
    )
    settings.update(overrides)
    return MapReduceJobSpec(**settings)


class TestSpecValidation:
    def test_zero_reducers_rejected(self):
        with pytest.raises(ExecutionError):
            identity_spec(small_file(), num_reducers=0)

    def test_no_inputs_rejected(self):
        with pytest.raises(ExecutionError):
            identity_spec(small_file(), inputs=[])

    def test_missing_map_side_rejected(self):
        with pytest.raises(ExecutionError, match="mapper or a batch_mapper"):
            identity_spec(small_file(), mapper=None)

    def test_missing_reduce_side_rejected(self):
        with pytest.raises(ExecutionError, match="reducer or a batch_reducer"):
            identity_spec(small_file(), reducer=None)

    def test_batch_only_spec_accepted(self):
        """Either form of each phase is enough (the join builders ship
        only the batch forms)."""
        spec = identity_spec(
            small_file(),
            mapper=None,
            reducer=None,
            batch_mapper=lambda tag, records, base: MapBatch(
                [{0: list(records)}, {}, {}, {}], len(records), 16 * len(records)
            ),
            batch_reducer=lambda keys, values, offsets: ReduceBatch(
                list(values), [0] * len(keys), [0] * len(keys), [0] * len(keys)
            ),
        )
        result = SimulatedCluster().run_job(spec)
        assert result.output.records == small_file().records

    def test_negative_comparison_charge_rejected(self):
        ctx = TaskContext()
        with pytest.raises(ExecutionError):
            ctx.charge_comparisons(-1)


class TestRuntimeContracts:
    def test_more_reducers_than_units_rejected(self):
        cluster = SimulatedCluster(ClusterConfig().with_units(2))
        spec = identity_spec(small_file(), num_reducers=4)
        with pytest.raises(ExecutionError, match="exceed"):
            cluster.run_job(spec)

    def test_zero_units_rejected(self):
        cluster = SimulatedCluster()
        spec = identity_spec(small_file())
        with pytest.raises(ExecutionError):
            cluster.run_job(spec, map_units=0)

    def test_empty_input_rejected(self):
        cluster = SimulatedCluster()
        spec = identity_spec(small_file(rows=10))
        spec.inputs = [
            DistributedFile(name="empty", records=[], record_width=16, tag="e")
        ]
        with pytest.raises(ExecutionError, match="empty"):
            cluster.run_job(spec)

    def test_rogue_partitioner_detected(self):
        cluster = SimulatedCluster()
        spec = identity_spec(
            small_file(), partitioner=lambda key, n: n + 3  # out of range
        )
        with pytest.raises(ExecutionError, match="outside"):
            cluster.run_job(spec)

    def test_negative_partitioner_detected(self):
        cluster = SimulatedCluster()
        spec = identity_spec(small_file(), partitioner=lambda key, n: -1)
        with pytest.raises(ExecutionError, match="outside"):
            cluster.run_job(spec)


class TestUserCodeCrashes:
    def test_mapper_exception_propagates(self):
        cluster = SimulatedCluster()

        def bad_mapper(tag, record, ctx):
            raise RuntimeError("mapper bug")
            yield  # pragma: no cover

        spec = identity_spec(small_file())
        spec.mapper = bad_mapper
        with pytest.raises(RuntimeError, match="mapper bug"):
            cluster.run_job(spec)

    def test_reducer_exception_propagates(self):
        cluster = SimulatedCluster()

        def bad_reducer(key, values, ctx):
            raise ValueError("reducer bug")
            yield  # pragma: no cover

        spec = identity_spec(small_file())
        spec.reducer = bad_reducer
        with pytest.raises(ValueError, match="reducer bug"):
            cluster.run_job(spec)

    def test_failed_job_does_not_publish_output(self):
        """A crashed job returns no output and leaves no state behind."""
        cluster = SimulatedCluster()

        def bad_reducer(key, values, ctx):
            raise ValueError("boom")
            yield  # pragma: no cover

        spec = identity_spec(small_file(), output_name="crash.out")
        spec.reducer = bad_reducer
        with pytest.raises(ValueError):
            cluster.run_job(spec)
        assert vars(cluster) == {"config": cluster.config}


class TestRecoveryAfterFailure:
    def test_cluster_usable_after_failed_job(self):
        cluster = SimulatedCluster()

        def bad_mapper(tag, record, ctx):
            raise RuntimeError("first job dies")
            yield  # pragma: no cover

        bad = identity_spec(small_file("in1"), output_name="bad.out")
        bad.mapper = bad_mapper
        with pytest.raises(RuntimeError):
            cluster.run_job(bad)

        good = identity_spec(small_file("in2"), name="good")
        result = cluster.run_job(good)
        assert result.metrics.output_records == 10
        assert len(result.output.records) == 10
