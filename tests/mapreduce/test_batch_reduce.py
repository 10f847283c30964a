"""Tests for the batched reduce phase of the runtime.

Mirrors ``test_batch_map.py``: a job whose ``batch_reducer`` reproduces
its scalar ``reducer`` must yield bit-identical outputs, counters, and
per-task costs through both paths.  The runtime cuts the buckets into one
contiguous range per worker and makes one reducer call per range, with
the documented key-major layout (keys of consecutive buckets in bucket
order, flat values, group offsets); the per-key-group accounting it gets
back is summed per bucket, so every reduce task is charged exactly what
one call over its bucket alone would charge — on every backend.
"""

import dataclasses
import threading
from functools import lru_cache

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.executor import PlanExecutor
from repro.core.partitioner import HypercubePartitioner
from repro.core.planner import ThetaJoinPlanner
from repro.joins.jobs import make_hypercube_join_job
from repro.joins.records import relation_to_composite_file
from repro.mapreduce.backend import close_backends
from repro.mapreduce.config import PAPER_CLUSTER_KP64, ClusterConfig, settings_scope
from repro.mapreduce.counters import JobMetrics
from repro.mapreduce.hdfs import DistributedFile
from repro.mapreduce.job import MapReduceJobSpec, ReduceBatch, TaskContext
from repro.mapreduce.runtime import SimulatedCluster, _key_major
from repro.relational.predicates import JoinCondition
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.workloads.synthetic import chain_query


def record_bytes(value):
    """The scalar path's per-value estimate: every record is "rec-<i>"
    (4 + len bytes) plus the 12-byte pair header."""
    return 12 + 4 + len(value)


def make_spec(num_records=100, num_reducers=4, with_batch=True):
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
        outputs, comparisons, produced, input_bytes = [], [], [], []
        for g, key in enumerate(keys):
            count = offsets[g + 1] - offsets[g]
            comparisons.append(count)
            outputs.append((key, count))
            if count > 10:
                outputs.append((key, "big"))
            produced.append(2 if count > 10 else 1)
            # Filled arithmetically, per key group.
            group = values[offsets[g] : offsets[g + 1]]
            input_bytes.append(sum(record_bytes(v) for v in group))
        return ReduceBatch(outputs, comparisons, produced, input_bytes)

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


def backend_scope(backend, workers):
    return settings_scope(
        {"REPRO_EXEC_BACKEND": backend, "REPRO_EXEC_WORKERS": str(workers)}
    )


@pytest.fixture(scope="module", autouse=True)
def _shutdown_pools():
    yield
    close_backends()


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
        """Per-group bytes filled arithmetically equal the lifted scalar
        reducer's ``pair_bytes`` per group, group by group and summed
        per reduce task."""
        spec = make_spec()
        metrics = JobMetrics(job_name=spec.name)
        buckets = SimulatedCluster(ClusterConfig())._run_map_phase(spec, metrics)
        keys, flat, offsets, _first = _key_major(buckets)
        batched = spec.batch_reducer(keys, flat, offsets)
        lifted = dataclasses.replace(spec, batch_reducer=None).batched_reducer()(
            keys, flat, offsets
        )
        assert list(batched.group_bytes) == list(lifted.group_bytes)
        assert list(batched.group_comparisons) == list(lifted.group_comparisons)
        assert list(batched.group_produced) == list(lifted.group_produced)
        assert batched.outputs == lifted.outputs

        _, batched_costs, batched_metrics = run_reduce(spec)
        _, scalar_costs, scalar_metrics = run_reduce(make_spec(with_batch=False))
        assert batched_costs == scalar_costs
        assert batched_metrics.reducer_input_bytes == scalar_metrics.reducer_input_bytes

    @pytest.mark.parametrize("backend,workers", [("serial", 1), ("thread", 2)])
    def test_key_major_layout(self, backend, workers):
        """One reducer call per bucket range: its keys are those of
        consecutive buckets in bucket order (insertion order within a
        bucket), one contiguous value span per key.

        Observes the calls through a parent-side list, which only works
        in-process — hence serial and thread."""
        seen = []
        lock = threading.Lock()

        def recording_reducer(keys, values, offsets):
            assert len(offsets) == len(keys) + 1
            assert offsets[0] == 0 and offsets[-1] == len(values)
            with lock:
                seen.append(
                    [
                        (key, list(values[offsets[g] : offsets[g + 1]]))
                        for g, key in enumerate(keys)
                    ]
                )
            zeros = [0] * len(keys)
            return ReduceBatch([], zeros, zeros, zeros)

        spec = dataclasses.replace(make_spec(), batch_reducer=recording_reducer)
        cluster = SimulatedCluster(ClusterConfig())
        metrics = JobMetrics(job_name=spec.name)
        buckets = cluster._run_map_phase(
            dataclasses.replace(spec, batch_reducer=None), metrics
        )
        with backend_scope(backend, workers):
            cluster._run_reduce_phase(spec, buckets, metrics)
        per_range = len(buckets) // workers
        expected = [
            [
                (key, values)
                for bucket in buckets[lo : lo + per_range]
                for key, values in bucket.items()
            ]
            for lo in range(0, len(buckets), per_range)
        ]
        assert len(seen) == workers
        assert sorted(seen) == sorted(expected)

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


# ----------------------------------------------------------------------
# bucket ranges: any split, any backend, the one-call-per-bucket numbers
# ----------------------------------------------------------------------


def scalar_spec(num_reducers):
    """A lifted per-record job whose reducer charges and emits unevenly."""

    def reducer(key, values, ctx):
        ctx.charge_comparisons(len(values) * (key % 3))
        for value in values[: key % 4]:
            yield key, value

    return MapReduceJobSpec(
        name="ranges-scalar",
        inputs=[DistributedFile("in", ["x"], 8, tag="in")],
        mapper=lambda tag, record, ctx: (),
        reducer=reducer,
        num_reducers=num_reducers,
    )


ROW = Schema.of("id:int", "v:int")


@lru_cache(maxsize=None)
def join_case(num_reducers):
    """A hypercube theta-join (range probe + ownership filter) and its
    real map-phase buckets."""
    a = Relation("A", ROW, [(i, (i * 37) % 23) for i in range(24)])
    b = Relation("B", ROW, [(i, (i * 11) % 19) for i in range(20)])
    spec = make_hypercube_join_job(
        "ranges-join",
        [relation_to_composite_file(a, "a"), relation_to_composite_file(b, "b")],
        HypercubePartitioner([len(a), len(b)], num_reducers),
        [JoinCondition.parse(1, "a.v <= b.v")],
        {"a": ROW, "b": ROW},
    )
    metrics = JobMetrics(job_name=spec.name)
    buckets = SimulatedCluster(PAPER_CLUSTER_KP64)._run_map_phase(spec, metrics)
    return spec, buckets


@st.composite
def reduce_cases(draw):
    """``(kind, spec, buckets)``: a drawn bucket layout (empty buckets
    anywhere) for the lifted scalar reducer or the join reducer."""
    kind = draw(st.sampled_from(["scalar", "join"]))
    if kind == "scalar":
        buckets = draw(
            st.lists(
                st.dictionaries(
                    st.integers(0, 9), st.lists(st.integers(0, 99), max_size=5),
                    max_size=4,
                ),
                min_size=1,
                max_size=9,
            )
        )
        return kind, scalar_spec(len(buckets)), buckets
    spec, buckets = join_case(draw(st.sampled_from([1, 2, 3, 6])))
    blank = draw(st.lists(st.booleans(), min_size=len(buckets), max_size=len(buckets)))
    return kind, spec, [{} if empty else dict(b) for b, empty in zip(buckets, blank)]


def per_bucket_reference(cluster, spec, buckets):
    """Outputs, per-task input bytes, comparisons and costs of one reducer
    call per bucket."""
    reducer = spec.batched_reducer()
    parts, input_bytes, comparisons, costs = [], [], 0, []
    for bucket in buckets:
        keys, flat, offsets, _first = _key_major([bucket])
        batch = reducer(keys, flat, offsets)
        task_bytes = int(sum(batch.group_bytes))
        task_comparisons = int(sum(batch.group_comparisons))
        produced = int(sum(batch.group_produced))
        assert produced == len(spec.collect_outputs([batch.outputs]))
        parts.append(batch.outputs)
        input_bytes.append(task_bytes)
        comparisons += task_comparisons
        costs.append(
            cluster._reduce_task_cost(
                spec, task_bytes, len(flat), task_comparisons, produced
            )
        )
    return spec.collect_outputs(parts), input_bytes, comparisons, costs


def collect_ranges(spec, buckets, edges):
    """The job's output from one reducer call per range ``[edges[i],
    edges[i + 1])`` of the buckets, collected in range order."""
    reducer = spec.batched_reducer()
    parts = []
    for lo, hi in zip(edges, edges[1:]):
        keys, flat, offsets, _first = _key_major(buckets[lo:hi])
        parts.append(reducer(keys, flat, offsets).outputs)
    return spec.collect_outputs(parts)


def assert_same_output(kind, got, want):
    """Same records in the same order; a join's slab also over the same
    cover, the very same base tables and equal index vectors."""
    assert list(got) == list(want), kind
    if kind == "join":
        assert got.cover == want.cover
        assert all(a is b for a, b in zip(got.tables, want.tables))
        assert [at.tolist() for at in got.index] == [at.tolist() for at in want.index]


# Empty buckets at the start, middle and end of a range, under every
# split: ranges [0, 3) and [3, 6) at two workers, one range serially.
EDGES = [{}, {1: [5, 6]}, {}, {2: [7]}, {}, {}]


@pytest.mark.parametrize("backend,workers", [("serial", 1), ("thread", 2), ("process", 2)])
@given(case=reduce_cases())
@example(case=("scalar", scalar_spec(1), [{5: [1, 2, 3]}]))  # one bucket
@example(case=("scalar", scalar_spec(6), EDGES))
@example(case=("scalar", scalar_spec(3), [{}, {}, {}]))
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_ranges_account_like_one_call_per_bucket(backend, workers, case):
    kind, spec, buckets = case
    cluster = SimulatedCluster(PAPER_CLUSTER_KP64)
    metrics = JobMetrics(job_name=spec.name)
    with backend_scope(backend, workers):
        outputs, costs = cluster._run_reduce_phase(spec, buckets, metrics)
    want_outputs, want_bytes, want_comparisons, want_costs = per_bucket_reference(
        cluster, spec, buckets
    )
    assert_same_output(kind, outputs, want_outputs)
    assert metrics.reducer_input_bytes == want_bytes
    assert all(type(b) is int for b in metrics.reducer_input_bytes)
    assert metrics.reduce_comparisons == want_comparisons
    assert costs == want_costs


@given(case=reduce_cases(), cuts=st.sets(st.integers(1, 8), max_size=8))
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_collecting_any_split_into_ranges_gives_the_one_range_output(case, cuts):
    """1, 2, ..., one-per-bucket ranges: the collected output is the one
    range's, for a join the same slab."""
    kind, spec, buckets = case
    whole = collect_ranges(spec, buckets, [0, len(buckets)])
    edges = [0, *sorted(cut for cut in cuts if cut < len(buckets)), len(buckets)]
    assert_same_output(kind, collect_ranges(spec, buckets, edges), whole)


def test_chain_job_calls_the_reducer_once_per_worker(monkeypatch):
    """A 64-reducer hypercube job under thread×2 makes at most two
    reducer calls, not 64."""
    calls = []
    lock = threading.Lock()
    batched_reducer = MapReduceJobSpec.batched_reducer

    def counting(spec):
        reducer = batched_reducer(spec)

        def counted(keys, values, offsets):
            with lock:
                calls.append(spec.name)
            return reducer(keys, values, offsets)

        return counted

    monkeypatch.setattr(MapReduceJobSpec, "batched_reducer", counting)
    query = chain_query(3, rows=120, selectivity=0.05, seed=3)
    plan = ThetaJoinPlanner(PAPER_CLUSTER_KP64).plan(query)
    with backend_scope("thread", 2):
        report = PlanExecutor(SimulatedCluster(PAPER_CLUSTER_KP64)).execute(
            plan, query
        ).report
    assert [m.num_reduce_tasks for m in report.job_metrics] == [64]
    assert 1 <= len(calls) <= 2
