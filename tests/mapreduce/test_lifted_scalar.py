"""Per-record jobs run through the batch-only runtime unchanged.

``MapReduceJobSpec(mapper=..., reducer=...)`` is lifted at run time by
``job.lift_mapper`` / ``job.lift_reducer``; the runtime has no per-record
loop of its own.  The three jobs below cover the three spellings of the
shuffle-byte rule (fixed ``pair_width``: the calibration shuffle probe;
``pair_width_fn``: the shares join, whose mapper is per-record and whose
reducer is a batch; neither: a word count on ``estimate_width``).  Their
golden values were recorded from the last commit whose runtime still had
the per-record loops (4bde228), on the serial backend; every backend must
reproduce them bit for bit.
"""

import hashlib
from dataclasses import asdict

import pytest

import conformance
from repro.core.calibration import make_shuffle_probe_job
from repro.joins.records import relation_to_composite_file
from repro.joins.shares import make_shares_join_job
from repro.mapreduce.backend import close_backends
from repro.mapreduce.hdfs import DistributedFile
from repro.mapreduce.job import MapReduceJobSpec
from repro.mapreduce.runtime import SimulatedCluster
from repro.relational.predicates import JoinCondition
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.utils import make_rng


def shuffle_probe(cluster):
    return make_shuffle_probe_job(40, 4, 8, 1024, seed=7)


def shares_join(cluster):
    relations = {}
    for alias in "abc":
        rng = make_rng("lifted-scalar", alias)
        relations[alias] = Relation(
            alias.upper(),
            Schema.of("id:int", "x:int", "y:int"),
            [(i, rng.randint(0, 4), rng.randint(0, 4)) for i in range(18)],
        )
    conditions = [
        JoinCondition.parse(1, "a.x = b.x"),
        JoinCondition.parse(2, "b.y = c.y"),
    ]
    files = [relation_to_composite_file(relations[a], a) for a in sorted(relations)]
    schemas = {alias: relation.schema for alias, relation in relations.items()}
    return make_shares_join_job(
        "shares", files, conditions, schemas, total_reducers=4, shares=(2, 2)
    )


def word_count(cluster):
    words = [(f"w{i % 7}", i) for i in range(60)]

    def mapper(tag, record, ctx):
        yield record[0], (record[1], ctx.record_index)

    def reducer(key, values, ctx):
        ctx.charge_comparisons(len(values))
        yield key, sum(v[0] for v in values), [v[1] for v in values]

    return MapReduceJobSpec(
        name="wordcount",
        inputs=[DistributedFile("words", words, 16, tag="words")],
        mapper=mapper,
        reducer=reducer,
        num_reducers=3,
    )


#: job -> (map output records, shuffle bytes, reduce comparisons, reducer
#: input bytes, output records, total simulated seconds, sha256 over every
#: metric and every output record in order), recorded at 4bde228.
GOLDEN = {
    shuffle_probe: (
        160, 165760, 0, [19684, 13468, 24864, 27972, 27972, 15540, 18648, 17612],
        0, 6.110919525734287,
        "fbbcd9e11ea6e2b5db4beeae0e065c84d2e2ae5f50140861fef28e0443f97fc5",
    ),
    shares_join: (
        90, 5850, 1056, [845, 2275, 780, 1950], 223, 6.049345038053402,
        "48480c2d9fd1b2c1b05a16e3fecfc84b2210b28ae7bd3532058a53ae8794a99a",
    ),
    word_count: (
        60, 1920, 60, [0, 1120, 800], 7, 6.0362879342905655,
        "df672c47952c008d581cddb846d58d57e082c230b553995890710c5673a45116",
    ),
}


def observe(build):
    cluster = SimulatedCluster()
    result = cluster.run_job(build(cluster))
    metrics = result.metrics
    text = repr((sorted(asdict(metrics).items()), list(result.output.records)))
    return (
        metrics.map_output_records,
        metrics.shuffle_bytes,
        metrics.reduce_comparisons,
        metrics.reducer_input_bytes,
        len(result.output.records),
        metrics.total_time_s,
        hashlib.sha256(text.encode()).hexdigest(),
    )


@pytest.fixture(autouse=True)
def _clean_pools():
    yield
    close_backends()


@pytest.mark.parametrize("build", list(GOLDEN), ids=lambda build: build.__name__)
@pytest.mark.parametrize("backend", conformance.BACKENDS)
def test_lifted_job_reproduces_the_scalar_runtime(backend, build):
    # "distributed" with no worker address: every batch takes the local
    # fallback, which must be the same arithmetic.
    with conformance.execution_env(
        REPRO_EXEC_BACKEND=backend, REPRO_EXEC_WORKERS="2", REPRO_WORKERS_ADDRS=None
    ):
        assert observe(build) == GOLDEN[build]


if __name__ == "__main__":  # prints the table above
    for job in GOLDEN:
        print(f"    {job.__name__}: {observe(job)!r},")
