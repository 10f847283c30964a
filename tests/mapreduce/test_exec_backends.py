"""Backend equivalence grid: serial vs thread vs process vs distributed.

All grid/digest/driver logic lives in :mod:`conformance` (shared with the
fault-injection suite); this file is just the parameterization: every
planner × every grid query × every parallel backend must reproduce the
serial digest bit for bit.  The distributed leg runs against two real
``repro worker serve`` daemons spawned for the module, and a final guard
asserts the leg actually dispatched remotely (a pool that silently
degraded to serial would make the whole leg vacuous).  The warm-vs-cold
test is the PR 8 acceptance criterion: re-running an identical query
against a warm worker blob store must ship at least 10x fewer payload
bytes.
"""

import pytest

import conformance
from repro.core.executor import PlanExecutor, lift_base_relation
from repro.joins.reference import reference_join
from repro.mapreduce.backend import close_backends, live_distributed_backend
from repro.mapreduce.config import PAPER_CLUSTER_KP64
from repro.mapreduce.runtime import SimulatedCluster

PARALLEL_BACKENDS = ("thread", "process", "distributed")


@pytest.fixture(scope="module")
def distributed_workers(tmp_path_factory):
    # Daemons inherit REPRO_CACHE_DIR at spawn, so the module pool's blob
    # tier lives in a throwaway directory, not the user's cache.
    cache_dir = tmp_path_factory.mktemp("worker-blob-cache")
    with conformance.execution_env(REPRO_CACHE_DIR=str(cache_dir)):
        with conformance.worker_pool(2) as addrs:
            yield addrs


@pytest.fixture(scope="module", autouse=True)
def _shutdown_pools():
    yield
    close_backends()


@pytest.mark.parametrize("query_id", conformance.QUERY_IDS)
@pytest.mark.parametrize("backend", PARALLEL_BACKENDS)
def test_backend_equivalence(request, backend, query_id):
    workers_addrs = ()
    if backend == "distributed":
        workers_addrs = request.getfixturevalue("distributed_workers")
    conformance.assert_backend_matches_serial(
        backend, query_id, workers_addrs=workers_addrs
    )


def run_every_planner(backend, query, workers_addrs=()):
    """Every planner's plan of ``query`` under ``backend``: the outcomes,
    each holding every job's output file in ``job_outputs``."""
    outcomes = []
    for planner_cls in conformance.METHOD_PLANNERS.values():
        plan = planner_cls(PAPER_CLUSTER_KP64).plan(query)
        cluster = SimulatedCluster(PAPER_CLUSTER_KP64)
        with conformance.execution_env(
            **conformance._backend_overrides(backend, workers_addrs)
        ):
            outcome = PlanExecutor(cluster).execute(plan, query)
        assert sorted(outcome.job_outputs) == sorted(job.job_id for job in plan.jobs)
        outcomes.append(outcome)
    return outcomes


@pytest.mark.parametrize("backend", ["serial", "distributed"])
def test_every_output_indexes_the_base_tables(request, backend, three_way_query):
    """A job output, a merged result and the final answer hold no row
    table of their own: alias ``a``'s table is the lifted base relation's
    (that very object in process, an equal copy off a daemon), and its
    index vector is the global ids ``reference_join`` binds."""
    workers_addrs = ()
    if backend == "distributed":
        workers_addrs = request.getfixturevalue("distributed_workers")
    query = three_way_query
    base = {
        alias: lift_base_relation(relation, alias).records.tables[0]
        for alias, relation in query.relations.items()
    }
    reference = sorted(
        tuple(gid for _alias, gid, _row in composite)
        for composite in reference_join(query)
    )
    for outcome in run_every_planner(backend, query, workers_addrs):
        files = outcome.job_outputs.values()
        for slab in [outcome.composites, *(file.records for file in files)]:
            for alias, table in zip(slab.cover, slab.tables):
                if backend == "serial":
                    assert table is base[alias], alias
                else:
                    assert table.tolist() == base[alias].tolist(), alias
        final = outcome.composites
        assert final.cover == ("a", "b", "c")
        ids = sorted(zip(*(final.ids(alias).tolist() for alias in final.cover)))
        assert ids == reference


def test_distributed_leg_really_dispatched(distributed_workers):
    """Must run after the grid (file order): the distributed runs above
    may not have degraded to serial behind the assertions' backs."""
    conformance.assert_distributed_really_dispatched(distributed_workers)


def test_warm_rerun_ships_10x_fewer_payload_bytes(tmp_path):
    """PR 8 acceptance: a warm re-run of an identical distributed query
    registers its closures by digest and ships only the slim executable
    parts — at least 10x fewer payload bytes than the cold run."""
    query_id, planner = "mobile-2", "ours"
    expected = conformance.serial_digest(query_id, planner)
    cache_dir = tmp_path / "blob-cache"
    with conformance.execution_env(REPRO_CACHE_DIR=str(cache_dir)):
        with conformance.worker_pool(2) as addrs:

            def run_once():
                return conformance.run_with_backend(
                    "distributed",
                    query_id,
                    planner,
                    addrs,
                    REPRO_CACHE_DIR=str(cache_dir),
                )

            assert run_once() == expected
            backend = live_distributed_backend(addrs)
            cold = backend.counters["bytes_shipped"]
            assert backend.counters["blob_puts"] > 0
            backend.reset_counters()
            assert run_once() == expected
            warm = backend.counters["bytes_shipped"]
            assert backend.counters["blob_hits"] > 0
            assert backend.counters["blob_bytes_reused"] > 0
    assert cold > 0 and warm > 0
    assert warm * 10 <= cold, (
        f"warm re-run shipped {warm} bytes vs {cold} cold — "
        "the blob cache stopped deduplicating payloads"
    )
