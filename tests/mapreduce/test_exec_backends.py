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
from repro.mapreduce.backend import close_backends, live_distributed_backend
from repro.mapreduce.wire import closure_transport_available

PARALLEL_BACKENDS = ("thread", "process", "distributed")


@pytest.fixture(scope="module")
def distributed_workers(tmp_path_factory):
    if not closure_transport_available():  # pragma: no cover - no cloudpickle
        pytest.skip("cloudpickle unavailable: closures cannot ship over TCP")
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


def test_distributed_leg_really_dispatched(distributed_workers):
    """Must run after the grid (file order): the distributed runs above
    may not have degraded to serial behind the assertions' backs."""
    conformance.assert_distributed_really_dispatched(distributed_workers)


def test_warm_rerun_ships_10x_fewer_payload_bytes(tmp_path):
    """PR 8 acceptance: a warm re-run of an identical distributed query
    registers its closures by digest and ships only the slim executable
    parts — at least 10x fewer payload bytes than the cold run."""
    if not closure_transport_available():  # pragma: no cover - no cloudpickle
        pytest.skip("cloudpickle unavailable: closures cannot ship over TCP")
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

            # The process has one distributed backend: clear whatever the
            # grid above shipped through it before the measured cold run.
            if live_distributed_backend() is not None:
                live_distributed_backend().reset_counters()
            assert run_once() == expected
            backend = live_distributed_backend()
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
