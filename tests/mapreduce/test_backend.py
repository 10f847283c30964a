"""Unit tests for the execution-backend layer.

Backends must return ``[fn(0), ..., fn(count-1)]`` in index order, the
process backend's registry handshake must ship closures over
*unpicklable* compiled state, and backend selection must follow the
consolidated :class:`ExecutionSettings` (including the nesting guards
that keep pool tasks from fanning out onto their own pool).
"""

import pytest

from fault_worker import FaultyWorkerServer
from repro.core.partitioner import HypercubePartitioner
from repro.joins.jobs import make_hypercube_join_job
from repro.joins.records import relation_to_composite_file
from repro.mapreduce import backend as backend_mod
from repro.mapreduce.backend import (
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
    close_backends,
    get_backend,
)
from repro.mapreduce.config import (
    PAPER_CLUSTER_KP64,
    ExecutionSettings,
    execution_settings,
    settings_scope,
)
from repro.mapreduce.runtime import SimulatedCluster
from repro.workloads.synthetic import chain_query


@pytest.fixture(autouse=True)
def _clean_pools():
    yield
    close_backends()


class TestSettings:
    def test_defaults(self, monkeypatch):
        for name in (
            "REPRO_EXEC_BACKEND",
            "REPRO_EXEC_WORKERS",
            "REPRO_WORKERS_ADDRS",
            "REPRO_WORKER_HEARTBEAT_S",
            "REPRO_TASK_RETRIES",
            "REPRO_WORKER_CONNECT_TIMEOUT_S",
            "REPRO_CACHE_DIR",
        ):
            monkeypatch.delenv(name, raising=False)
        settings = execution_settings()
        assert settings.backend == "serial"
        assert settings.workers_addrs == ()
        assert settings.worker_heartbeat_s == 2.0
        assert settings.task_retries == 2
        assert settings.worker_connect_timeout_s == 1.0
        assert not settings.parallel

    def test_explicit_backend(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXEC_BACKEND", "process")
        monkeypatch.setenv("REPRO_EXEC_WORKERS", "3")
        settings = execution_settings()
        assert settings.backend == "process"
        assert settings.effective_workers == 3
        assert settings.parallel

    def test_garbage_values_fall_back(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXEC_BACKEND", "quantum")
        monkeypatch.setenv("REPRO_EXEC_WORKERS", "lots")
        monkeypatch.delenv("REPRO_WORKERS_ADDRS", raising=False)
        settings = execution_settings()
        assert settings.backend == "serial"
        assert settings.workers == 0


class TestDistributedSettings:
    """Parsing edge cases of the distributed backend's environment knobs."""

    def test_addrs_select_distributed_without_backend(self, monkeypatch):
        monkeypatch.delenv("REPRO_EXEC_BACKEND", raising=False)
        monkeypatch.setenv("REPRO_WORKERS_ADDRS", "127.0.0.1:7601,127.0.0.1:7602")
        settings = execution_settings()
        assert settings.backend == "distributed"
        assert settings.workers_addrs == ("127.0.0.1:7601", "127.0.0.1:7602")
        assert settings.effective_workers == 2
        assert settings.parallel

    def test_malformed_entries_are_skipped(self, monkeypatch):
        monkeypatch.setenv(
            "REPRO_WORKERS_ADDRS",
            "nonsense, host:, :123, host:notaport, 10.0.0.1:70000,"
            "  127.0.0.1:7601 , 127.0.0.1:7601, h:0; h2:8080",
        )
        settings = execution_settings()
        # Only the well-formed, in-range, deduplicated survivors remain.
        assert settings.workers_addrs == ("127.0.0.1:7601", "h2:8080")

    def test_dropped_entries_are_named_once_on_stderr(self, monkeypatch, capsys):
        """A fleet typo must be diagnosable: every malformed entry is
        named in a stderr warning exactly once per process, not silently
        skipped and not repeated on every settings re-read."""
        from repro.mapreduce import config

        monkeypatch.setattr(config, "_warned_addr_entries", set())
        monkeypatch.setenv(
            "REPRO_WORKERS_ADDRS", "bad-entry:notaport,127.0.0.1:7601"
        )
        settings = execution_settings()
        assert settings.workers_addrs == ("127.0.0.1:7601",)
        err = capsys.readouterr().err
        assert "bad-entry:notaport" in err
        assert "REPRO_WORKERS_ADDRS" in err
        # Settings are re-read per phase; the warning must not repeat.
        execution_settings()
        assert "bad-entry:notaport" not in capsys.readouterr().err

    def test_all_malformed_degrades_to_serial_selection(self, monkeypatch):
        monkeypatch.delenv("REPRO_EXEC_BACKEND", raising=False)
        monkeypatch.setenv("REPRO_WORKERS_ADDRS", "not-an-addr,also:bad:extra:")
        settings = execution_settings()
        assert settings.workers_addrs == ()
        assert settings.backend == "serial"
        assert not settings.parallel
        assert get_backend(settings).name == "serial"

    def test_distributed_with_zero_workers_is_not_parallel(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXEC_BACKEND", "distributed")
        monkeypatch.delenv("REPRO_WORKERS_ADDRS", raising=False)
        settings = execution_settings()
        assert settings.backend == "distributed"
        assert settings.workers_addrs == ()
        assert not settings.parallel
        assert get_backend(settings).name == "serial"

    def test_single_worker_is_still_parallel(self, monkeypatch):
        """One remote daemon is worth dispatching to — unlike a 1-thread
        pool, it offloads the coordinator."""
        # The CI matrix sets these for the whole run; this test is about
        # what the addresses alone select.
        monkeypatch.delenv("REPRO_EXEC_BACKEND", raising=False)
        monkeypatch.delenv("REPRO_EXEC_WORKERS", raising=False)
        monkeypatch.setenv("REPRO_WORKERS_ADDRS", "127.0.0.1:7601")
        settings = execution_settings()
        assert settings.effective_workers == 1
        assert settings.parallel

    def test_explicit_backend_wins_over_addrs(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXEC_BACKEND", "thread")
        monkeypatch.setenv("REPRO_EXEC_WORKERS", "3")
        monkeypatch.setenv("REPRO_WORKERS_ADDRS", "127.0.0.1:7601")
        settings = execution_settings()
        assert settings.backend == "thread"
        assert settings.effective_workers == 3
        # The addrs still parse (a later distributed run can use them).
        assert settings.workers_addrs == ("127.0.0.1:7601",)

    def test_heartbeat_and_retry_knobs(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKER_HEARTBEAT_S", "0.5")
        monkeypatch.setenv("REPRO_TASK_RETRIES", "7")
        monkeypatch.setenv("REPRO_WORKER_CONNECT_TIMEOUT_S", "0.25")
        settings = execution_settings()
        assert settings.worker_heartbeat_s == 0.5
        assert settings.task_retries == 7
        assert settings.worker_connect_timeout_s == 0.25

    def test_garbage_knobs_fall_back_to_defaults(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKER_HEARTBEAT_S", "soon")
        monkeypatch.setenv("REPRO_TASK_RETRIES", "-5")
        monkeypatch.setenv("REPRO_WORKER_CONNECT_TIMEOUT_S", "")
        settings = execution_settings()
        assert settings.worker_heartbeat_s == 2.0
        assert settings.task_retries == 0  # clamped at the minimum
        assert settings.worker_connect_timeout_s == 1.0

    def test_heartbeat_clamped_above_zero(self, monkeypatch):
        """A zero/negative heartbeat would spin or divide the liveness
        window to nothing; the floor keeps the ping loop sane."""
        monkeypatch.setenv("REPRO_WORKER_HEARTBEAT_S", "0")
        assert execution_settings().worker_heartbeat_s == 0.05

    def test_changed_addrs_reconfigure_the_live_backend(self, monkeypatch):
        """A fleet change re-points the ONE live coordinator (drain +
        dial) instead of building a cold twin — the elasticity contract
        ``repro serve`` relies on."""
        monkeypatch.setenv("REPRO_EXEC_BACKEND", "distributed")
        monkeypatch.setenv("REPRO_WORKERS_ADDRS", "127.0.0.1:7601")
        first = get_backend()
        assert first.name == "distributed"
        assert get_backend() is first
        monkeypatch.setenv("REPRO_WORKERS_ADDRS", "127.0.0.1:7602")
        second = get_backend()
        assert second is first  # same coordinator, re-pointed in place
        assert second.addrs == ("127.0.0.1:7602",)

    def test_a_running_query_never_points_the_fleet_back(self, monkeypatch):
        """``FleetManager.set_addrs`` under a running query: the query's
        settings date from its entry and still name the old fleet, but
        its next ``get_backend()`` must leave the new one in place."""
        from repro.serve.fleet import FleetManager

        monkeypatch.setenv("REPRO_EXEC_BACKEND", "distributed")
        monkeypatch.setenv("REPRO_WORKERS_ADDRS", "127.0.0.1:7601")
        fleet = FleetManager()
        with settings_scope({"REPRO_TASK_RETRIES": "1"}):
            backend = get_backend()
            fleet.set_addrs("127.0.0.1:7602")
            assert get_backend() is backend
            assert backend.addrs == ("127.0.0.1:7602",)
        assert get_backend().addrs == ("127.0.0.1:7602",)

    def test_no_knob_keys_a_second_distributed_instance(self, monkeypatch):
        """Five scopes, five retry budgets and heartbeats: still the one
        live backend, with the timings it was built with (they change
        only across ``close_backends()``)."""
        monkeypatch.setenv("REPRO_EXEC_BACKEND", "distributed")
        monkeypatch.setenv("REPRO_WORKERS_ADDRS", "127.0.0.1:7601")
        first = get_backend()
        for step in range(1, 6):
            with settings_scope(
                {
                    "REPRO_TASK_RETRIES": str(step),
                    "REPRO_WORKER_HEARTBEAT_S": str(0.3 + step),
                }
            ):
                assert get_backend() is first
        assert list(backend_mod._BACKENDS) == ["distributed"]
        assert backend_mod.live_distributed_backend() is first
        assert first.heartbeat_s == 2.0
        close_backends()
        monkeypatch.setenv("REPRO_WORKER_HEARTBEAT_S", "0.31")
        assert get_backend().heartbeat_s == 0.31


class TestOrdering:
    @pytest.mark.parametrize(
        "make",
        [SerialBackend, lambda: ThreadBackend(3), lambda: ProcessBackend(2)],
        ids=["serial", "thread", "process"],
    )
    def test_results_in_index_order(self, make):
        backend = make()
        try:
            assert backend.run_tasks(lambda i: i * i, 13) == [
                i * i for i in range(13)
            ]
        finally:
            backend.close()

    def test_process_ships_unpicklable_closures(self):
        """The registry handshake must work for callables pickle rejects
        (compiled join closures are exactly this shape)."""
        import pickle

        captured = {"table": [10, 20, 30, 40], "offset": 7}
        fn = lambda i: captured["table"][i] + captured["offset"]  # noqa: E731
        with pytest.raises(Exception):
            pickle.dumps(fn)
        backend = ProcessBackend(2)
        try:
            assert backend.run_tasks(fn, 4) == [17, 27, 37, 47]
        finally:
            backend.close()

    def test_process_propagates_task_errors(self):
        backend = ProcessBackend(2)

        def boom(index):
            if index == 2:
                raise ValueError("task 2 exploded")
            return index

        try:
            with pytest.raises(ValueError, match="task 2 exploded"):
                backend.run_tasks(boom, 4)
        finally:
            backend.close()

    def test_process_pool_persists_until_registry_moves(self):
        backend = ProcessBackend(2)
        try:
            backend.run_tasks(lambda i: i, 3)
            first_pool = backend._pool
            assert first_pool is not None
            # No registration since the last fork: the pool is reused.
            assert backend._ensure_pool() is first_pool
            # A new registration staled the snapshot: the pool recycles.
            backend_mod._register_task_fn(lambda i: i)
            assert backend._ensure_pool() is not first_pool
        finally:
            backend.close()

    def test_single_task_runs_inline(self):
        backend = ProcessBackend(2)
        try:
            side_effect = []
            backend.run_tasks(lambda i: side_effect.append(i), 1)
            assert side_effect == [0]  # parent-side: no fork for count<=1
            assert backend._pool is None
        finally:
            backend.close()


class TestOneDaemonFleet:
    """A one-daemon fleet is parallel (it offloads the coordinator), so
    even a batch of one task runs on the daemon, not in line."""

    @pytest.fixture
    def daemon(self):
        # The test worker with no fault armed: it counts the tasks it starts.
        server = FaultyWorkerServer().start()
        yield server
        close_backends()
        server.stop()

    def scope(self, daemon):
        return settings_scope(
            {"REPRO_EXEC_BACKEND": "distributed", "REPRO_WORKERS_ADDRS": daemon.address}
        )

    def test_single_task_batch_ships(self, daemon):
        with self.scope(daemon):
            assert get_backend().run_tasks(lambda i: i + 7, 1) == [7]
            assert get_backend().run_tasks(lambda i: i, 0) == []
        assert daemon.tasks_started == 1

    def test_chain_job_runs_every_task_on_the_daemon(self, daemon):
        query = chain_query(3, rows=40, selectivity=0.1, seed=2)
        aliases = sorted(query.relations)
        spec = make_hypercube_join_job(
            "chain",
            [relation_to_composite_file(query.relations[a], a) for a in aliases],
            HypercubePartitioner([len(query.relations[a]) for a in aliases], 8),
            query.conditions,
            {a: query.relations[a].schema for a in aliases},
        )
        serial = SimulatedCluster(PAPER_CLUSTER_KP64).run_job(spec)
        assert serial.output.records
        with self.scope(daemon):
            remote = SimulatedCluster(PAPER_CLUSTER_KP64).run_job(spec)
        # One map chunk per input file and one reduce range: all remote.
        assert daemon.tasks_started == len(aliases) + 1
        assert list(remote.output.records) == list(serial.output.records)
        assert remote.metrics == serial.metrics


class TestSelectionAndNesting:
    def test_serial_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_EXEC_BACKEND", raising=False)
        monkeypatch.delenv("REPRO_WORKERS_ADDRS", raising=False)
        assert get_backend().name == "serial"

    def test_env_selects_process(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXEC_BACKEND", "process")
        monkeypatch.setenv("REPRO_EXEC_WORKERS", "2")
        assert get_backend().name == "process"

    def test_backend_instances_are_shared(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXEC_BACKEND", "thread")
        monkeypatch.setenv("REPRO_EXEC_WORKERS", "2")
        assert get_backend() is get_backend()

    def test_workers_one_is_serial(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXEC_BACKEND", "process")
        monkeypatch.setenv("REPRO_EXEC_WORKERS", "1")
        assert get_backend().name == "serial"

    def test_thread_task_nesting_degrades_to_serial(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXEC_BACKEND", "thread")
        monkeypatch.setenv("REPRO_EXEC_WORKERS", "2")
        outer = get_backend()
        assert outer.name == "thread"
        inner_names = outer.run_tasks(lambda i: get_backend().name, 4)
        assert inner_names == ["serial"] * 4

    def test_process_worker_nesting_degrades_to_serial(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXEC_BACKEND", "process")
        monkeypatch.setenv("REPRO_EXEC_WORKERS", "2")
        outer = get_backend()
        assert outer.name == "process"
        inner_names = outer.run_tasks(lambda i: get_backend().name, 4)
        assert inner_names == ["serial"] * 4

    def test_settings_object_overrides_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXEC_BACKEND", "process")
        explicit = ExecutionSettings(backend="serial")
        assert get_backend(explicit).name == "serial"


class TestCloseSafety:
    """close()/close_backends() are idempotent and race-safe.

    The serve coordinator closes backends on drain *and* at interpreter
    exit, sometimes from two threads; a second close must be a no-op and
    a close racing an in-flight wave must not corrupt the batch."""

    def test_thread_backend_close_twice(self):
        backend = ThreadBackend(2)
        assert backend.run_tasks(lambda i: i + 1, 4) == [1, 2, 3, 4]
        backend.close()
        backend.close()
        # A closed backend lazily rebuilds its pool on the next wave.
        assert backend.run_tasks(lambda i: i * 2, 3) == [0, 2, 4]
        backend.close()

    def test_process_backend_close_twice(self):
        backend = ProcessBackend(2)
        assert backend.run_tasks(lambda i: i + 1, 4) == [1, 2, 3, 4]
        backend.close()
        backend.close()
        assert backend.run_tasks(lambda i: i * 2, 3) == [0, 2, 4]
        backend.close()

    def test_close_backends_twice(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXEC_BACKEND", "thread")
        monkeypatch.setenv("REPRO_EXEC_WORKERS", "2")
        get_backend().run_tasks(lambda i: i, 2)
        close_backends()
        close_backends()  # second sweep sees an empty registry

    def test_concurrent_close_calls_never_double_join(self):
        import threading

        backend = ThreadBackend(4)
        backend.run_tasks(lambda i: i, 4)
        failures = []

        def closer():
            try:
                for _ in range(10):
                    backend.close()
            except Exception as exc:  # pragma: no cover - the regression
                failures.append(exc)

        threads = [threading.Thread(target=closer) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert failures == []

    def test_close_racing_inflight_wave_stays_correct(self):
        import threading
        import time

        backend = ThreadBackend(4)
        release = threading.Event()

        def task(index):
            release.wait(2.0)
            time.sleep(0.01)
            return index * index

        out = []
        runner = threading.Thread(
            target=lambda: out.append(backend.run_tasks(task, 8))
        )
        runner.start()
        time.sleep(0.05)  # the wave is in flight on the pool
        release.set()
        backend.close()  # races the running wave
        runner.join()
        assert out == [[index * index for index in range(8)]]

    def test_distributed_close_twice(self):
        backend = backend_mod.DistributedBackend(())
        backend.run_tasks(lambda i: i + 7, 3)
        backend.close()
        backend.close()
