"""In-process tests of the ``repro serve`` coordinator + client.

Each test boots a real :class:`QueryService` on a loopback port and
talks to it over the wire through :func:`repro.connect`, so the frame
protocol, the error-taxonomy round-trip, and the admission machinery
are all exercised — only the worker fleet is absent (queries run on the
default in-process backend).

Determinism trick used throughout: holding ``service._planning_lock``
from the test thread parks any admitted session at a known point
(before its plan is built), which turns "cancel a running query",
"expire a deadline", and "fill every slot" into race-free scenarios.
"""

import os
import threading
import time

import pytest

from repro.cli import PLANNERS
from repro.core.executor import PlanExecutor
from repro.errors import (
    AdmissionRejected,
    DeadlineExceeded,
    PlanningFailed,
    QueryCancelled,
    ServiceError,
)
from repro.mapreduce.config import ClusterConfig
from repro.mapreduce.runtime import SimulatedCluster
from repro.relational.sql import parse_join_query
import repro
from repro.serve.coordinator import QueryService
from repro.serve.session import CANCELLED, DONE, QUEUED, TIMED_OUT
from repro.workloads import workload_relations

MOBILE_SQL = (
    "SELECT t2.id FROM table t1, table t2 "
    "WHERE t1.d = t2.d AND t1.bt <= t2.bt"
)


def expected_rows(sql: str, workload="mobile", volume=0, seed=0, method="ours"):
    """The serial reference answer the service must reproduce."""
    relations = workload_relations(workload, volume, seed)
    query = parse_join_query(sql, relations, name="reference")
    config = ClusterConfig()
    plan = PLANNERS[method](config).plan(query)
    outcome = PlanExecutor(SimulatedCluster(config)).execute(plan, query)
    return [tuple(row) for row in outcome.result.rows]


@pytest.fixture
def service():
    svc = QueryService(max_concurrent=2, max_queue=8).start()
    yield svc
    svc.stop()


@pytest.fixture
def client(service):
    with repro.connect(service.address, timeout_s=15.0) as cli:
        yield cli


@pytest.fixture
def tight_service():
    """One slot, one queue seat: the shedding/queueing drills."""
    svc = QueryService(max_concurrent=1, max_queue=1).start()
    yield svc
    svc.stop()


def wait_for(predicate, timeout_s=5.0, interval_s=0.01):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval_s)
    return False


class TestRoundTrip:
    def test_query_matches_direct_execution(self, client):
        result = client.run(MOBILE_SQL, workload="mobile", volume=20, seed=0)
        assert result["columns"] == ["t2_id"]
        assert result["rows"] == expected_rows(MOBILE_SQL, volume=20)
        assert result["output_records"] == len(result["rows"])
        assert result["makespan_s"] > 0
        assert result["num_jobs"] >= 1

    def test_knob_overrides_are_scoped_to_the_session(self, client):
        before = dict(os.environ)
        thread_rows = client.run(
            MOBILE_SQL,
            knobs={"REPRO_EXEC_BACKEND": "thread", "REPRO_EXEC_WORKERS": "2"},
        )["rows"]
        # The fork-pool backend is pinned to threads under serve; either
        # way the answer is bit-identical and the environment untouched.
        process_rows = client.run(
            MOBILE_SQL, knobs={"REPRO_EXEC_BACKEND": "process"}
        )["rows"]
        assert thread_rows == expected_rows(MOBILE_SQL)
        assert process_rows == thread_rows
        assert {
            k: v for k, v in os.environ.items() if k.startswith("REPRO_")
        } == {k: v for k, v in before.items() if k.startswith("REPRO_")}

    def test_concurrent_clients_get_isolated_answers(self, service):
        specs = [(seed, expected_rows(MOBILE_SQL, seed=seed)) for seed in (0, 1, 2)]
        results = {}
        errors = []

        def one_client(seed):
            try:
                with repro.connect(service.address, timeout_s=30.0) as cli:
                    results[seed] = cli.run(MOBILE_SQL, seed=seed)["rows"]
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append((seed, exc))

        threads = [
            threading.Thread(target=one_client, args=(seed,))
            for seed, _ in specs
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        for seed, expected in specs:
            assert results[seed] == expected, f"seed {seed} diverged"

    def test_stats_counters(self, service, client):
        client.run(MOBILE_SQL)
        stats = client.stats()
        assert stats["submitted"] >= 1
        assert stats["done"] >= 1
        assert stats["tasks_in_flight"] == 0
        assert stats["max_concurrent"] == service.max_concurrent
        assert isinstance(stats["fleet"], list)


class TestAdmission:
    def test_unknown_workload_rejected(self, client):
        with pytest.raises(AdmissionRejected) as excinfo:
            client.submit(MOBILE_SQL, workload="spark")
        assert excinfo.value.code == "admission-rejected"
        assert "mobile" in excinfo.value.details["allowed"]

    def test_unknown_method_rejected(self, client):
        with pytest.raises(AdmissionRejected):
            client.submit(MOBILE_SQL, method="presto")

    def test_empty_sql_rejected(self, client):
        with pytest.raises(AdmissionRejected):
            client.submit("   ")

    def test_non_overridable_knob_rejected(self, client):
        # The fleet is service-owned: a per-query private fleet must shed.
        with pytest.raises(AdmissionRejected) as excinfo:
            client.submit(
                MOBILE_SQL, knobs={"REPRO_WORKERS_ADDRS": "127.0.0.1:9"}
            )
        assert excinfo.value.details["rejected"] == ["REPRO_WORKERS_ADDRS"]
        # So are the timings of the one backend every session shares.
        with pytest.raises(AdmissionRejected) as excinfo:
            client.submit(MOBILE_SQL, knobs={"REPRO_WORKER_HEARTBEAT_S": "0.5"})
        assert excinfo.value.details["rejected"] == ["REPRO_WORKER_HEARTBEAT_S"]

    @pytest.mark.parametrize(
        "name, value",
        [
            ("REPRO_EXEC_BACKEND", "threads"),  # a typo must not run serial
            ("REPRO_EXEC_WORKERS", "4096"),  # nor key a 4096-thread pool
            ("REPRO_EXEC_WORKERS", "-1"),
            ("REPRO_EXEC_WORKERS", "many"),
            ("REPRO_TASK_RETRIES", "-1"),
            ("REPRO_TASK_RETRIES", "1.5"),
            ("REPRO_STRICT_FLEET", "yes"),
        ],
    )
    def test_invalid_knob_value_rejected(self, service, client, name, value):
        knobs = {"REPRO_EXEC_BACKEND": "thread", name: value}
        with pytest.raises(AdmissionRejected) as excinfo:
            client.submit(MOBILE_SQL, knobs=knobs)
        assert excinfo.value.code == "admission-rejected"
        assert excinfo.value.details["rejected"] == [name]
        assert service.stats["submitted"] == 0

    def test_valid_knob_values_admitted(self, client):
        knobs = {
            "REPRO_EXEC_BACKEND": "Serial",  # parsed as the env side does
            "REPRO_EXEC_WORKERS": 0,
            "REPRO_TASK_RETRIES": "0",
            "REPRO_STRICT_FLEET": "1",
        }
        assert client.run(MOBILE_SQL, knobs=knobs)["rows"] == expected_rows(
            MOBILE_SQL
        )

    def test_bad_deadline_rejected(self, client):
        with pytest.raises(AdmissionRejected):
            client.submit(MOBILE_SQL, deadline_s=-1)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("volume", "abc"),
            ("seed", [1]),
            ("method", ["ours"]),
            # A nan or infinite deadline would silently mean "none", and
            # a bool is not a number of seconds.
            ("deadline_s", float("nan")),
            ("deadline_s", "inf"),
            ("deadline_s", True),
        ],
    )
    def test_malformed_field_rejected(self, service, client, field, value):
        with pytest.raises(AdmissionRejected):
            client.submit(MOBILE_SQL, **{field: value})
        assert service.stats["submitted"] == 0

    def test_queue_full_sheds_with_structured_details(self, tight_service):
        service = tight_service
        with repro.connect(service.address, timeout_s=15.0) as cli:
            with service._planning_lock:  # park the running query
                running = cli.submit(MOBILE_SQL)
                assert wait_for(lambda: service._running == 1)
                queued = cli.submit(MOBILE_SQL, seed=1)
                with pytest.raises(AdmissionRejected) as excinfo:
                    cli.submit(MOBILE_SQL, seed=2)
                assert excinfo.value.code == "admission-rejected"
                assert excinfo.value.details["max_queue"] == 1
                assert excinfo.value.details["queued"] == 1
                # Shedding is cheap and structural, not a hung socket:
                # the same connection still answers immediately.
                assert cli.status(running)["state"] is not None
            # Lock released: both admitted queries drain to DONE.
            assert cli.wait(running)["rows"] == expected_rows(MOBILE_SQL)
            assert cli.wait(queued)["rows"] == expected_rows(MOBILE_SQL, seed=1)
            assert cli.stats()["rejected"] == 1

    def test_unknown_query_id_is_a_service_error(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.status("q999")
        assert "unknown query id" in str(excinfo.value)


class TestFailurePaths:
    def test_bad_sql_fails_with_planning_taxonomy(self, client):
        query_id = client.submit("DELETE FROM table")
        with pytest.raises(PlanningFailed):
            client.wait(query_id)
        snap = client.status(query_id)
        assert snap["state"] == "FAILED"
        assert snap["error"]["code"] == "planning-failed"

    def test_deadline_expiry_times_out_with_taxonomy(self, service, client):
        with service._planning_lock:
            query_id = client.submit(MOBILE_SQL, deadline_s=0.2)
            time.sleep(0.35)  # token fires while parked at the lock
        with pytest.raises(DeadlineExceeded):
            client.wait(query_id)
        snap = client.status(query_id)
        assert snap["state"] == TIMED_OUT
        assert snap["error"]["code"] == "deadline-exceeded"
        assert client.stats()["timed_out"] == 1

    def test_cancel_running_session(self, service, client):
        with service._planning_lock:
            query_id = client.submit(MOBILE_SQL)
            assert wait_for(lambda: service._running == 1)
            snap = client.cancel(query_id, "operator said stop")
            # Cooperative: the session thread terminalizes it once it
            # reaches its next checkpoint, not necessarily instantly.
        with pytest.raises(QueryCancelled, match="operator said stop"):
            client.wait(query_id)
        snap = client.status(query_id)
        assert snap["state"] == CANCELLED
        assert snap["error"]["code"] == "cancelled"

    def test_cancel_queued_session_is_immediate(self, tight_service):
        service = tight_service
        with repro.connect(service.address, timeout_s=15.0) as cli:
            with service._planning_lock:
                running = cli.submit(MOBILE_SQL)
                assert wait_for(lambda: service._running == 1)
                queued = cli.submit(MOBILE_SQL, seed=1)
                assert cli.status(queued)["state"] == QUEUED
                snap = cli.cancel(queued, "queue jump denied")
                # A queued victim never waits for a slot to die.
                assert snap["state"] == CANCELLED
                assert snap["terminal"] is True
            assert cli.wait(running)["rows"] == expected_rows(MOBILE_SQL)
            stats = cli.stats()
            assert stats["cancelled"] == 1 and stats["done"] == 1

    def test_expired_queued_session_is_reaped(self, tight_service):
        """A deadline that fires while the query is still queued must
        terminalize it from the admission loop's reaper — it never gets
        a slot, never plans, and still reports the right taxonomy."""
        service = tight_service
        with repro.connect(service.address, timeout_s=15.0) as cli:
            with service._planning_lock:
                running = cli.submit(MOBILE_SQL)
                assert wait_for(lambda: service._running == 1)
                doomed = cli.submit(MOBILE_SQL, seed=1, deadline_s=0.1)
                assert wait_for(
                    lambda: cli.status(doomed)["terminal"], timeout_s=3.0
                )
                assert cli.status(doomed)["state"] == TIMED_OUT
            assert cli.wait(running)["rows"] == expected_rows(MOBILE_SQL)

    def test_result_poll_timeout_is_not_an_error(self, service, client):
        with service._planning_lock:
            query_id = client.submit(MOBILE_SQL)
            payload = client.result(query_id, timeout_s=0.05)
            assert payload["terminal"] is False
            assert "result" not in payload
        assert client.wait(query_id)["rows"] == expected_rows(MOBILE_SQL)


class TestServiceLifecycle:
    def test_stop_terminalizes_queued_sessions(self):
        service = QueryService(max_concurrent=1, max_queue=4).start()
        try:
            with repro.connect(service.address, timeout_s=15.0) as cli:
                with service._planning_lock:
                    running = cli.submit(MOBILE_SQL)
                    assert wait_for(lambda: service._running == 1)
                    queued = cli.submit(MOBILE_SQL, seed=1)
                    # Stop while the running query is still parked at the
                    # planning gate: released first, it could finish and
                    # hand its slot to ``queued`` before the stop lands.
                    service.stop()
        finally:
            service.stop()
        queued_session = service.ledger.sessions[queued]
        assert wait_for(lambda: queued_session.done.is_set(), timeout_s=5.0)
        assert queued_session.state == CANCELLED
        running_session = service.ledger.sessions[running]
        assert wait_for(lambda: running_session.done.is_set(), timeout_s=10.0)

    def test_submit_after_stop_is_rejected(self):
        service = QueryService(max_concurrent=1, max_queue=4).start()
        service.stop()
        with pytest.raises(AdmissionRejected):
            service.submit({"sql": MOBILE_SQL})

    def test_done_session_survives_queue_pressure(self, client):
        query_id = client.submit(MOBILE_SQL)
        rows = client.wait(query_id)
        assert client.status(query_id)["state"] == DONE
        # Re-fetching a terminal result is idempotent.
        assert client.result(query_id, timeout_s=1.0)["result"]["rows"] == rows["rows"]
