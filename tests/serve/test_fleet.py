"""Fleet health probes and the service's one fleet.

Covers ``probe_worker`` (the primitive behind ``repro worker list`` /
``repro worker status``), the one :class:`DistributedBackend` every
session of a service shares, and the CLI exit codes operators script
against.
"""

import socket

import pytest

import repro
from repro.cli import main
from repro.mapreduce import backend as backend_mod
from repro.mapreduce.backend import close_backends
from repro.mapreduce.config import WORKERS_ADDRS_ENV
from repro.mapreduce.worker import WorkerServer
from repro.serve.coordinator import QueryService
from repro.serve.fleet import probe_worker


@pytest.fixture(autouse=True)
def _fresh_backends():
    close_backends()
    yield
    close_backends()


@pytest.fixture
def worker():
    server = WorkerServer().start()
    yield server
    server.stop()


def free_port_addr() -> str:
    """An address nothing listens on (bound once, then released)."""
    probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return f"127.0.0.1:{port}"


class TestProbeWorker:
    def test_live_worker(self, worker):
        report = probe_worker(worker.address)
        assert report["alive"] is True
        assert report["compatible"] is True
        assert report["error"] is None
        assert report["rtt_ms"] > 0
        assert report["info"]["repro"]

    def test_dead_address(self):
        report = probe_worker(free_port_addr(), timeout_s=0.5)
        assert report["alive"] is False
        assert report["rtt_ms"] is None
        assert "connect failed" in report["error"]

    def test_malformed_address_never_raises(self):
        report = probe_worker("not-an-addr", timeout_s=0.5)
        assert report["alive"] is False
        assert report["error"]


class TestOneBackendPerService:
    def test_distinct_session_knobs_share_one_distributed_backend(
        self, monkeypatch, worker
    ):
        """Tenant isolation comes from many sessions sharing one engine:
        N queries with N distinct knob values dispatch through the same
        live ``DistributedBackend`` instead of leaving N behind."""
        sql = (
            "SELECT t2.id FROM table t1, table t2 "
            "WHERE t1.d = t2.d AND t1.bt <= t2.bt"
        )
        monkeypatch.setenv(WORKERS_ADDRS_ENV, worker.address)
        service = QueryService(max_concurrent=2, max_queue=8).start()
        try:
            with repro.connect(service.address, timeout_s=30.0) as client:
                answers = [
                    client.run(
                        sql,
                        knobs={
                            "REPRO_EXEC_BACKEND": "distributed",
                            "REPRO_TASK_RETRIES": str(retries),
                        },
                    )["rows"]
                    for retries in range(4)
                ]
                registrations = client.stats()["data_plane"]["registrations"]
        finally:
            service.stop()
        assert answers[0] and all(rows == answers[0] for rows in answers)
        distributed = [
            backend
            for backend in backend_mod._BACKENDS.values()
            if isinstance(backend, backend_mod.DistributedBackend)
        ]
        assert len(distributed) == 1
        assert distributed[0].counters["registrations"] == registrations > 0


class TestWorkerCli:
    def test_worker_list_all_alive_exits_zero(self, monkeypatch, worker, capsys):
        monkeypatch.setenv(WORKERS_ADDRS_ENV, worker.address)
        assert main(["worker", "list"]) == 0
        out = capsys.readouterr().out
        assert worker.address in out
        assert "alive" in out

    def test_worker_list_flags_a_corpse(self, monkeypatch, worker, capsys):
        monkeypatch.setenv(
            WORKERS_ADDRS_ENV, f"{worker.address},{free_port_addr()}"
        )
        assert main(["worker", "list", "--timeout", "0.5"]) == 1
        out = capsys.readouterr().out
        assert "DOWN" in out and "alive" in out

    def test_worker_list_without_fleet_exits_one(self, monkeypatch, capsys):
        monkeypatch.delenv(WORKERS_ADDRS_ENV, raising=False)
        assert main(["worker", "list"]) == 1
        assert "no worker addresses configured" in capsys.readouterr().err

    def test_worker_status_live(self, worker, capsys):
        assert main(["worker", "status", worker.address]) == 0
        assert worker.address in capsys.readouterr().out

    def test_worker_status_dead(self, capsys):
        assert main(
            ["worker", "status", free_port_addr(), "--timeout", "0.5"]
        ) == 1
        assert "DOWN" in capsys.readouterr().out
