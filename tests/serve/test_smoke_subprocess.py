"""Serve-mode CI smoke: real daemons end to end.

Boots one ``repro serve`` coordinator *subprocess* plus two real worker
daemons, then drives the ISSUE-7 smoke scenario over the wire from this
process: three concurrent queries — one completing (rows checked
against a local serial reference), one cancelled, one dying on its
deadline — all against the distributed backend.

This is the ``make serve-smoke`` leg of ``make ci``: everything the
in-process tests cover, but across real process boundaries (banner
port discovery, environment plumbing into the daemon, subprocess
teardown).
"""

import sys
from pathlib import Path

import pytest

from repro.errors import DeadlineExceeded, QueryCancelled
import repro
from repro.serve.coordinator import spawn_service

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "mapreduce"))
from conformance import serial_reference_rows, worker_pool  # noqa: E402

SQL = (
    "SELECT t2.id FROM table t1, table t2 "
    "WHERE t1.d = t2.d AND t1.bt <= t2.bt"
)


def test_serve_smoke_over_subprocess_daemons():
    with worker_pool(2) as addrs:
        proc, service_addr = spawn_service(
            env_extra={
                "REPRO_EXEC_BACKEND": "distributed",
                "REPRO_WORKERS_ADDRS": ",".join(addrs),
            }
        )
        try:
            with repro.connect(service_addr, timeout_s=30.0) as client:
                # Three concurrent submissions; in a fresh daemon every
                # cache is cold, so planning dominates — the cancel and
                # the 1 ms deadline both land long before any rows exist.
                ok_id = client.submit(SQL, seed=0)
                doomed_id = client.submit(SQL, seed=1, deadline_s=0.001)
                cancelled_id = client.submit(SQL, seed=2)
                client.cancel(cancelled_id, "smoke cancel")

                rows = client.wait(ok_id, timeout_s=120.0)["rows"]
                assert rows == serial_reference_rows(SQL, seed=0)

                with pytest.raises(DeadlineExceeded):
                    client.wait(doomed_id, timeout_s=30.0)
                assert client.status(doomed_id)["error"]["code"] == (
                    "deadline-exceeded"
                )

                with pytest.raises(QueryCancelled):
                    client.wait(cancelled_id, timeout_s=30.0)
                assert client.status(cancelled_id)["error"]["code"] == "cancelled"

                stats = client.stats()
                assert stats["done"] == 1
                assert stats["timed_out"] == 1
                assert stats["cancelled"] == 1
                assert stats["tasks_in_flight"] == 0
                assert stats["fleet"] == list(addrs)

            proc.terminate()  # SIGTERM: the operator's stop
            assert proc.wait(timeout=10) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()


def test_serve_fairness_and_pagination_over_subprocess_daemon():
    """PR 10 CI leg: two-client fairness drill + paginated large result
    against a real daemon.

    A low-priority flood from one tenant saturates the single slot; the
    high-priority tenant's query, submitted last with a deadline, must
    still complete inside it (priority dequeue + quota isolation).  Then
    a result bigger than the page size streams out page by page,
    bit-identical to the unpaginated reference.
    """
    proc, service_addr = spawn_service(
        extra_args=(
            "--max-concurrent",
            "1",
            "--max-queue",
            "16",
            "--client-max-queued",
            "8",
        ),
    )
    try:
        with repro.connect(service_addr, timeout_s=30.0) as client:
            # Saturate: one running + 5 queued low-priority queries.
            flood = [
                client.submit(
                    SQL, seed=seed, client_id="bulk", priority=0
                )
                for seed in range(6)
            ]
            vip = client.submit(
                SQL,
                seed=9,
                client_id="vip",
                priority=9,
                deadline_s=90.0,
            )
            rows = client.wait(vip, timeout_s=90.0)["rows"]
            assert rows == serial_reference_rows(SQL, seed=9)

            # Per-client quota: seat 9 for 'bulk' sheds structurally.
            from repro.errors import QuotaExceeded

            with repro.connect(
                service_addr, timeout_s=30.0, client_id="bulk"
            ) as bulk:
                try:
                    for seed in range(20, 40):
                        bulk.submit(SQL, seed=seed)
                except QuotaExceeded as exc:
                    assert exc.code == "quota-exceeded"
                    assert exc.details["client_id"] == "bulk"
                else:  # pragma: no cover - quota must bite
                    raise AssertionError("bulk flood never hit its quota")

            for qid in flood:
                client.wait(qid, timeout_s=180.0)

            # Paginated large-result query: pages concatenate to the
            # reference bit-identically.
            big = client.submit(SQL, volume=20, seed=0)
            reference = client.wait(big, timeout_s=120.0)["rows"]
            assert reference == serial_reference_rows(SQL, volume=20, seed=0)
            paged = list(client.iter_rows(big, page_size=7))
            assert paged == reference

            stats = client.stats()
            assert stats["clients"]["vip"]["completed"] == 1
            assert stats["clients"]["bulk"]["completed"] >= 6
            assert stats["clients"]["bulk"]["quota_rejected"] >= 1
        proc.terminate()
        assert proc.wait(timeout=10) == 0
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
