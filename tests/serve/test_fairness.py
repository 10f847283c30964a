"""Multi-tenant serving: fairness, quotas, pagination, oversize replies.

The PR 10 acceptance drill, in-process: a saturating low-priority flood
must not delay a high-priority tenant past its deadline, per-client
quotas shed with the structured ``quota-exceeded`` error, a result
larger than the page size streams bit-identically to the unpaginated
reference, and an oversized reply is a structured ``result-too-large``
error — never a dead connection.  The same guarantees across a
``--recover`` restart live in ``test_recovery.py`` and the subprocess
smoke drill.
"""

import threading
import time

import pytest

import repro
from repro.errors import (
    AdmissionRejected,
    QuotaExceeded,
    ResultTooLarge,
    ServiceError,
)
from repro.mapreduce import wire
from repro.serve import coordinator as coordinator_mod
from repro.serve.coordinator import QueryService
from repro.serve.session import ADMITTED, DONE, QUEUED

from tests.serve.test_service import MOBILE_SQL, expected_rows, wait_for


def admitted_at(service, qid):
    """Absolute (monotonic) time the session left the queue."""
    session = service.ledger.sessions[qid]
    return session.submitted_at + session.state_times[ADMITTED]


@pytest.fixture
def quota_service():
    """One slot per client, two queue seats per client, slots for two."""
    svc = QueryService(
        max_concurrent=2,
        max_queue=8,
        client_max_running=1,
        client_max_queued=2,
        aging_s=30.0,
    ).start()
    yield svc
    svc.stop()


class TestQuotas:
    def test_queue_quota_sheds_with_structured_error(self, quota_service):
        service = quota_service
        with repro.connect(service.address, client_id="hog") as cli:
            with service._planning_lock:
                running = cli.submit(MOBILE_SQL)
                assert wait_for(lambda: service._running == 1)
                q1 = cli.submit(MOBILE_SQL, seed=1)
                q2 = cli.submit(MOBILE_SQL, seed=2)
                with pytest.raises(QuotaExceeded) as excinfo:
                    cli.submit(MOBILE_SQL, seed=3)
                assert excinfo.value.code == "quota-exceeded"
                assert excinfo.value.details["client_id"] == "hog"
                assert excinfo.value.details["client_max_queued"] == 2
                # Quotas are per tenant: another client still has seats.
                other = cli.submit(MOBILE_SQL, seed=4, client_id="guest")
            for qid in (running, q1, q2, other):
                cli.wait(qid, timeout_s=60.0)

    def test_quota_exceeded_is_catchable_as_admission_rejected(self):
        # Pre-PR-10 clients catch the broad shed error; the new quota
        # error must land in that handler unmodified.
        assert issubclass(QuotaExceeded, AdmissionRejected)

    def test_running_quota_parks_client_while_others_pass(self, quota_service):
        service = quota_service
        with repro.connect(service.address) as cli:
            with service._planning_lock:
                hog1 = cli.submit(MOBILE_SQL, client_id="hog")
                assert wait_for(lambda: service._running == 1)
                hog2 = cli.submit(MOBILE_SQL, seed=1, client_id="hog")
                guest = cli.submit(MOBILE_SQL, seed=2, client_id="guest")
                # hog is at its 1-slot quota: guest takes the second
                # slot even though hog2 arrived first.
                assert wait_for(lambda: service._running == 2)
                assert service.ledger.sessions[guest].state != QUEUED
                assert service.ledger.sessions[hog2].state == QUEUED
            for qid in (hog1, hog2, guest):
                cli.wait(qid, timeout_s=60.0)

    def test_per_client_stats_in_serve_stats(self, quota_service):
        service = quota_service
        with repro.connect(service.address, client_id="alice") as cli:
            cli.run(MOBILE_SQL)
            stats = cli.stats()
        clients = stats["clients"]
        assert clients["alice"]["completed"] == 1
        assert clients["alice"]["queued"] == 0
        assert clients["alice"]["running"] == 0
        assert stats["scheduler"]["client_max_running"] == 1
        assert stats["scheduler"]["aging_s"] == 30.0


class TestAdmissionRace:
    def test_concurrent_submits_never_overshoot_the_queue(self):
        """Regression: shed check and queue append are one lock scope.

        One 'storm' query runs (parked at the planning lock) and the
        storm client is at its 1-slot running quota, so nothing else it
        submits can be dequeued — the queue level only moves under
        submit.  16 racing submits against 4 seats must admit exactly 4
        and shed exactly 12, with no overshoot at any interleaving.
        """
        service = QueryService(
            max_concurrent=8, max_queue=4, client_max_running=1
        ).start()
        try:
            with service._planning_lock:
                pilot = service.submit(
                    {"sql": MOBILE_SQL, "client_id": "storm"}
                )
                assert wait_for(lambda: service._running == 1)
                accepted, rejected = [], []
                barrier = threading.Barrier(16)

                def one_submit(seed):
                    barrier.wait()
                    try:
                        session = service.submit(
                            {
                                "sql": MOBILE_SQL,
                                "seed": seed,
                                "client_id": "storm",
                            }
                        )
                        accepted.append(session.query_id)
                    except AdmissionRejected:
                        rejected.append(seed)

                threads = [
                    threading.Thread(target=one_submit, args=(seed,))
                    for seed in range(16)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
                assert len(accepted) == 4, (accepted, rejected)
                assert len(rejected) == 12
                assert service.stats["rejected"] == 12
            with repro.connect(service.address) as cli:
                cli.wait(pilot.query_id, timeout_s=60.0)
                for qid in accepted:
                    cli.wait(qid, timeout_s=60.0)
        finally:
            service.stop()


class TestFairnessDrill:
    def test_high_priority_overtakes_queued_flood(self):
        """The acceptance drill: a low-priority flood saturates the
        service; a high-priority query submitted *after* the whole flood
        is dequeued before any queued flood query and completes within
        its deadline."""
        service = QueryService(max_concurrent=1, max_queue=16).start()
        try:
            with repro.connect(service.address) as cli:
                with service._planning_lock:
                    pilot = cli.submit(MOBILE_SQL, client_id="bulk", priority=0)
                    assert wait_for(lambda: service._running == 1)
                    flood = [
                        cli.submit(
                            MOBILE_SQL, seed=seed, client_id="bulk", priority=0
                        )
                        for seed in range(1, 6)
                    ]
                    vip = cli.submit(
                        MOBILE_SQL,
                        seed=9,
                        client_id="vip",
                        priority=9,
                        deadline_s=60.0,
                    )
                # Within its deadline, despite 5 earlier waiters.
                assert cli.wait(vip, timeout_s=60.0)["rows"] == expected_rows(
                    MOBILE_SQL, seed=9
                )
                for qid in [pilot] + flood:
                    cli.wait(qid, timeout_s=120.0)
            vip_admitted = admitted_at(service, vip)
            for qid in flood:
                assert vip_admitted < admitted_at(service, qid), qid
        finally:
            service.stop()

    def test_aging_prevents_starvation_under_priority_flood(self):
        """Inverse drill: with aggressive aging, a lone low-priority
        query queued behind a continuous high-priority stream still gets
        admitted (bounded delay, not starvation)."""
        service = QueryService(max_concurrent=1, max_queue=32, aging_s=0.05).start()
        try:
            with repro.connect(service.address) as cli:
                with service._planning_lock:
                    pilot = cli.submit(MOBILE_SQL, client_id="vip", priority=9)
                    assert wait_for(lambda: service._running == 1)
                    low = cli.submit(
                        MOBILE_SQL, seed=1, client_id="humble", priority=0
                    )
                    time.sleep(0.6)  # low ages ~12 levels past the flood
                    flood = [
                        cli.submit(
                            MOBILE_SQL, seed=seed, client_id="vip", priority=9
                        )
                        for seed in range(2, 5)
                    ]
                assert cli.wait(low, timeout_s=60.0)["rows"] == expected_rows(
                    MOBILE_SQL, seed=1
                )
                for qid in [pilot] + flood:
                    cli.wait(qid, timeout_s=120.0)
            low_admitted = admitted_at(service, low)
            for qid in flood:
                assert low_admitted < admitted_at(service, qid), qid
        finally:
            service.stop()


class TestPagination:
    @pytest.fixture
    def done_query(self):
        service = QueryService(max_concurrent=2, max_queue=8).start()
        try:
            with repro.connect(service.address) as cli:
                qid = cli.submit(MOBILE_SQL, volume=20)
                full = cli.wait(qid, timeout_s=120.0)
                assert len(full["rows"]) > 7  # multi-page at limit=3
                yield service, cli, qid, full
        finally:
            service.stop()

    def test_pages_concatenate_bit_identically(self, done_query):
        service, cli, qid, full = done_query
        pages, offset = [], 0
        while True:
            page = cli.result(qid, timeout_s=5.0, offset=offset, limit=3)["result"]
            assert page["total_rows"] == len(full["rows"])
            assert page["offset"] == offset
            assert len(page["rows"]) <= 3
            pages.extend(page["rows"])
            if page["next_offset"] is None:
                break
            assert page["next_offset"] == offset + len(page["rows"])
            offset = page["next_offset"]
        assert pages == full["rows"]

    def test_in_process_pages_equal_the_shared_unpaged_rows(self, done_query):
        """The session keeps the executor's row tuples as they are (no
        re-tupled copy): paged and unpaged fetches read the same list."""
        service, cli, qid, full = done_query
        unpaged = service.result(qid, timeout_s=5.0)["result"]["rows"]
        assert all(type(row) is tuple for row in unpaged)
        paged, offset = [], 0
        while offset is not None:
            page = service.result(qid, timeout_s=5.0, offset=offset, limit=4)
            paged.extend(page["result"]["rows"])
            offset = page["result"]["next_offset"]
        assert paged == unpaged == full["rows"]
        assert service.result(qid, timeout_s=5.0)["result"]["rows"] is unpaged

    def test_iter_rows_streams_the_reference_rows(self, done_query):
        service, cli, qid, full = done_query
        assert list(cli.iter_rows(qid, page_size=3)) == full["rows"]

    def test_page_carries_result_metadata(self, done_query):
        service, cli, qid, full = done_query
        page = cli.result(qid, timeout_s=5.0, offset=0, limit=1)["result"]
        assert page["columns"] == full["columns"]
        assert page["output_records"] == full["output_records"]

    def test_offset_past_end_is_an_empty_last_page(self, done_query):
        service, cli, qid, full = done_query
        page = cli.result(
            qid, timeout_s=5.0, offset=len(full["rows"]) + 100, limit=5
        )["result"]
        assert page["rows"] == []
        assert page["next_offset"] is None

    def test_malformed_page_request_is_structured(self, done_query):
        service, cli, qid, full = done_query
        with pytest.raises(ServiceError):
            cli.result(qid, timeout_s=5.0, offset=-1, limit=5)
        with pytest.raises(ServiceError):
            cli.result(qid, timeout_s=5.0, offset=0, limit=0)
        # The connection survives the bad request.
        assert cli.status(qid)["state"] == DONE


class TestOversizedResult:
    def test_oversize_unpaginated_fetch_steers_to_pages(self, monkeypatch):
        """Satellite 1: a result bigger than the byte budget must come
        back as a structured ``result-too-large`` error (connection and
        DONE session both intact), and the same rows must then stream
        out page by page, bit-identical to the reference."""
        monkeypatch.setattr(coordinator_mod, "RESULT_MAX_BYTES", 512)
        service = QueryService(max_concurrent=2, max_queue=8).start()
        try:
            with repro.connect(service.address) as cli:
                qid = cli.submit(MOBILE_SQL, volume=20)
                with pytest.raises(ResultTooLarge) as excinfo:
                    cli.wait(qid, timeout_s=120.0)
                assert excinfo.value.code == "result-too-large"
                assert excinfo.value.details["max_bytes"] == 512
                assert excinfo.value.details["result_bytes"] > 512
                # Same connection, same session: the rows still stream.
                assert cli.status(qid)["state"] == DONE
                rows = list(cli.iter_rows(qid, page_size=2))
                assert rows == expected_rows(MOBILE_SQL, volume=20)
        finally:
            service.stop()

    def test_oversize_page_is_rejected_not_sent(self, monkeypatch):
        monkeypatch.setattr(coordinator_mod, "RESULT_MAX_BYTES", 512)
        service = QueryService(max_concurrent=2, max_queue=8).start()
        try:
            with repro.connect(service.address) as cli:
                qid = cli.submit(MOBILE_SQL, volume=20)
                assert wait_for(
                    lambda: cli.status(qid)["terminal"], timeout_s=120.0
                )
                total = cli.result(qid, timeout_s=5.0, offset=0, limit=1)[
                    "result"
                ]["total_rows"]
                with pytest.raises(ResultTooLarge):
                    cli.result(qid, timeout_s=5.0, offset=0, limit=total)
        finally:
            service.stop()

    def test_forced_small_frame_cap_send_guard(self, monkeypatch):
        """Defense in depth: even when an oversized reply slips past the
        endpoint's budget, the wire layer refuses it *before* any bytes
        leave and the connection answers with a structured error instead
        of dying mid-frame (the pre-PR-10 failure mode)."""
        service = QueryService(max_concurrent=1, max_queue=4).start()
        monkeypatch.setattr(wire, "MAX_FRAME_BYTES", 4096)
        monkeypatch.setattr(
            QueryService,
            "result",
            lambda self, qid, timeout_s=60.0, offset=None, limit=None: {
                "padding": "x" * 100_000
            },
        )
        try:
            with repro.connect(service.address) as cli:
                with pytest.raises(ResultTooLarge):
                    cli.result("q1", timeout_s=1.0)
                # The connection survived the refused frame.
                assert cli.stats()["max_queue"] == 4
        finally:
            service.stop()

    def test_send_frame_refuses_oversize_before_sending(self, monkeypatch):
        monkeypatch.setattr(wire, "MAX_FRAME_BYTES", 1024)
        with pytest.raises(wire.WireError, match="page the payload"):
            wire.send_frame(None, "y" * 10_000)  # refused before any I/O
