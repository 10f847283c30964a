"""The coordinator's memory is bounded by concurrency, not by history.

Finished sessions stay addressable only inside a fixed retention window
(``RETAINED_SESSIONS`` terminal sessions, ``RETAINED_RESULT_ROWS`` result
rows), generated relation sets are an LRU, and a ``--recover`` start
applies the same window to the journal.  Every test drives a real
:class:`QueryService` over the wire.
"""

import pickle
import sys
import threading

import pytest

import repro
from repro.errors import ServiceError
from repro.serve import durability
from repro.serve.coordinator import RELATION_SETS_CACHED, QueryService
from repro.serve.durability import RETAINED_SESSIONS
from repro.serve.session import DONE, QUEUED, TERMINAL_STATES
from repro.storage import SessionJournal, blob_digest, blob_tier

from tests.serve.test_recovery import expected_rows, submit_record
from tests.serve.test_service import MOBILE_SQL, wait_for

FLOOD = RETAINED_SESSIONS + 20


@pytest.fixture
def service():
    svc = QueryService(max_concurrent=2, max_queue=8).start()
    yield svc
    svc.stop()


@pytest.fixture
def client(service):
    with repro.connect(service.address, timeout_s=15.0) as cli:
        yield cli


def settled(service, submitted):
    """Every submitted query has been entered into the retention window
    (the terminal bookkeeping runs a beat after ``done`` is set)."""
    return wait_for(
        lambda: service.service_stats()["sessions_retained"]
        + service.service_stats()["sessions_evicted"]
        == submitted
    )


class TestRetentionWindow:
    def test_flood_of_short_queries_stays_bounded(self, service, client):
        want = {seed: expected_rows(seed=seed) for seed in range(3)}
        ids = []
        for index in range(FLOOD):
            query_id = client.execute(MOBILE_SQL, seed=index % 3)
            ids.append(query_id)
            assert client.wait(query_id)["rows"] == want[index % 3]
            assert len(service.ledger.sessions) <= RETAINED_SESSIONS + 1
        assert settled(service, FLOOD)
        assert len(service.ledger.sessions) == RETAINED_SESSIONS
        assert len(service._relations_cache.data) <= RELATION_SETS_CACHED
        stats = client.stats()
        assert stats["sessions_retained"] == RETAINED_SESSIONS
        assert stats["sessions_evicted"] == FLOOD - RETAINED_SESSIONS
        assert stats["done"] == FLOOD

        # The newest K are all still there, whole or page by page.
        for index, query_id in list(enumerate(ids))[-RETAINED_SESSIONS:]:
            rows = want[index % 3]
            assert client.result(query_id)["result"]["rows"] == rows
            assert list(client.iter_rows(query_id, page_size=7)) == rows
        # Everything older is gone, and says so.
        for query_id in ids[: FLOOD - RETAINED_SESSIONS]:
            with pytest.raises(ServiceError) as caught:
                client.status(query_id)
            assert "unknown query id" in str(caught.value)
            assert caught.value.details["expired"] is True
            with pytest.raises(ServiceError) as caught:
                client.result(query_id, offset=0, limit=5)
            assert caught.value.details["expired"] is True

    def test_never_issued_ids_are_unknown_not_expired(self, client):
        client.run(MOBILE_SQL)
        for bogus in ("q99", "q0", "q01", "nope", "q", 7):
            with pytest.raises(ServiceError) as caught:
                client.status(bogus)
            assert "expired" not in caught.value.details

    def test_relation_sets_are_an_lru(self, service, client):
        for seed in range(RELATION_SETS_CACHED + 4):
            client.run(MOBILE_SQL, seed=seed)
        assert len(service._relations_cache.data) == RELATION_SETS_CACHED
        assert ("mobile", 0, 0) not in service._relations_cache.data
        assert client.run(MOBILE_SQL, seed=0)["rows"] == expected_rows(seed=0)

    def test_live_sessions_survive_a_flood_of_finished_ones(self):
        svc = QueryService(max_concurrent=1, max_queue=8).start()
        try:
            with repro.connect(svc.address, client_id="slow") as slow, repro.connect(
                svc.address, client_id="fast"
            ) as fast:
                # Park one session mid-planning (it holds the only slot)
                # and queue another behind it.
                with svc._planning_lock:
                    running = slow.execute(MOBILE_SQL, seed=1)
                    assert wait_for(lambda: svc._running == 1)
                    queued = slow.execute(MOBILE_SQL, seed=2)
                    assert svc.ledger.sessions[queued].state == QUEUED
                    # Nothing can finish while planning is parked, but a
                    # queued query that is cancelled is terminal at once.
                    for _ in range(FLOOD):
                        fast.cancel(fast.execute(MOBILE_SQL))
                    assert settled(svc, FLOOD)
                    assert len(svc.ledger.sessions) == RETAINED_SESSIONS + 2
                    assert svc.ledger.sessions[running].state not in TERMINAL_STATES
                    assert svc.ledger.sessions[queued].state == QUEUED
                assert slow.wait(running)["rows"] == expected_rows(seed=1)
                assert slow.wait(queued)["rows"] == expected_rows(seed=2)
        finally:
            svc.stop()

    def test_delivered_sessions_go_first_and_rows_are_capped(
        self, service, client, monkeypatch
    ):
        rows = len(expected_rows())
        monkeypatch.setattr(durability, "RETAINED_RESULT_ROWS", 3 * rows)
        first = client.execute(MOBILE_SQL)
        second = client.execute(MOBILE_SQL)
        third = client.execute(MOBILE_SQL)
        for query_id in (first, second, third):
            assert wait_for(lambda: client.status(query_id)["state"] == DONE)
        client.result(second)  # delivered; `first` is older but unfetched
        assert settled(service, 3)
        fourth = client.run(MOBILE_SQL)
        assert fourth["rows"] == expected_rows()
        assert settled(service, 4)
        assert client.stats()["sessions_evicted"] == 1
        with pytest.raises(ServiceError) as caught:
            client.status(second)
        assert caught.value.details["expired"] is True
        assert client.result(first)["result"]["rows"] == expected_rows()

    def test_one_oversized_result_is_still_served(self, service, client, monkeypatch):
        monkeypatch.setattr(durability, "RETAINED_RESULT_ROWS", 1)
        older = client.execute(MOBILE_SQL)
        client.wait(older)
        assert client.run(MOBILE_SQL, seed=1)["rows"] == expected_rows(seed=1)
        assert settled(service, 2)
        assert len(service.ledger.sessions) == 1


    def test_concurrent_clients_keep_the_books_consistent(self, service):
        """More client threads than cores, a short switch interval: a lost
        update would break retained + evicted == finished or the row sum."""
        per_client, clients = 25, 6
        errors = []

        def one_client(number):
            try:
                with repro.connect(service.address, timeout_s=30.0) as cli:
                    for index in range(per_client):
                        query_id = cli.execute(MOBILE_SQL, seed=(number + index) % 3)
                        cli.wait(query_id, timeout_s=60.0)
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=one_client, args=(n,)) for n in range(clients)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120.0)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert not errors
        assert settled(service, per_client * clients)
        with service._cond:
            assert len(service.ledger.sessions) == RETAINED_SESSIONS
            assert set(service.ledger._terminal_rows) == set(service.ledger.sessions)
            assert service.ledger._retained_rows == sum(service.ledger._terminal_rows.values())
            assert service.ledger._retained_rows == sum(
                len(s.result["rows"]) for s in service.ledger.sessions.values()
            )


class TestRecoveryIsBounded:
    def test_recover_over_a_long_journal_comes_up_bounded(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        journal_path = str(tmp_path / "serve.journal")
        rows = expected_rows()
        blobs = blob_tier()
        journal = SessionJournal(journal_path, fsync=False)
        for index in range(1, FLOOD + 1):
            payload = pickle.dumps({"columns": ["t2_id"], "rows": rows, "tag": index})
            assert blobs.put(blob_digest(payload), payload)
            journal.append(submit_record(f"q{index}"))
            journal.append(
                {
                    "kind": "terminal",
                    "id": f"q{index}",
                    "state": DONE,
                    "error": None,
                    "result": blob_digest(payload),
                }
            )
        journal.append(submit_record(f"q{FLOOD + 1}"))  # still in flight
        journal.close()
        service = QueryService(journal_path=journal_path, recover=True).start()
        try:
            assert service.ledger.recovered["done"] == FLOOD
            assert service.ledger.recovered["requeued"] == 1
            # Only the retained window's results were read back.
            assert service.ledger._blob_store().hits == RETAINED_SESSIONS
            with repro.connect(service.address, timeout_s=15.0) as client:
                assert client.wait(f"q{FLOOD + 1}")["rows"] == rows
                assert settled(service, FLOOD + 1)
                assert len(service.ledger.sessions) == RETAINED_SESSIONS
                stats = client.stats()
                assert stats["sessions_retained"] == RETAINED_SESSIONS
                assert stats["sessions_evicted"] == FLOOD + 1 - RETAINED_SESSIONS
                # Newest journaled results are served from their blobs...
                newest = client.result(f"q{FLOOD}")["result"]
                assert (newest["tag"], newest["rows"]) == (FLOOD, rows)
                # ...the oldest were never re-materialised.
                with pytest.raises(ServiceError) as caught:
                    client.result("q1")
                assert caught.value.details["expired"] is True
                # Fresh ids continue after the journal's highest.
                assert client.execute(MOBILE_SQL) == f"q{FLOOD + 2}"
        finally:
            service.stop()
