"""Coordinator crash recovery from the session journal (in-process).

A ``QueryService`` built with ``recover=True`` replays its journal
before the admitter thread starts: terminal sessions come back whole
(DONE results served from the blob tier, never re-executed), sessions
that were in flight re-queue under their original ids with fresh
deadline budgets, and a torn tail costs at most the record that was
mid-append.  A DONE record holds the digest of its result's blob; a
result that cannot be read back re-runs the query.  The subprocess
SIGKILL drill lives in ``test_recovery_subprocess.py``; here every crash
is simulated by stopping one service and recovering a second from the
same journal.
"""

import pickle

import pytest

import repro
from repro.cli import PLANNERS
from repro.core.executor import PlanExecutor
from repro.mapreduce.config import ClusterConfig
from repro.mapreduce.runtime import SimulatedCluster
from repro.relational.sql import parse_join_query
from repro.serve.coordinator import QueryService
from repro.serve.session import DONE, FAILED, QUEUED, RUNNING, QuerySession
from repro.storage import (
    DiskBlobStore,
    SessionJournal,
    blob_digest,
    blob_tier,
    is_digest,
    read_records,
)
from repro.workloads import workload_relations

MOBILE_SQL = (
    "SELECT t2.id FROM table t1, table t2 "
    "WHERE t1.d = t2.d AND t1.bt <= t2.bt"
)


def expected_rows(sql=MOBILE_SQL, seed=0, method="ours"):
    relations = workload_relations("mobile", 0, seed)
    query = parse_join_query(sql, relations, name="reference")
    config = ClusterConfig()
    plan = PLANNERS[method](config).plan(query)
    outcome = PlanExecutor(SimulatedCluster(config)).execute(plan, query)
    return [tuple(row) for row in outcome.result.rows]


def submit_record(qid, sql=MOBILE_SQL, seed=0):
    return {
        "kind": "submit",
        "id": qid,
        "spec": {
            "sql": sql,
            "workload": "mobile",
            "volume": 0,
            "seed": seed,
            "method": "ours",
            "deadline_s": None,
            "knobs": {},
        },
    }


def wait_rows(service, qid, timeout_s=60.0):
    with repro.connect(service.address, timeout_s=15.0) as client:
        return [tuple(row) for row in client.wait(qid, timeout_s=timeout_s)["rows"]]


class TestDoneRecovery:
    def test_done_session_served_from_journal_not_reexecuted(self, tmp_path):
        journal_path = str(tmp_path / "serve.journal")
        first = QueryService(journal_path=journal_path).start()
        try:
            with repro.connect(first.address, timeout_s=15.0) as client:
                qid = client.submit(MOBILE_SQL, seed=0)
                rows = [tuple(r) for r in client.wait(qid, timeout_s=60.0)["rows"]]
            result_bytes = first.ledger.sessions[qid].result_bytes
        finally:
            first.stop()
        assert rows == expected_rows(seed=0)
        # The terminal record holds the result blob's digest, not rows.
        terminal = [r for r in read_records(journal_path)[0] if r["kind"] == "terminal"]
        assert [(r["state"], is_digest(r["result"])) for r in terminal] == [(DONE, True)]

        second = QueryService(journal_path=journal_path, recover=True).start()
        try:
            assert second.ledger.recovered["done"] == 1
            assert second.ledger.recovered["resumed"] == 0
            assert second.ledger.recovered["result_lost"] == 0
            # Served straight from the result blob: the submitted
            # counter never moves, nothing re-runs.
            assert second.stats["submitted"] == 0
            assert wait_rows(second, qid, timeout_s=15.0) == rows
            assert second.ledger.sessions[qid].result_bytes == result_bytes > 0
            stats = second.service_stats()
            assert stats["recovered"]["done"] == 1
            assert stats["journal"]["bytes"] > 0
        finally:
            second.stop()

    def test_done_is_not_observable_before_it_is_journaled(self, tmp_path):
        """Durable before visible: while the terminal record is still on
        its way into the journal, ``status`` must not say DONE and
        ``result`` must not hand out rows — a crash in that window would
        otherwise lose a result the client was already told about."""
        import threading

        journal_path = str(tmp_path / "serve.journal")
        service = QueryService(journal_path=journal_path).start()
        appending, release = threading.Event(), threading.Event()
        append = service.ledger.append

        def held_append(record):
            if record["kind"] == "terminal":
                appending.set()
                assert release.wait(30.0)
            append(record)

        service.ledger.append = held_append
        try:
            with repro.connect(service.address, timeout_s=15.0) as client:
                qid = client.submit(MOBILE_SQL, seed=0)
                assert appending.wait(60.0)
                # The query has finished computing; its outcome is not durable yet.
                status = client.status(qid)
                assert status["state"] == "RUNNING" and not status["terminal"]
                assert not client.result(qid, timeout_s=0.05)["terminal"]
                assert not any(
                    r["kind"] == "terminal" for r in read_records(journal_path)[0]
                )
                release.set()
                rows = [tuple(r) for r in client.wait(qid, timeout_s=30.0)["rows"]]
                # ... and once DONE is visible, the record is already on disk.
                terminal = [
                    r for r in read_records(journal_path)[0] if r["kind"] == "terminal"
                ]
                assert [(r["id"], r["state"]) for r in terminal] == [(qid, "DONE")]
        finally:
            release.set()
            service.stop()
        assert rows == expected_rows(seed=0)

    def test_recovered_ids_never_collide(self, tmp_path):
        journal_path = str(tmp_path / "serve.journal")
        first = QueryService(journal_path=journal_path).start()
        try:
            with repro.connect(first.address, timeout_s=15.0) as client:
                qid = client.submit(MOBILE_SQL, seed=0)
                client.wait(qid, timeout_s=60.0)
        finally:
            first.stop()
        second = QueryService(journal_path=journal_path, recover=True).start()
        try:
            with repro.connect(second.address, timeout_s=15.0) as client:
                fresh = client.submit(MOBILE_SQL, seed=1)
            assert fresh != qid
            assert int(fresh.lstrip("q")) > int(qid.lstrip("q"))
        finally:
            second.stop()


class TestCrashMidFlight:
    def test_running_session_resumes_and_completes(self, tmp_path, monkeypatch):
        """A journal whose last word on q1 is RUNNING (no terminal):
        recovery re-queues it under its original id and it runs to DONE
        with the reference rows."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.setenv("REPRO_CHECKPOINT", "1")
        journal_path = tmp_path / "serve.journal"
        journal = SessionJournal(journal_path, fsync=False)
        journal.append(submit_record("q1"))
        journal.append({"kind": "state", "id": "q1", "state": RUNNING})
        journal.close()

        service = QueryService(
            journal_path=str(journal_path), recover=True
        ).start()
        try:
            assert service.ledger.recovered["resumed"] == 1
            assert wait_rows(service, "q1") == expected_rows(seed=0)
            assert service.ledger.sessions["q1"].state == DONE
        finally:
            service.stop()
        # The rerun journaled its own lifecycle into the same file.
        records, torn = read_records(journal_path)
        assert not torn
        kinds = [r["kind"] for r in records if r.get("id") == "q1"]
        assert kinds.count("terminal") == 1

    def test_resumed_session_restores_checkpointed_waves(
        self, tmp_path, monkeypatch
    ):
        """With a warm checkpoint tier, the resumed run replays every
        wave from storage instead of recomputing it."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.setenv("REPRO_CHECKPOINT", "1")
        journal_path = str(tmp_path / "serve.journal")

        first = QueryService(journal_path=journal_path).start()
        try:
            with repro.connect(first.address, timeout_s=15.0) as client:
                qid = client.submit(MOBILE_SQL, seed=0)
                payload = client.wait(qid, timeout_s=60.0)
                rows = [tuple(r) for r in payload["rows"]]
                assert payload["checkpoint_stores"] > 0
        finally:
            first.stop()

        # Forge the crash: strip q1's terminal record so recovery sees a
        # query that died mid-flight, with its waves already persisted.
        records, torn = read_records(journal_path)
        assert not torn
        survivors = [r for r in records if r.get("kind") != "terminal"]
        rewritten = SessionJournal(tmp_path / "rewritten.journal", fsync=False)
        for record in survivors:
            rewritten.append(record)
        rewritten.close()

        second = QueryService(
            journal_path=str(tmp_path / "rewritten.journal"), recover=True
        ).start()
        try:
            assert second.ledger.recovered["resumed"] == 1
            with repro.connect(second.address, timeout_s=15.0) as client:
                payload = client.wait(qid, timeout_s=60.0)
            assert [tuple(r) for r in payload["rows"]] == rows
            # Zero re-executed waves: the resume was all restores.
            assert payload["checkpoint_hits"] > 0
            assert payload["checkpoint_stores"] == 0
        finally:
            second.stop()

    def test_queued_session_is_readmitted(self, tmp_path):
        journal_path = tmp_path / "serve.journal"
        journal = SessionJournal(journal_path, fsync=False)
        journal.append(submit_record("q7", seed=3))
        journal.close()
        service = QueryService(
            journal_path=str(journal_path), recover=True
        ).start()
        try:
            assert service.ledger.recovered["requeued"] == 1
            assert wait_rows(service, "q7") == expected_rows(seed=3)
        finally:
            service.stop()

    def test_torn_tail_is_tolerated(self, tmp_path):
        journal_path = tmp_path / "serve.journal"
        journal = SessionJournal(journal_path, fsync=False)
        journal.append(submit_record("q1"))
        journal.close()
        with open(journal_path, "ab") as handle:
            handle.write(b"\x07\x00\x00")  # crash mid-header
        service = QueryService(
            journal_path=str(journal_path), recover=True
        ).start()
        try:
            assert service.ledger.recovered["torn"] is True
            assert service.ledger.recovered["requeued"] == 1
            assert wait_rows(service, "q1") == expected_rows(seed=0)
        finally:
            service.stop()


class TestSchedulingMetadataRecovery:
    def test_client_and_priority_survive_recovery(self, tmp_path):
        """Submits are journaled with their scheduling metadata, so a
        recovered coordinator re-admits sessions under their original
        tenant and priority — the fairness drill holds across restart."""
        journal_path = str(tmp_path / "serve.journal")
        first = QueryService(
            journal_path=journal_path, max_concurrent=1, max_queue=16
        ).start()
        try:
            with repro.connect(first.address) as client:
                with first._planning_lock:
                    client.submit(MOBILE_SQL, client_id="bulk", priority=0)
                    flood = [
                        client.submit(
                            MOBILE_SQL, seed=s, client_id="bulk", priority=0
                        )
                        for s in range(1, 4)
                    ]
                    vip = client.submit(
                        MOBILE_SQL, seed=9, client_id="vip", priority=9
                    )
                    # "Crash" with everything still queued/running.
        finally:
            first.stop()

        second = QueryService(
            journal_path=journal_path,
            recover=True,
            max_concurrent=1,
            max_queue=16,
        ).start()
        try:
            session = second.ledger.sessions[vip]
            assert session.client_id == "vip"
            assert session.priority == 9
            for qid in flood:
                assert second.ledger.sessions[qid].client_id == "bulk"
                assert second.ledger.sessions[qid].priority == 0
            # Priority survives: vip completes before the flood drains.
            assert wait_rows(second, vip) == expected_rows(seed=9)
            for qid in flood:
                wait_rows(second, qid, timeout_s=120.0)
            vip_s = second.ledger.sessions[vip]
            vip_admitted = vip_s.submitted_at + vip_s.state_times["ADMITTED"]
            for qid in flood:
                s = second.ledger.sessions[qid]
                assert vip_admitted < s.submitted_at + s.state_times["ADMITTED"]
        finally:
            second.stop()

    def test_legacy_submit_records_default_scheduling_fields(self, tmp_path):
        """Pre-PR-10 journals carry no client_id/priority; recovery must
        default them, not crash."""
        journal_path = tmp_path / "serve.journal"
        journal = SessionJournal(journal_path, fsync=False)
        journal.append(submit_record("q3", seed=1))
        journal.close()
        service = QueryService(
            journal_path=str(journal_path), recover=True
        ).start()
        try:
            session = service.ledger.sessions["q3"]
            assert session.client_id == "default"
            assert session.priority == 1
            assert wait_rows(service, "q3") == expected_rows(seed=1)
        finally:
            service.stop()


class TestResultBlobs:
    def test_a_failed_put_journals_no_digest(self, tmp_path, monkeypatch):
        """An unwritable blob tier costs the shortcut, not the outcome:
        the client still gets its rows and the record says ``None``."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.setattr(DiskBlobStore, "put", lambda self, digest, payload: False)
        journal_path = str(tmp_path / "serve.journal")
        service = QueryService(journal_path=journal_path).start()
        try:
            with repro.connect(service.address) as client:
                qid = client.submit(MOBILE_SQL)
            assert wait_rows(service, qid) == expected_rows(seed=0)
        finally:
            service.stop()
        terminal = [r for r in read_records(journal_path)[0] if r["kind"] == "terminal"]
        assert [(r["state"], r["result"]) for r in terminal] == [(DONE, None)]

    @pytest.mark.parametrize(
        "case",
        [
            "list-blob",
            "dict-without-list-rows",
            "inline-dict",
            "none",
            "deleted-blob",
            "inline-list",
            "old-stub-to-list-blob",
        ],
    )
    def test_a_lost_result_reexecutes(self, tmp_path, monkeypatch, case):
        """A DONE record whose result cannot be served — a blob that is
        no result, a pre-blob inline dict or list or size-switched stub,
        no digest (the put failed), a blob that is gone — is not a lost
        query: the daemon starts, ``result_lost`` counts the session, and
        it re-runs from its submit record to the rows of a fresh run."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        store = blob_tier()

        def blob(value):
            payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
            assert store.put(blob_digest(payload), payload)
            return blob_digest(payload)

        fresh = expected_rows(seed=0)
        if case == "list-blob":
            result = blob(["not", "a", "result"])
        elif case == "dict-without-list-rows":
            result = blob({"columns": ["t2.id"], "rows": tuple(fresh)})
        elif case == "inline-dict":
            result = {"columns": ["t2.id"], "rows": fresh}
        elif case == "none":
            result = None
        elif case == "inline-list":
            result = ["not", "a", "result"]
        elif case == "old-stub-to-list-blob":
            result = {"__journal_blob__": blob(["not", "a", "result"]), "bytes": 30}
        else:
            result = blob({"columns": ["t2.id"], "rows": fresh})
            store.discard(result)
        journal_path = tmp_path / "serve.journal"
        journal = SessionJournal(journal_path, fsync=False)
        journal.append(submit_record("q1"))
        journal.append({"kind": "state", "id": "q1", "state": RUNNING})
        journal.append(
            {"kind": "terminal", "id": "q1", "state": DONE, "error": None, "result": result}
        )
        journal.close()

        service = QueryService(journal_path=str(journal_path), recover=True).start()
        try:
            assert service.ledger.recovered["result_lost"] == 1
            assert service.ledger.recovered["done"] == 0
            assert service.ledger.recovered["resumed"] == 1
            assert wait_rows(service, "q1", timeout_s=120.0) == fresh
        finally:
            service.stop()
        terminal = [r for r in read_records(journal_path)[0] if r["kind"] == "terminal"]
        assert is_digest(terminal[-1]["result"])


class TestMalformedSubmitRecords:
    @pytest.mark.parametrize(
        "mangle",
        [
            lambda spec: [spec["sql"]],
            lambda spec: {**spec, "volume": "abc"},
            lambda spec: {**spec, "knobs": ["REPRO_EXEC_BACKEND"]},
            lambda spec: {**spec, "deadline_s": "soon"},
        ],
        ids=["spec-is-a-list", "volume-not-a-number", "knobs-is-a-list", "deadline-not-a-number"],
    )
    def test_a_spec_that_fails_the_submit_check_comes_back_failed(
        self, tmp_path, mangle
    ):
        """A submit record with a valid CRC but a spec the submit check
        refuses does not stop the daemon: the session comes back FAILED
        with ``admission-rejected``, and the records after it replay."""
        journal_path = tmp_path / "serve.journal"
        journal = SessionJournal(journal_path, fsync=False)
        bad = submit_record("q1")
        journal.append({**bad, "spec": mangle(bad["spec"])})
        journal.append(submit_record("q2", seed=2))
        journal.close()
        service = QueryService(journal_path=str(journal_path), recover=True).start()
        try:
            assert service.ledger.recovered["other_terminal"] == 1
            assert service.ledger.recovered["requeued"] == 1
            session = service.ledger.sessions["q1"]
            assert session.state == FAILED
            assert session.error["code"] == "admission-rejected"
            assert wait_rows(service, "q2") == expected_rows(seed=2)
        finally:
            service.stop()


class TestGuards:
    def test_recover_requires_a_journal(self):
        with pytest.raises(ValueError, match="journal"):
            QueryService(recover=True)

    def test_restore_terminal_rejects_non_terminal_states(self):
        session = QuerySession(query_id="q1", sql=MOBILE_SQL)
        with pytest.raises(ValueError):
            session.restore_terminal(QUEUED)
        session.restore_terminal(DONE, result={"rows": []})
        assert session.state == DONE
        assert session.done.is_set()
