"""The coordinator kill-and-restart drill, across real processes.

The ISSUE-9 acceptance scenario: a ``repro serve`` subprocess running a
multi-wave cascade is SIGKILLed mid-query — at a journal record
boundary: its session pauses for good right after journaling its N-th
checkpointed wave (``chaos.spawn_paused_service``).  A second
coordinator started with ``--recover`` on the same journal must resume
the query under its original id, replay every already-checkpointed
wave from the blob tier (zero re-execution), and produce rows
bit-identical to a local serial reference.
"""

import sys
from pathlib import Path

import repro
import chaos
from repro.serve.coordinator import spawn_service
from repro.storage import read_records

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "mapreduce"))
from conformance import serial_reference_rows  # noqa: E402

# A three-job cascade on the mobile workload: three sequential waves,
# so a mid-query kill can land with some (not all) waves persisted.
CASCADE_SQL = (
    "SELECT t3.id FROM table t1, table t2, table t3, table t4 "
    "WHERE t1.d = t2.d AND t1.bt <= t2.bt AND t2.bsc = t3.bsc "
    "AND t3.d = t4.d AND t3.bt <= t4.bt"
)


def wave_digests(journal_path, restored):
    records, _torn = read_records(journal_path)
    return {
        record["digest"]
        for record in records
        if record.get("kind") == "wave"
        and bool(record.get("restored")) is restored
    }


def test_sigkill_recover_resumes_from_checkpoint_frontier(tmp_path):
    journal_path = tmp_path / "serve.journal"
    env = {
        "REPRO_EXEC_BACKEND": "serial",
        "REPRO_CHECKPOINT": "1",
        "REPRO_CACHE_DIR": str(tmp_path / "cache"),
    }
    # The first coordinator's session stops for good after its second
    # journaled wave, so the kill lands there, before the cascade ends.
    proc, addr = chaos.spawn_paused_service(
        2, extra_args=("--journal", str(journal_path)), env_extra=env
    )
    qid = None
    try:
        with repro.connect(addr, timeout_s=15.0) as client:
            qid = client.submit(CASCADE_SQL, method="pig")
        chaos.wait_for_journal_waves(journal_path, waves=2, timeout_s=60.0)
    finally:
        chaos.kill_coordinator(proc)

    stored = wave_digests(journal_path, restored=False)
    assert len(stored) == 2
    records, _torn = read_records(journal_path)
    assert not any(r.get("kind") == "terminal" for r in records), (
        "the kill was supposed to land mid-query"
    )

    proc2, addr2 = spawn_service(
        extra_args=("--journal", str(journal_path), "--recover"),
        env_extra=env,
    )
    try:
        with repro.connect(addr2, timeout_s=15.0) as client:
            payload = client.wait(qid, timeout_s=120.0)
        assert [tuple(row) for row in payload["rows"]] == (
            serial_reference_rows(CASCADE_SQL, method="pig")
        )
        # Every wave the first coordinator persisted was replayed, not
        # re-executed: run 2 restored a superset of run 1's digests and
        # never stored one of them again.
        restored = wave_digests(journal_path, restored=True)
        assert stored <= restored
        assert payload["checkpoint_hits"] >= len(stored)
        later_stores = wave_digests(journal_path, restored=False) - stored
        assert not (later_stores & stored)
    finally:
        chaos.kill_coordinator(proc2)


def test_recover_banner_reports_the_resume(tmp_path):
    """The --recover banner is the operator's one-line audit trail."""
    journal_path = tmp_path / "serve.journal"
    env = {
        "REPRO_EXEC_BACKEND": "serial",
        "REPRO_WORKERS_ADDRS": "",  # a fleet inherited from CI is not this test's
        "REPRO_CHECKPOINT": "1",
        "REPRO_CACHE_DIR": str(tmp_path / "cache"),
    }
    proc, addr = chaos.spawn_paused_service(
        1, extra_args=("--journal", str(journal_path)), env_extra=env
    )
    try:
        with repro.connect(addr, timeout_s=15.0) as client:
            client.submit(CASCADE_SQL, method="pig")
        chaos.wait_for_journal_waves(journal_path, waves=1, timeout_s=60.0)
    finally:
        chaos.kill_coordinator(proc)

    proc2, addr2 = spawn_service(
        extra_args=("--journal", str(journal_path), "--recover"),
        env_extra=env,
    )
    try:
        banner = proc2.stdout.readline()  # line 2: the journal banner
        assert "repro-serve journal:" in banner
        assert "1 resumed" in banner
    finally:
        chaos.kill_coordinator(proc2)
