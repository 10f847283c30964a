"""The coordinator kill-and-restart drill, across real processes.

The ISSUE-9 acceptance scenario: a ``repro serve`` subprocess running a
multi-wave cascade is SIGKILLed mid-query — after some waves were
checkpointed and journaled, before the query finished.  A second
coordinator started with ``--recover`` on the same journal must resume
the query under its original id, replay every already-checkpointed
wave from the blob tier (zero re-execution), and produce rows
bit-identical to a local serial reference.
"""

from repro.cli import PLANNERS
from repro.core.executor import PlanExecutor
from repro.mapreduce.config import ClusterConfig
from repro.mapreduce.runtime import SimulatedCluster
from repro.relational.sql import parse_join_query
import repro
from repro.serve import chaos
from repro.serve.coordinator import spawn_service
from repro.storage import read_records
from repro.workloads import workload_relations

# A three-job cascade on the mobile workload: three sequential waves,
# so a mid-query kill can land with some (not all) waves persisted.
CASCADE_SQL = (
    "SELECT t3.id FROM table t1, table t2, table t3, table t4 "
    "WHERE t1.d = t2.d AND t1.bt <= t2.bt AND t2.bsc = t3.bsc "
    "AND t3.d = t4.d AND t3.bt <= t4.bt"
)


def serial_reference_rows():
    relations = workload_relations("mobile", 0, 0)
    query = parse_join_query(CASCADE_SQL, relations, name="reference")
    config = ClusterConfig()
    plan = PLANNERS["pig"](config).plan(query)
    outcome = PlanExecutor(SimulatedCluster(config)).execute(plan, query)
    return [tuple(row) for row in outcome.result.rows]


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
        # Widen the inter-wave window so the kill reliably lands after
        # two checkpointed waves, before the cascade finishes.
        "REPRO_WAVE_DELAY_S": "1.5",
    }
    proc, addr = spawn_service(
        extra_args=("--journal", str(journal_path)), env_extra=env
    )
    qid = None
    try:
        with repro.connect(addr, timeout_s=15.0) as client:
            qid = client.submit(CASCADE_SQL, method="pig")
        chaos.wait_for_journal_waves(
            journal_path, min_waves=2, timeout_s=60.0, restored=False
        )
    finally:
        chaos.kill_coordinator(proc)

    stored = wave_digests(journal_path, restored=False)
    assert len(stored) >= 2
    records, _torn = read_records(journal_path)
    assert not any(r.get("kind") == "terminal" for r in records), (
        "the kill was supposed to land mid-query"
    )

    env["REPRO_WAVE_DELAY_S"] = "0"
    proc2, addr2 = spawn_service(
        extra_args=("--journal", str(journal_path), "--recover"),
        env_extra=env,
    )
    try:
        with repro.connect(addr2, timeout_s=15.0) as client:
            payload = client.wait(qid, timeout_s=120.0)
        assert [tuple(row) for row in payload["rows"]] == (
            serial_reference_rows()
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
        "REPRO_WAVE_DELAY_S": "1.5",
    }
    proc, addr = spawn_service(
        extra_args=("--journal", str(journal_path)), env_extra=env
    )
    try:
        with repro.connect(addr, timeout_s=15.0) as client:
            client.submit(CASCADE_SQL, method="pig")
        chaos.wait_for_journal_waves(
            journal_path, min_waves=1, timeout_s=60.0, restored=False
        )
    finally:
        chaos.kill_coordinator(proc)

    env["REPRO_WAVE_DELAY_S"] = "0"
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
