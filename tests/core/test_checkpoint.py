"""Wave checkpointing: bit-identity, content keys, verify-on-read.

The contract: with ``REPRO_CHECKPOINT=1`` the executor persists each
completed ready-wave job's output into the content-addressed blob tier
and restores it on the next identical run — and nothing observable may
change.  Rows, composites, simulated times, per-job metrics (including
the query-name-dependent ``job_name``) must be bit-identical whether a
wave was computed or restored, whether checkpointing is on or off, and
whichever query *name* originally wrote the checkpoint.  Corruption can
only ever cost a recompute.
"""

import dataclasses

import pytest

from repro.core import checkpoint as checkpoint_mod
from repro.core.checkpoint import (
    CheckpointStore,
    checkpoint_counters,
    reset_checkpoint_counters,
)
from repro.core.executor import PlanExecutor
from repro.core.planner import ThetaJoinPlanner
from repro.mapreduce.config import ClusterConfig
from repro.mapreduce.job import JobResult
from repro.mapreduce.runtime import SimulatedCluster
from repro.relational.query import JoinQuery

from test_checkpoint_store import previous_layout


@pytest.fixture(autouse=True)
def _checkpoint_env(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setenv("REPRO_CHECKPOINT", "1")
    reset_checkpoint_counters()
    yield tmp_path / "cache"
    reset_checkpoint_counters()


def run(query, config=None, on_wave=None):
    config = config or ClusterConfig()
    plan = ThetaJoinPlanner(config).plan(query)
    outcome = PlanExecutor(SimulatedCluster(config), on_wave=on_wave).execute(
        plan, query
    )
    return outcome


def digest(outcome):
    """Everything observable, comparable across runs."""
    report = outcome.report
    return (
        tuple(map(tuple, outcome.result.rows)),
        tuple(outcome.composites),
        report.makespan_s,
        report.merge_time_s,
        report.output_records,
        tuple(dataclasses.astuple(m) for m in report.job_metrics),
    )


class TestBitIdentity:
    def test_off_by_default(self, three_way_query, monkeypatch, _checkpoint_env):
        monkeypatch.delenv("REPRO_CHECKPOINT")
        outcome = run(three_way_query)
        assert outcome.report.checkpoint_stores == 0
        assert checkpoint_counters()["stores"] == 0
        assert not (_checkpoint_env / "checkpoints").exists()

    def test_cold_warm_and_off_runs_are_bit_identical(
        self, triangle_query, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CHECKPOINT", "0")
        reference = digest(run(triangle_query))
        monkeypatch.setenv("REPRO_CHECKPOINT", "1")
        cold = run(triangle_query)
        assert digest(cold) == reference
        assert cold.report.checkpoint_stores == cold.report.num_jobs
        assert cold.report.checkpoint_hits == 0
        warm = run(triangle_query)
        assert digest(warm) == reference
        assert warm.report.checkpoint_hits == warm.report.num_jobs
        assert warm.report.checkpoint_stores == 0

    def test_cross_query_name_reuse_is_bit_identical(self, three_way_query):
        run(three_way_query)  # cold: writes checkpoints under this name
        renamed = JoinQuery(
            "renamed",
            dict(three_way_query.relations),
            list(three_way_query.conditions),
        )
        cold_renamed = digest(run_without_cache(renamed))
        warm = run(renamed)
        # Checkpoint keys are content-based: a differently-named query
        # with identical content restores the other query's waves...
        assert warm.report.checkpoint_hits == warm.report.num_jobs
        # ...and the restore rewrites every name-dependent field, so the
        # outcome matches what "renamed" would have computed itself.
        assert digest(warm) == cold_renamed
        assert all(
            m.job_name.startswith("renamed:") for m in warm.report.job_metrics
        )


def run_without_cache(query):
    """A fresh no-checkpoint reference run (for cross-name comparison)."""
    import os

    saved = os.environ.pop("REPRO_CHECKPOINT", None)
    try:
        return run(query)
    finally:
        if saved is not None:
            os.environ["REPRO_CHECKPOINT"] = saved


class TestSafety:
    def test_corrupt_blob_recomputes_not_wrong_answer(
        self, triangle_query, _checkpoint_env
    ):
        reference = digest(run(triangle_query))
        # Flip a byte in every checkpoint payload on disk.
        blob_files = list((_checkpoint_env / "blobs").rglob("*.blob"))
        assert blob_files
        for path in blob_files:
            raw = bytearray(path.read_bytes())
            raw[len(raw) // 2] ^= 0xFF
            path.write_bytes(bytes(raw))
        reset_checkpoint_counters()
        again = run(triangle_query)
        assert digest(again) == reference
        # Verify-on-read caught every corruption: zero hits, all stores.
        counters = checkpoint_counters()
        assert counters["hits"] == 0
        assert again.report.checkpoint_hits == 0
        assert again.report.checkpoint_stores == again.report.num_jobs

    def test_previous_slab_layout_recomputes_not_wrong_answer(
        self, triangle_query, monkeypatch
    ):
        """Checkpoints written in the ``(global ids, rows)`` table layout
        that preceded base row tables are misses: the run recomputes every
        wave, bit-identically, and re-persists it."""
        reference = digest(run_without_cache(triangle_query))
        persist = CheckpointStore.persist

        def persist_previous_layout(store, key, result):
            output = dataclasses.replace(
                result.output, records=previous_layout(result.output.records)
            )
            return persist(store, key, JobResult(output, result.metrics))

        monkeypatch.setattr(CheckpointStore, "persist", persist_previous_layout)
        cold = run(triangle_query)
        assert cold.report.checkpoint_stores == cold.report.num_jobs
        monkeypatch.setattr(CheckpointStore, "persist", persist)
        reset_checkpoint_counters()
        again = run(triangle_query)
        assert digest(again) == reference
        assert again.report.checkpoint_hits == 0
        assert again.report.checkpoint_stores == again.report.num_jobs
        assert digest(run(triangle_query)) == reference  # now a warm hit
        assert checkpoint_counters()["hits"] == again.report.num_jobs

    def test_oversize_outputs_are_skipped(self, triangle_query, monkeypatch):
        monkeypatch.setattr(checkpoint_mod, "CHECKPOINT_MAX_BYTES", 64)
        reference = digest(run(triangle_query))
        counters = checkpoint_counters()
        assert counters["stores"] == 0
        assert counters["skipped_oversize"] > 0
        # Nothing cached, so the next run recomputes — identically.
        assert digest(run(triangle_query)) == reference

    def test_noise_disables_checkpointing(self, three_way_query):
        noisy = ClusterConfig(noise_sigma=0.05)
        outcome = run(three_way_query, config=noisy)
        # A restored wave would replay another run's noise draw; the
        # gate keeps noisy clusters checkpoint-free.
        assert outcome.report.checkpoint_stores == 0
        assert checkpoint_counters()["stores"] == 0


class TestWaveNotifications:
    def test_on_wave_fires_per_job_with_restored_flags(self, triangle_query):
        events = []

        def on_wave(job_id, digest_, restored):
            events.append((job_id, digest_, restored))

        cold = run(triangle_query, on_wave=on_wave)
        assert len(events) == cold.report.num_jobs
        assert all(not restored for _, _, restored in events)
        cold_digests = {job_id: d for job_id, d, _ in events}
        events.clear()
        warm = run(triangle_query, on_wave=on_wave)
        assert len(events) == warm.report.num_jobs
        assert all(restored for _, _, restored in events)
        # Restored waves carry the digests the cold run stored.
        assert {job_id: d for job_id, d, _ in events} == cold_digests
