"""Checkpointing across the full conformance grid: on vs off, cold vs warm.

The acceptance criterion for wave checkpointing: across every planner ×
every grid query, a checkpointed run (cold: storing) and a re-run (warm:
restoring every wave) must both reproduce the checkpoint-free serial
digest bit for bit — rows, composites, simulated times, and every
per-job metric.  One shared cache directory for the whole grid also
exercises cross-entry isolation: 28 grid entries writing into one
checkpoint tier must never restore each other's waves incorrectly.
"""

import pytest

import conformance
from repro.core.checkpoint import reset_checkpoint_counters


@pytest.fixture(scope="module")
def checkpoint_cache(tmp_path_factory):
    """One checkpoint tier shared by the whole grid."""
    return str(tmp_path_factory.mktemp("ckpt-cache"))


@pytest.mark.parametrize("query_id", conformance.QUERY_IDS)
@pytest.mark.parametrize("planner_name", sorted(conformance.METHOD_PLANNERS))
def test_checkpointed_runs_match_serial(query_id, planner_name, checkpoint_cache):
    expected = conformance.serial_digest(query_id, planner_name)
    reset_checkpoint_counters()
    cold = conformance.run_with_backend(
        "serial",
        query_id,
        planner_name,
        REPRO_CHECKPOINT="1",
        REPRO_CACHE_DIR=checkpoint_cache,
    )
    assert cold == expected, (
        f"{query_id}/{planner_name}: cold checkpointed run diverged"
    )
    warm = conformance.run_with_backend(
        "serial",
        query_id,
        planner_name,
        REPRO_CHECKPOINT="1",
        REPRO_CACHE_DIR=checkpoint_cache,
    )
    assert warm == expected, (
        f"{query_id}/{planner_name}: warm (restored) run diverged"
    )


def test_warm_grid_restores_every_wave(checkpoint_cache):
    """A warmed entry replays entirely from the tier: all hits, no stores."""
    from repro.core.checkpoint import checkpoint_counters

    entry = ("serial", "mobile-2", "pig")
    conformance.run_with_backend(  # warm the tier (no-op after the grid)
        *entry, REPRO_CHECKPOINT="1", REPRO_CACHE_DIR=checkpoint_cache
    )
    reset_checkpoint_counters()
    conformance.run_with_backend(
        *entry, REPRO_CHECKPOINT="1", REPRO_CACHE_DIR=checkpoint_cache
    )
    counters = checkpoint_counters()
    assert counters["hits"] > 0
    assert counters["stores"] == 0
