"""Unified storage layer: LRU tables, keyed disk caches, blob stores.

One package owns every disk-resident tier the repository runs:

* the **planning tier** — the keyed pickle store under
  ``<cache_dir>/planning`` that persists samples, statistics, and
  join-sample observations across processes
  (:class:`~repro.storage.keyed.KeyedDiskStore`, wrapped by
  :class:`repro.relational.stats_cache.PlanningCache`);
* the **blob tier** — the content-addressed byte store under
  ``<cache_dir>/blobs`` that worker daemons use to cache shipped
  closure payloads by sha256 digest
  (:class:`~repro.storage.blob.DiskBlobStore`), governed by age/size
  budgets with LRU eviction;
* the **checkpoint tier** — the keyed index under
  ``<cache_dir>/checkpoints`` mapping a ready-wave job's Merkle
  checkpoint key to the blob digest of its persisted output, which is
  what lets a retried phase or a recovered ``repro serve`` session
  resume from its last completed wave (:mod:`repro.core.executor`);
* the **session journal** — the append-only, CRC-framed record log the
  coordinator replays after a crash
  (:class:`~repro.storage.journal.SessionJournal`).

Both speak through this package's public API —
:func:`planning_tier` / :func:`blob_tier` build the stores from the
environment's :class:`~repro.mapreduce.config.ExecutionSettings`, and
:func:`tier_stats` / :func:`clear_tiers` are what ``repro cache
stats|clear`` call, so no caller reaches into store internals.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.storage.base import (
    LRUTable,
    atomic_write_bytes,
    blob_digest,
    stable_key_repr,
)
from repro.storage.blob import DiskBlobStore
from repro.storage.journal import (
    BLOB_REF_KEY,
    SessionJournal,
    externalize_value,
    read_records,
    resolve_value,
)
from repro.storage.keyed import DISK_FORMAT, KeyedDiskStore

#: The planning tier's tables (samples / statistics / join observations).
PLANNING_TABLES = ("samples", "stats", "joins")

#: The checkpoint tier's tables (ready-wave job output index).
CHECKPOINT_TABLES = ("waves",)


def _settings(settings=None):
    if settings is not None:
        return settings
    from repro.mapreduce.config import execution_settings

    return execution_settings()


def planning_tier(settings=None) -> KeyedDiskStore:
    """The keyed planning store at the environment's cache location.

    Construction never creates directories, so building one just to read
    ``stats()`` is side-effect free.
    """
    settings = _settings(settings)
    return KeyedDiskStore(
        settings.resolved_cache_dir() / "planning", PLANNING_TABLES
    )


def blob_tier(settings=None) -> DiskBlobStore:
    """The blob store at the environment's cache location (default
    budgets: :data:`repro.storage.blob.BLOB_MAX_BYTES` / ``_AGE_S``)."""
    return DiskBlobStore(_settings(settings).resolved_cache_dir() / "blobs")


def checkpoint_tier(settings=None) -> KeyedDiskStore:
    """The wave-checkpoint index: checkpoint key -> blob digest.

    The payload bytes themselves live in the blob tier (verify-on-read
    content addressing); this keyed index only maps a job's Merkle
    checkpoint key to the digest of its pickled output.
    """
    settings = _settings(settings)
    return KeyedDiskStore(
        settings.resolved_cache_dir() / "checkpoints", CHECKPOINT_TABLES
    )


def tier_stats(settings=None) -> Dict[str, Dict[str, object]]:
    """Uniform per-tier statistics for the ``repro cache stats`` CLI."""
    settings = _settings(settings)
    return {
        "planning": planning_tier(settings).stats(),
        "checkpoints": checkpoint_tier(settings).stats(),
        "blobs": blob_tier(settings).stats(),
    }


def clear_tiers(settings=None, only: Optional[str] = None) -> Dict[str, int]:
    """Clear all tiers (or ``only`` one); returns per-tier drop counts."""
    settings = _settings(settings)
    removed: Dict[str, int] = {}
    if only in (None, "planning"):
        removed["planning"] = planning_tier(settings).clear()
    if only in (None, "checkpoints"):
        removed["checkpoints"] = checkpoint_tier(settings).clear()
    if only in (None, "blobs"):
        removed["blobs"] = blob_tier(settings).clear()
    return removed


__all__ = [
    "BLOB_REF_KEY",
    "CHECKPOINT_TABLES",
    "DISK_FORMAT",
    "DiskBlobStore",
    "KeyedDiskStore",
    "LRUTable",
    "PLANNING_TABLES",
    "SessionJournal",
    "atomic_write_bytes",
    "blob_digest",
    "blob_tier",
    "checkpoint_tier",
    "clear_tiers",
    "externalize_value",
    "planning_tier",
    "read_records",
    "resolve_value",
    "stable_key_repr",
    "tier_stats",
]
