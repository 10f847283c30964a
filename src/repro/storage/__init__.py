"""Unified storage layer: LRU tables, blob stores, digest pointers.

One package owns every disk-resident tier the repository runs:

* the **blob tier** — the content-addressed byte store under
  ``<cache_dir>/blobs`` (:class:`~repro.storage.blob.DiskBlobStore`),
  governed by age/size budgets with LRU eviction: worker daemons cache
  shipped closure payloads in it by sha256 digest, and the coordinator
  keeps its durable values there — wave checkpoints and DONE results,
  read back through one verify-on-read decoder
  (:meth:`~repro.storage.blob.DiskBlobStore.decode`);
* the **checkpoint tier** — digest pointers under
  ``<cache_dir>/checkpoints``: ``<key>.ref`` holds the blob digest of the
  output of the ready-wave job with Merkle checkpoint key ``key``
  (:class:`~repro.storage.pointers.PointerIndex`), which lets a retried
  phase or a recovered ``repro serve`` session resume from its last
  completed wave (:mod:`repro.core.checkpoint` owns the payload format);
* the **session journal** — the append-only, CRC-framed record log the
  coordinator replays after a crash
  (:class:`~repro.storage.journal.SessionJournal`); it records
  lifecycle events only, and a DONE result appears in it as the digest
  of its blob.

Planning statistics are not a tier: they live in memory only
(:mod:`repro.relational.stats_cache`).

The tiers speak through this package's public API —
:func:`checkpoint_tier` / :func:`blob_tier` build the stores from the
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
    is_digest,
    stable_key_repr,
)
from repro.storage.blob import DiskBlobStore
from repro.storage.journal import SessionJournal, read_records
from repro.storage.pointers import PointerIndex


def _settings(settings=None):
    if settings is not None:
        return settings
    from repro.mapreduce.config import execution_settings

    return execution_settings()


def blob_tier(settings=None) -> DiskBlobStore:
    """The blob store at the environment's cache location (default
    budgets: :data:`repro.storage.blob.BLOB_MAX_BYTES` / ``_AGE_S``)."""
    return DiskBlobStore(_settings(settings).resolved_cache_dir() / "blobs")


def checkpoint_tier(settings=None) -> PointerIndex:
    """The wave-checkpoint index: checkpoint key -> blob digest.

    The payload bytes themselves live in the blob tier (verify-on-read
    content addressing); this index only points a job's Merkle
    checkpoint key at the digest of its pickled output.  Construction
    never creates directories, so building one just to read ``stats()``
    is side-effect free.
    """
    return PointerIndex(_settings(settings).resolved_cache_dir() / "checkpoints")


def tier_stats(settings=None) -> Dict[str, Dict[str, object]]:
    """Uniform per-tier statistics for the ``repro cache stats`` CLI."""
    settings = _settings(settings)
    return {
        "checkpoints": checkpoint_tier(settings).stats(),
        "blobs": blob_tier(settings).stats(),
    }


def clear_tiers(settings=None, only: Optional[str] = None) -> Dict[str, int]:
    """Clear all tiers (or ``only`` one); returns per-tier drop counts."""
    settings = _settings(settings)
    removed: Dict[str, int] = {}
    if only in (None, "checkpoints"):
        removed["checkpoints"] = checkpoint_tier(settings).clear()
    if only in (None, "blobs"):
        removed["blobs"] = blob_tier(settings).clear()
    return removed


__all__ = [
    "DiskBlobStore",
    "LRUTable",
    "PointerIndex",
    "SessionJournal",
    "atomic_write_bytes",
    "blob_digest",
    "blob_tier",
    "checkpoint_tier",
    "clear_tiers",
    "is_digest",
    "read_records",
    "stable_key_repr",
    "tier_stats",
]
