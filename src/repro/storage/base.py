"""Shared storage primitives: LRU tables, stable keys, atomic files, digests.

This module is the common substrate under every disk-resident tier the
repository runs — the wave-checkpoint index
(:mod:`repro.storage.pointers`) and the distributed blob store
(:mod:`repro.storage.blob`) — and under the in-memory tables beside
them.  It holds exactly the machinery they need:

* :class:`LRUTable` — a bounded in-memory mapping with LRU eviction and
  hit/miss counters (the planning statistics cache, the executor's
  composite-file lift cache, the worker daemon's decoded-blob cache);
* :func:`stable_key_repr` — canonical, process-independent rendering of
  structured cache keys (``frozenset`` iteration order is per-process);
* :func:`atomic_write_bytes` — temp-file + ``os.replace`` writes so
  concurrent readers (other processes sharing a cache directory) never
  observe a torn file;
* :func:`blob_digest` — the content fingerprint (sha256 hex) that
  addresses blobs end to end: the digest *is* the name, so a stored
  payload can always be re-verified against it on read;
* :func:`is_digest` — the one check that a string names a blob (and so
  is safe to use as a file name under a store's root).
"""

from __future__ import annotations

import hashlib
import os
import re
import tempfile
from collections import OrderedDict
from pathlib import Path
from typing import Tuple


class LRUTable:
    """A small bounded mapping with LRU eviction and hit/miss counters."""

    def __init__(self, max_entries: int) -> None:
        self.max_entries = max_entries
        self.data: "OrderedDict[object, object]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def lookup(self, key: object) -> Tuple[bool, object]:
        try:
            value = self.data[key]
        except KeyError:
            self.misses += 1
            return False, None
        self.data.move_to_end(key)
        self.hits += 1
        return True, value

    def store(self, key: object, value: object) -> None:
        self.data[key] = value
        self.data.move_to_end(key)
        while len(self.data) > self.max_entries:
            self.data.popitem(last=False)

    def clear(self) -> None:
        self.data.clear()


def stable_key_repr(key: object) -> str:
    """Canonical, process-independent serialization of a cache key.

    ``repr`` alone is unstable for ``frozenset``/``set`` members (their
    iteration order follows per-process string hashes), so unordered
    collections are rendered as sorted member lists.  Everything the
    caches use as keys is built from tuples, strings, numbers, and
    frozensets of the same.
    """
    if isinstance(key, (frozenset, set)):
        return "{" + ",".join(sorted(stable_key_repr(k) for k in key)) + "}"
    if isinstance(key, tuple):
        return "(" + ",".join(stable_key_repr(k) for k in key) + ")"
    if isinstance(key, list):
        return "[" + ",".join(stable_key_repr(k) for k in key) + "]"
    if isinstance(key, dict):
        return (
            "{"
            + ",".join(
                sorted(
                    stable_key_repr(k) + ":" + stable_key_repr(v)
                    for k, v in key.items()
                )
            )
            + "}"
        )
    return repr(key)


def blob_digest(payload: bytes) -> str:
    """The content address of ``payload``: its sha256 hex digest."""
    return hashlib.sha256(payload).hexdigest()


_DIGEST = re.compile(r"[0-9a-f]{64}")


def is_digest(value: object) -> bool:
    """Whether ``value`` is a sha256 hex digest: a ``str`` of exactly 64
    lowercase hex characters.  Nothing else may address a blob or a
    pointer — ``"../x"`` would name a file outside the store's root."""
    return isinstance(value, str) and _DIGEST.fullmatch(value) is not None


def atomic_write_bytes(path: Path, data: bytes) -> bool:
    """Write ``data`` to ``path`` atomically; ``False`` on any failure.

    Temp file + ``os.replace`` in the destination directory, so readers
    in other processes either see the old file or the complete new one,
    never a torn write.  The ``.part`` suffix keeps in-flight temp files
    invisible to the suffix-matching prune/clear sweeps.  Failures
    (read-only or full filesystem) are reported, not raised: every
    caller treats persistence as optional.
    """
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(
            dir=str(path.parent), prefix=".tmp-", suffix=".part"
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(data)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        return True
    except Exception:
        return False


def discard_path(path: Path) -> None:
    """Best-effort unlink (already gone / read-only FS are fine)."""
    try:
        path.unlink()
    except OSError:
        pass
