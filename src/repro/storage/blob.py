"""Disk-resident content-addressed blob store with a budgeted lifecycle.

The worker daemon's data tier: payloads shipped by the distributed
coordinator are stored under their sha256 digest and survive across
batches, queries, and coordinator connections — which is what lets a
warm re-run of the same query register its closures by digest instead of
re-shipping megabytes of captured inputs.  The same tier holds the
coordinator's durable values: wave checkpoints and ``repro serve``'s
DONE results, each named by its digest from a pointer file or a journal
record.

Lifecycle (the EMBANKS-style spill discipline):

* **age budget** — entries untouched for longer than ``max_age_s`` are
  removed on the next sweep (a worker that changed workloads weeks ago
  must not hold the old one's relations forever);
* **size budget** — when the tier exceeds ``max_bytes``, entries are
  evicted oldest-access first (reads touch the file mtime, so eviction
  order is LRU) until it fits.  The newest entry is never evicted by
  the size sweep: the blob just ``put`` must survive to its ``register``,
  so a single payload larger than the whole budget temporarily exceeds
  it rather than thrashing the resend loop;
* **corruption** — ``get`` re-hashes what it read; a mismatch (torn
  write, bit rot, truncation) deletes the file and reads as a miss.
  The coordinator's miss path re-sends the payload, so a corrupt entry
  costs one re-ship, never a wrong result;
* **durable values** — ``decode`` is the one reader of pickled values
  kept here (wave checkpoints, ``repro serve``'s DONE results): a
  payload that does not decode into the shape its reader accepts is
  deleted and reads as a miss, which costs a recompute;
* **addresses** — only a digest (:func:`~repro.storage.base.is_digest`)
  names an entry: anything else a peer sends reads as a miss and is
  never joined to the root, so no request reaches a file outside it.
"""

from __future__ import annotations

import os
import pickle
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.storage.base import atomic_write_bytes, blob_digest, discard_path, is_digest

#: Run the age/size sweep on the first put of the store's life and every
#: N-th after — often enough that budgets bind, rare enough that a put
#: is normally one write.
_EVICT_EVERY = 32

_SUFFIX = ".blob"

#: Default budgets of a blob tier: total bytes kept (LRU eviction above
#: it) and seconds an untouched entry survives (0 disables expiry).
BLOB_MAX_BYTES = 1 << 30
BLOB_MAX_AGE_S = 7 * 86400.0


class DiskBlobStore:
    """Content-addressed blobs under ``<root>/<digest[:2]>/<digest>.blob``."""

    def __init__(
        self,
        root: Path,
        max_bytes: int = BLOB_MAX_BYTES,
        max_age_s: float = BLOB_MAX_AGE_S,
    ) -> None:
        self.root = Path(root)
        self.max_bytes = max(0, int(max_bytes))
        self.max_age_s = float(max_age_s)
        self.hits = 0
        self.misses = 0
        self.corrupt = 0
        self.puts = 0
        self.put_bytes = 0
        self.evicted = 0
        self.errors = 0
        self._put_count = 0

    def _path(self, digest: str) -> Path:
        return self.root / digest[:2] / f"{digest}{_SUFFIX}"

    # -- has / get / put --------------------------------------------------

    def has(self, digest: str) -> bool:
        """Existence probe (no verification — ``get`` verifies)."""
        return is_digest(digest) and self._path(digest).is_file()

    def get(self, digest: str) -> Optional[bytes]:
        if not is_digest(digest):
            self.misses += 1
            return None
        path = self._path(digest)
        try:
            with open(path, "rb") as handle:
                payload = handle.read()
        except FileNotFoundError:
            self.misses += 1
            return None
        except OSError:
            self.errors += 1
            self.misses += 1
            return None
        if blob_digest(payload) != digest:
            # Delete-and-refetch: the caller treats this as a miss and
            # the coordinator re-ships the payload.
            self.corrupt += 1
            self.misses += 1
            discard_path(path)
            return None
        self._touch(path)  # reads refresh LRU position
        self.hits += 1
        return payload

    def put(self, digest: str, payload: bytes) -> bool:
        if blob_digest(payload) != digest:
            # A peer shipped bytes that do not match their claimed
            # address (truncation in transit, a buggy client, a string
            # that is no digest at all): storing them would manufacture
            # a permanent corrupt entry.
            self.errors += 1
            return False
        path = self._path(digest)
        if path.is_file():
            self._touch(path)  # re-put of a live entry: refresh, no I/O
            return True
        if not atomic_write_bytes(path, payload):
            self.errors += 1
            return False
        self.puts += 1
        self.put_bytes += len(payload)
        self._put_count += 1
        if self._put_count == 1 or self._put_count % _EVICT_EVERY == 0:
            self.evict()
        return True

    def decode(
        self, digest: object, accept: Callable[[object], bool]
    ) -> Optional[Tuple[object, int]]:
        """The blob ``digest`` unpickled, as ``(value, payload bytes)``;
        None on a miss.

        The one decoder of durable pickled blobs (wave checkpoints, DONE
        results).  ``get`` verifies the bytes against the digest; a
        payload that does not unpickle, or whose value ``accept`` refuses
        (or raises on), is discarded and reads as a miss — the caller
        recomputes what it stood for.
        """
        payload = self.get(digest)
        if payload is None:
            return None
        try:
            value = pickle.loads(payload)
            valid = bool(accept(value))
        except Exception:
            valid = False
        if not valid:
            self.discard(digest)
            return None
        return value, len(payload)

    def discard(self, digest: str) -> None:
        """Drop one entry (an undecodable payload found by a reader)."""
        if is_digest(digest):
            discard_path(self._path(digest))

    # -- lifecycle -------------------------------------------------------

    def evict(self, now: Optional[float] = None) -> int:
        """Enforce the age and size budgets; returns entries removed.

        Oldest access time first; the most recently touched entry is
        exempt from the *size* sweep (see the module docstring) but not
        from the age sweep.
        """
        now = time.time() if now is None else now
        entries = self._scan()
        removed = 0
        survivors: List[Tuple[float, int, Path]] = []
        for mtime, size, path in entries:
            if self.max_age_s > 0 and now - mtime > self.max_age_s:
                discard_path(path)
                removed += 1
            else:
                survivors.append((mtime, size, path))
        total = sum(size for _, size, _ in survivors)
        survivors.sort()  # oldest mtime first
        while total > self.max_bytes and len(survivors) > 1:
            _, size, path = survivors.pop(0)
            discard_path(path)
            total -= size
            removed += 1
        self.evicted += removed
        return removed

    def clear(self) -> int:
        removed = 0
        for _, _, path in self._scan():
            discard_path(path)
            removed += 1
        return removed

    # -- introspection ---------------------------------------------------

    def stats(self) -> Dict[str, object]:
        entries = self._scan()
        return {
            "root": str(self.root),
            "entries": len(entries),
            "bytes": sum(size for _, size, _ in entries),
            "max_bytes": self.max_bytes,
            "max_age_s": self.max_age_s,
            "hits": self.hits,
            "misses": self.misses,
            "corrupt": self.corrupt,
            "puts": self.puts,
            "put_bytes": self.put_bytes,
            "evicted": self.evicted,
            "errors": self.errors,
        }

    # -- internals -------------------------------------------------------

    def _scan(self) -> List[Tuple[float, int, Path]]:
        """Every live entry as ``(mtime, size, path)``; never creates
        directories (stats on a machine that never cached stays
        side-effect free)."""
        entries: List[Tuple[float, int, Path]] = []
        if not self.root.is_dir():
            return entries
        try:
            for shard in self.root.iterdir():
                if not shard.is_dir():
                    continue
                for path in shard.iterdir():
                    if path.suffix != _SUFFIX:
                        continue
                    try:
                        stat = path.stat()
                    except OSError:
                        continue
                    entries.append((stat.st_mtime, stat.st_size, path))
        except OSError:  # pragma: no cover - tree vanished mid-scan
            pass
        return entries

    @staticmethod
    def _touch(path: Path) -> None:
        try:
            os.utime(path, None)
        except OSError:  # pragma: no cover - entry raced away
            pass
