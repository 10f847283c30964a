"""Digest pointers: ``<root>/<key>.ref`` holds one blob's sha256 hex.

The wave-checkpoint index (:func:`repro.storage.checkpoint_tier`).  A
checkpointed wave's output is a blob in the blob tier; this index only
names it.  The key (a checkpoint key, itself sha256 hex) is the file name
as it is, and the file holds exactly the 64 hex characters of the
digest, so there is nothing to decode: a file whose bytes are not a
digest reads as a miss and is deleted.  Writes are atomic, and the first
store of an index and every 128th after prune it to ``max_entries``
files, oldest mtime first.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.storage.base import atomic_write_bytes, discard_path, is_digest

_SUFFIX = ".ref"
_PRUNE_EVERY = 128


class PointerIndex:
    """``key -> digest`` files under one directory."""

    def __init__(self, root: Path, max_entries: int = 8192) -> None:
        self.root = Path(root)
        self.max_entries = max_entries
        self._stores = 0

    def _path(self, key: str) -> Path:
        return self.root / f"{key}{_SUFFIX}"

    def load(self, key: str) -> Optional[str]:
        path = self._path(key)
        try:
            digest = path.read_bytes().decode("ascii")
        except (OSError, UnicodeDecodeError):  # absent, unreadable or not text
            digest = None
        if is_digest(digest):
            return digest
        discard_path(path)
        return None

    def store(self, key: str, digest: str) -> bool:
        if not atomic_write_bytes(self._path(key), digest.encode("ascii")):
            return False
        self._stores += 1
        if self._stores == 1 or self._stores % _PRUNE_EVERY == 0:
            entries = sorted(self._entries(), key=lambda entry: entry[1].st_mtime)
            for path, _ in entries[: max(0, len(entries) - self.max_entries)]:
                discard_path(path)
        return True

    def discard(self, key: str) -> None:
        discard_path(self._path(key))

    def _entries(self) -> List[Tuple[Path, os.stat_result]]:
        """Every pointer file with its stat; never creates the root."""
        entries = []
        for path in self.root.glob(f"*{_SUFFIX}"):
            try:
                entries.append((path, path.stat()))
            except OSError:  # another process pruned or cleared it
                continue
        return entries

    def clear(self) -> int:
        """Unlink every file under the root without opening it, in-flight
        ``.part`` files excepted; returns the number removed."""
        removed = [p for p in self.root.rglob("*") if p.is_file() and p.suffix != ".part"]
        for path in removed:
            discard_path(path)
        return len(removed)

    def stats(self) -> Dict[str, object]:
        sizes = [stat.st_size for _, stat in self._entries()]
        return {"root": str(self.root), "entries": len(sizes), "bytes": sum(sizes)}
