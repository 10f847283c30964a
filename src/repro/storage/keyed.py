"""Keyed disk store: one pickle file per (table, structured key) entry.

The wave-checkpoint index (:func:`repro.storage.checkpoint_tier`) is
its one user; every entry gets the same guarantees:

* one file per entry, ``<root>/<table>/<sha256(stable key)>.pkl``;
* atomic writes (temp file + rename) — concurrent readers in other
  processes never see a torn file;
* the payload embeds its full key, format number, and writer version,
  so a digest collision, stale layout, or version skew reads as a miss
  and the file is deleted — the store can cost a recompute, never serve
  bad data;
* occasional mtime-ordered pruning keeps each table under a file-count
  cap.
"""

from __future__ import annotations

import hashlib
import pickle
from pathlib import Path
from typing import Dict, Optional, Sequence, Tuple

from repro.storage.base import atomic_write_bytes, discard_path, stable_key_repr

#: Bump when the on-disk payload layout changes; older files are treated
#: as misses and deleted on contact.
DISK_FORMAT = 1


def _code_version() -> str:
    """The writing code's version, embedded in every payload: pickled
    class layouts can change between releases without failing to
    unpickle, so an entry written by a different version reads as a miss
    instead of surfacing a stale-shaped object to the reader."""
    try:
        from repro import __version__

        return __version__
    except ImportError:  # pragma: no cover - partial install
        return "unknown"


class KeyedDiskStore:
    """Content-addressed pickle files, one ``tables``-namespaced tree.

    ``tables`` is the closed set of table names this store may hold —
    the single source of truth for whole-store sweeps (``clear``,
    ``table_sizes``, the ``repro cache`` CLI).
    """

    def __init__(
        self,
        root: Path,
        tables: Sequence[str],
        max_entries_per_table: int = 8192,
        version: Optional[str] = None,
    ) -> None:
        self.root = Path(root)
        self.tables = tuple(tables)
        self.max_entries_per_table = max_entries_per_table
        self.version = version
        self.hits = 0
        self.misses = 0
        self.errors = 0
        self._stores: Dict[str, int] = {}

    def _version(self) -> str:
        return self.version if self.version is not None else _code_version()

    # -- paths -----------------------------------------------------------

    def _path(self, table: str, key: object) -> Path:
        digest = hashlib.sha256(stable_key_repr(key).encode("utf-8")).hexdigest()
        return self.root / table / f"{digest}.pkl"

    # -- load / store ----------------------------------------------------

    def load(self, table: str, key: object) -> Tuple[bool, object]:
        path = self._path(table, key)
        try:
            with open(path, "rb") as handle:
                payload = pickle.load(handle)
            if (
                isinstance(payload, dict)
                and payload.get("format") == DISK_FORMAT
                and payload.get("version") == self._version()
                and payload.get("table") == table
                and stable_key_repr(payload.get("key")) == stable_key_repr(key)
            ):
                self.hits += 1
                return True, payload["value"]
            # Stale format or digest collision: rebuild from scratch.
            discard_path(path)
        except FileNotFoundError:
            pass
        except Exception:  # corrupt/truncated/unreadable: ignore + rebuild
            self.errors += 1
            discard_path(path)
        self.misses += 1
        return False, None

    def store(self, table: str, key: object, value: object) -> None:
        path = self._path(table, key)
        payload = {
            "format": DISK_FORMAT,
            "version": self._version(),
            "table": table,
            "key": key,
            "value": value,
        }
        try:
            data = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:  # unpicklable value: persistence is optional
            self.errors += 1
            return
        if not atomic_write_bytes(path, data):
            self.errors += 1
            return
        # Per-table store counter; prune on the FIRST store of each table
        # in this process (so short-lived CLI runs still enforce the cap
        # against what previous runs accumulated) and every 128th after.
        count = self._stores.get(table, 0) + 1
        self._stores[table] = count
        if count == 1 or count % 128 == 0:
            self._prune(path.parent)

    def _prune(self, table_dir: Path) -> None:
        """Keep each table under ``max_entries_per_table`` files (oldest
        mtime first); called occasionally from the store path."""
        try:
            entries = [p for p in table_dir.iterdir() if p.suffix == ".pkl"]
            overflow = len(entries) - self.max_entries_per_table
            if overflow > 0:
                entries.sort(key=lambda p: p.stat().st_mtime)
                for path in entries[:overflow]:
                    discard_path(path)
        except OSError:  # pragma: no cover - directory vanished mid-scan
            pass

    def clear(self) -> int:
        """Unlink every entry file of every table, readable or not, without
        opening it; in-flight ``.part`` files are left to their writers.
        Returns the number of files removed."""
        removed = 0
        for table in self.tables:
            for path in (self.root / table).glob("*.pkl"):
                discard_path(path)
                removed += 1
        return removed

    # -- introspection ---------------------------------------------------

    def counters(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses, "errors": self.errors}

    def table_sizes(self) -> Dict[str, Tuple[int, int]]:
        """Per-table ``(entry_count, total_bytes)`` of the on-disk store.

        Read-only: never creates the root or table directories (so a
        ``repro cache stats`` on a machine that has never cached stays
        side-effect free).
        """
        sizes: Dict[str, Tuple[int, int]] = {}
        for table in self.tables:
            files = 0
            size = 0
            table_dir = self.root / table
            if table_dir.is_dir():
                for path in table_dir.iterdir():
                    if path.suffix != ".pkl":
                        continue
                    try:
                        size += path.stat().st_size
                    except OSError:
                        continue
                    files += 1
            sizes[table] = (files, size)
        return sizes

    def stats(self) -> Dict[str, object]:
        """Uniform tier stats: totals plus the per-table breakdown."""
        sizes = self.table_sizes()
        return {
            "root": str(self.root),
            "entries": sum(files for files, _ in sizes.values()),
            "bytes": sum(size for _, size in sizes.values()),
            "tables": {table: list(pair) for table, pair in sizes.items()},
            **self.counters(),
        }
