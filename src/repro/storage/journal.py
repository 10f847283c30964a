"""Append-only session journal: crash-safe records, torn-tail replay.

The ``repro serve`` coordinator writes one record per session lifecycle
event (submit, state transitions, completed-wave checkpoint digests,
terminal outcomes) so a SIGKILLed daemon can be restarted with
``--recover`` and replay the journal into live session state.

On-disk format — a flat sequence of length-prefixed records::

    +----------------+----------------+----------------------+
    | length (u32 LE)| CRC32 (u32 LE) | pickled payload ...  |
    +----------------+----------------+----------------------+

* **Atomic appends** — each record is a single buffered ``write`` of
  header + payload, flushed (and by default ``fsync``ed) before
  :meth:`SessionJournal.append` returns, under a lock.  A crash can tear
  at most the *last* record.
* **Torn-tail tolerance** — :func:`read_records` stops cleanly at the
  first short header, short payload, implausible length, or CRC
  mismatch: everything before the tear replays, the tear itself is
  reported (``torn=True``), never raised.  The next append seals the
  file again by truncating the torn tail first.
* **No interpretation** — payloads are opaque dicts; what the records
  *mean* is the coordinator's business (:mod:`repro.serve.coordinator`).
"""

from __future__ import annotations

import io
import os
import pickle
import struct
import threading
import zlib
from pathlib import Path
from typing import Dict, List, Tuple

_HEADER = struct.Struct("<II")  # (payload length, CRC32 of payload)

#: Hard per-record sanity bound: a corrupt length field must not make
#: replay attempt a multi-gigabyte read.
MAX_RECORD_BYTES = 256 * 1024 * 1024

#: Marker key of a journal value that was spilled to the blob tier.  A
#: record field holding ``{BLOB_REF_KEY: <sha256>, "bytes": n}`` stands
#: for the pickled object stored content-addressed under that digest.
BLOB_REF_KEY = "__journal_blob__"


def externalize_value(value: object, max_bytes: int, store) -> Tuple[object, bool]:
    """``(encoded, spilled)`` — spill ``value`` to ``store`` when big.

    Journals record session *lifecycle*; a DONE result's rows can be
    arbitrarily large, and inlining them makes the journal grow with
    answer volume instead of event count.  Values whose pickle exceeds
    ``max_bytes`` are written to the content-addressed blob ``store``
    (sha256 of the pickled bytes — verify-on-read for free) and replaced
    by a tiny digest reference.  When the spill *fails* (unwritable
    store) the value stays inline: durability beats the size cap.  A
    ``max_bytes`` of 0 or less never spills.
    """
    if store is None or max_bytes <= 0:
        return value, False
    try:
        payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception:
        return value, False
    if len(payload) <= max_bytes:
        return value, False
    digest = _blob_digest(payload)
    if not store.put(digest, payload):
        return value, False
    return {BLOB_REF_KEY: digest, "bytes": len(payload)}, True


def resolve_value(encoded: object, store) -> Tuple[object, bool]:
    """Inverse of :func:`externalize_value`: ``(value, ok)``.

    Inline values pass through untouched (``ok=True``).  A blob
    reference is fetched (the store re-hashes what it reads, so a
    corrupt spill reads as a miss) and unpickled; a missing or
    undecodable spill returns ``(None, False)`` — the caller decides
    whether that costs a re-execution or just the cached copy.
    """
    if not (isinstance(encoded, dict) and BLOB_REF_KEY in encoded):
        return encoded, True
    digest = encoded.get(BLOB_REF_KEY)
    if store is None:
        return None, False
    payload = store.get(digest)
    if payload is None:
        return None, False
    try:
        return pickle.loads(payload), True
    except Exception:
        return None, False


def _blob_digest(payload: bytes) -> str:
    from repro.storage.base import blob_digest

    return blob_digest(payload)


def read_records(path) -> Tuple[List[object], bool]:
    """Replay a journal file; returns ``(records, torn)``.

    A missing file is an empty journal.  ``torn`` is True when the file
    ends mid-record (crash during append) or the tail fails its CRC —
    the intact prefix is returned either way.
    """
    records: List[object] = []
    try:
        handle = open(path, "rb")
    except (FileNotFoundError, IsADirectoryError):
        return records, False
    with handle:
        while True:
            header = handle.read(_HEADER.size)
            if not header:
                return records, False  # clean end
            if len(header) < _HEADER.size:
                return records, True  # torn header
            length, crc = _HEADER.unpack(header)
            if length > MAX_RECORD_BYTES:
                return records, True  # implausible length: treat as tear
            payload = handle.read(length)
            if len(payload) < length or zlib.crc32(payload) != crc:
                return records, True  # torn or corrupt payload
            try:
                records.append(pickle.loads(payload))
            except Exception:
                return records, True  # undecodable payload: stop here


def _intact_prefix_bytes(path: Path) -> int:
    """Byte offset of the first tear (== file size when intact)."""
    offset = 0
    try:
        handle = open(path, "rb")
    except OSError:
        return 0
    with handle:
        while True:
            header = handle.read(_HEADER.size)
            if len(header) < _HEADER.size:
                return offset
            length, crc = _HEADER.unpack(header)
            if length > MAX_RECORD_BYTES:
                return offset
            payload = handle.read(length)
            if len(payload) < length or zlib.crc32(payload) != crc:
                return offset
            offset += _HEADER.size + length


class SessionJournal:
    """One append-only journal file, safe for concurrent appenders.

    ``fsync=True`` (the default) makes every append durable before it
    returns — the property the coordinator-kill chaos drill relies on: a
    record the test observed on disk survives any SIGKILL that follows.
    Appends are best-effort against disk errors: a failed append returns
    False (and counts in ``stats()``) instead of taking the service down
    with it.
    """

    def __init__(self, path, fsync: bool = True) -> None:
        self.path = Path(path)
        self.fsync = fsync
        self._lock = threading.Lock()
        self._file: io.BufferedWriter | None = None
        self.appended = 0
        self.append_errors = 0

    # -- writing ---------------------------------------------------------

    def _open_locked(self) -> io.BufferedWriter:
        if self._file is None or self._file.closed:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            # Seal a torn tail left by a crash mid-append: truncate back
            # to the intact prefix so the next record starts on a record
            # boundary (replay would stop at the tear otherwise).
            if self.path.exists():
                intact = _intact_prefix_bytes(self.path)
                if intact != self.path.stat().st_size:
                    with open(self.path, "rb+") as handle:
                        handle.truncate(intact)
            self._file = open(self.path, "ab")
        return self._file

    def append(self, record: object) -> bool:
        """Durably append one record; False (never raises) on failure."""
        try:
            payload = pickle.dumps(record, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:
            self.append_errors += 1
            return False
        frame = _HEADER.pack(len(payload), zlib.crc32(payload)) + payload
        with self._lock:
            try:
                handle = self._open_locked()
                handle.write(frame)
                handle.flush()
                if self.fsync:
                    os.fsync(handle.fileno())
            except OSError:
                self.append_errors += 1
                return False
            self.appended += 1
            return True

    def close(self) -> None:
        with self._lock:
            if self._file is not None:
                try:
                    self._file.close()
                except OSError:
                    pass
                self._file = None

    # -- reading / introspection -----------------------------------------

    def replay(self) -> Tuple[List[object], bool]:
        """All intact records currently on disk (see :func:`read_records`)."""
        with self._lock:
            if self._file is not None:
                try:
                    self._file.flush()
                except OSError:
                    pass
        return read_records(self.path)

    def stats(self) -> Dict[str, object]:
        try:
            size = self.path.stat().st_size
        except OSError:
            size = 0
        return {
            "path": str(self.path),
            "bytes": size,
            "appended": self.appended,
            "append_errors": self.append_errors,
            "fsync": self.fsync,
        }
