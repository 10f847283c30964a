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
* **Torn-tail tolerance** — :func:`scan`, the one frame walker, stops
  cleanly at the first short header, short payload, implausible length,
  CRC mismatch or undecodable payload: everything before the tear
  replays, the tear itself is reported (``torn=True``), never raised.
  The next append seals the file again by truncating it back to the
  offset the same walk stopped at.
* **No interpretation** — payloads are opaque dicts; what the records
  *mean* is the coordinator's business (:mod:`repro.serve.durability`).
  Records stay lifecycle-sized: a DONE result is a blob in the blob
  tier, and its terminal record carries only the digest.
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


def scan(path) -> Tuple[List[object], bool, int]:
    """Walk a journal file frame by frame: ``(records, torn, intact)``.

    The one reader of the on-disk format, for both replay and tail
    sealing.  A missing file is an empty journal.  The walk stops at the
    first short header, implausible length, short payload, CRC mismatch
    or undecodable payload; ``torn`` says whether it stopped early, and
    ``intact`` is the byte offset where it stopped (the file size when
    the journal is whole) — everything before it replays, and the next
    append truncates the file back to it.
    """
    records: List[object] = []
    offset = 0
    try:
        handle = open(path, "rb")
    except (FileNotFoundError, IsADirectoryError):
        return records, False, offset
    with handle:
        while True:
            header = handle.read(_HEADER.size)
            if not header:
                return records, False, offset  # clean end
            if len(header) < _HEADER.size:
                return records, True, offset  # torn header
            length, crc = _HEADER.unpack(header)
            if length > MAX_RECORD_BYTES:
                return records, True, offset  # implausible length: a tear
            payload = handle.read(length)
            if len(payload) < length or zlib.crc32(payload) != crc:
                return records, True, offset  # torn or corrupt payload
            try:
                records.append(pickle.loads(payload))
            except Exception:
                return records, True, offset  # undecodable payload: stop here
            offset += _HEADER.size + length


def read_records(path) -> Tuple[List[object], bool]:
    """Replay a journal file; returns ``(records, torn)`` (see :func:`scan`)."""
    records, torn, _intact = scan(path)
    return records, torn


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
            _records, torn, intact = scan(self.path)
            if torn:
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
