"""The session journal: durable appends, torn-tail replay, concurrency.

The contract the serve-recovery drill leans on: every record whose
``append`` returned is replayable after any crash, a crash mid-append
costs at most that one record (the intact prefix always replays), and
reopening a torn journal seals the tear so later appends land on a
record boundary.
"""

import pickle
import threading
import zlib

import pytest

from repro.storage import SessionJournal, read_records
from repro.storage.journal import _HEADER, MAX_RECORD_BYTES


def write_journal(path, records):
    journal = SessionJournal(path, fsync=False)
    for record in records:
        assert journal.append(record)
    journal.close()


class TestRoundTrip:
    def test_missing_file_is_an_empty_journal(self, tmp_path):
        records, torn = read_records(tmp_path / "absent.journal")
        assert records == [] and not torn

    def test_records_replay_in_append_order(self, tmp_path):
        path = tmp_path / "j"
        wanted = [
            {"kind": "submit", "id": "q1", "spec": {"sql": "SELECT ..."}},
            {"kind": "state", "id": "q1", "state": "RUNNING"},
            {"kind": "wave", "id": "q1", "digest": "a" * 64, "restored": False},
            {"kind": "terminal", "id": "q1", "state": "DONE",
             "result": {"rows": [(1, 2), (3, 4)]}},
        ]
        write_journal(path, wanted)
        records, torn = read_records(path)
        assert records == wanted and not torn

    def test_reopen_appends_after_existing_records(self, tmp_path):
        path = tmp_path / "j"
        write_journal(path, [{"n": 1}])
        write_journal(path, [{"n": 2}])
        records, torn = read_records(path)
        assert records == [{"n": 1}, {"n": 2}] and not torn

    def test_replay_sees_own_buffered_appends(self, tmp_path):
        journal = SessionJournal(tmp_path / "j", fsync=False)
        journal.append({"n": 1})
        records, torn = journal.replay()
        assert records == [{"n": 1}] and not torn
        journal.close()

    def test_stats_shape(self, tmp_path):
        journal = SessionJournal(tmp_path / "j", fsync=True)
        journal.append({"n": 1})
        stats = journal.stats()
        assert stats["appended"] == 1
        assert stats["append_errors"] == 0
        assert stats["bytes"] > 0
        assert stats["fsync"] is True
        journal.close()


class TestTornTails:
    def sizes(self, path):
        """Byte offsets of each record boundary in an intact journal."""
        offsets, position = [], 0
        with open(path, "rb") as handle:
            while True:
                header = handle.read(_HEADER.size)
                if len(header) < _HEADER.size:
                    return offsets
                length, _crc = _HEADER.unpack(header)
                handle.seek(length, 1)
                position += _HEADER.size + length
                offsets.append(position)

    def test_torn_header_replays_intact_prefix(self, tmp_path):
        path = tmp_path / "j"
        write_journal(path, [{"n": 1}, {"n": 2}])
        boundary = self.sizes(path)[0]
        with open(path, "rb+") as handle:
            handle.truncate(boundary + 3)  # mid-header of record 2
        records, torn = read_records(path)
        assert records == [{"n": 1}] and torn

    def test_torn_payload_replays_intact_prefix(self, tmp_path):
        path = tmp_path / "j"
        write_journal(path, [{"n": 1}, {"n": 2}])
        boundary = self.sizes(path)[0]
        with open(path, "rb+") as handle:
            handle.truncate(boundary + _HEADER.size + 2)  # mid-payload
        records, torn = read_records(path)
        assert records == [{"n": 1}] and torn

    def test_crc_corruption_stops_replay_at_the_tear(self, tmp_path):
        path = tmp_path / "j"
        write_journal(path, [{"n": 1}, {"n": 2}, {"n": 3}])
        boundary = self.sizes(path)[0]
        with open(path, "rb+") as handle:
            handle.seek(boundary + _HEADER.size)  # first payload byte of rec 2
            byte = handle.read(1)
            handle.seek(-1, 1)
            handle.write(bytes([byte[0] ^ 0xFF]))
        records, torn = read_records(path)
        # Replay cannot tell a flipped bit from a tear: everything before
        # the corrupt record survives, nothing after it is trusted.
        assert records == [{"n": 1}] and torn

    def test_implausible_length_field_is_a_tear(self, tmp_path):
        path = tmp_path / "j"
        payload = pickle.dumps({"n": 1})
        with open(path, "wb") as handle:
            handle.write(_HEADER.pack(len(payload), zlib.crc32(payload)))
            handle.write(payload)
            handle.write(_HEADER.pack(MAX_RECORD_BYTES + 1, 0))
            handle.write(b"x" * 32)
        records, torn = read_records(path)
        assert records == [{"n": 1}] and torn

    def test_undecodable_payload_is_a_tear(self, tmp_path):
        path = tmp_path / "j"
        garbage = b"\x80\x05not really a pickle"
        with open(path, "wb") as handle:
            handle.write(_HEADER.pack(len(garbage), zlib.crc32(garbage)))
            handle.write(garbage)
        records, torn = read_records(path)
        assert records == [] and torn

    def test_reopen_seals_a_torn_tail(self, tmp_path):
        path = tmp_path / "j"
        write_journal(path, [{"n": 1}, {"n": 2}])
        boundary = self.sizes(path)[0]
        with open(path, "rb+") as handle:
            handle.truncate(boundary + 5)  # crash mid-record 2
        write_journal(path, [{"n": 3}])
        records, torn = read_records(path)
        # Record 2 is gone (the crash ate it); record 3 starts on a clean
        # boundary, so replay is whole again.
        assert records == [{"n": 1}, {"n": 3}] and not torn


class TestConcurrency:
    def test_concurrent_appenders_never_interleave_frames(self, tmp_path):
        journal = SessionJournal(tmp_path / "j", fsync=False)
        per_thread = 50

        def appender(worker: int) -> None:
            for sequence in range(per_thread):
                journal.append({"worker": worker, "sequence": sequence})

        threads = [
            threading.Thread(target=appender, args=(worker,))
            for worker in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        journal.close()
        records, torn = read_records(tmp_path / "j")
        assert not torn
        assert len(records) == 4 * per_thread
        # Per-writer order is preserved even though writers interleave.
        for worker in range(4):
            sequences = [
                record["sequence"] for record in records
                if record["worker"] == worker
            ]
            assert sequences == list(range(per_thread))

    def test_append_failure_counts_instead_of_raising(self, tmp_path):
        journal = SessionJournal(tmp_path / "j", fsync=False)
        assert journal.append({"unpicklable": lambda: None}) is False
        assert journal.stats()["append_errors"] == 1
        assert journal.append({"fine": 1}) is True
        journal.close()


class TestValueSpill:
    """externalize_value / resolve_value: the journal's blob-tier escape
    hatch for record fields that grow with answer volume."""

    @pytest.fixture
    def store(self, tmp_path):
        from repro.storage import DiskBlobStore

        return DiskBlobStore(
            tmp_path / "blobs", max_bytes=1 << 20, max_age_s=3600.0
        )

    def test_small_value_stays_inline(self, store):
        from repro.storage import externalize_value, resolve_value

        value = {"rows": [(1, 2)]}
        encoded, spilled = externalize_value(value, 1 << 20, store)
        assert spilled is False and encoded is value
        assert resolve_value(encoded, store) == (value, True)

    def test_large_value_round_trips_through_the_blob_tier(self, store):
        from repro.storage import BLOB_REF_KEY, externalize_value, resolve_value

        value = {"rows": [(i, "x" * 50) for i in range(200)]}
        encoded, spilled = externalize_value(value, 64, store)
        assert spilled is True
        assert BLOB_REF_KEY in encoded and encoded["bytes"] > 64
        restored, ok = resolve_value(encoded, store)
        assert ok is True and restored == value

    def test_spill_is_content_addressed(self, store):
        from repro.storage import BLOB_REF_KEY, blob_digest, externalize_value

        value = ["v"] * 1000
        encoded, spilled = externalize_value(value, 16, store)
        assert spilled
        payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        assert encoded[BLOB_REF_KEY] == blob_digest(payload)

    def test_zero_cap_never_spills(self, store):
        from repro.storage import externalize_value

        value = ["v"] * 1000
        assert externalize_value(value, 0, store) == (value, False)
        assert externalize_value(value, 64, None) == (value, False)

    def test_missing_blob_resolves_to_not_ok(self, store):
        from repro.storage import BLOB_REF_KEY, resolve_value

        encoded = {BLOB_REF_KEY: "0" * 64, "bytes": 999}
        assert resolve_value(encoded, store) == (None, False)
        assert resolve_value(encoded, None) == (None, False)

    @pytest.mark.parametrize("ref", ["../x", 7, None], ids=["traversal", "int", "none"])
    def test_a_ref_that_is_no_digest_resolves_to_not_ok(self, store, ref):
        from repro.storage import BLOB_REF_KEY, resolve_value

        assert resolve_value({BLOB_REF_KEY: ref}, store) == (None, False)

    def test_corrupt_spill_reads_as_a_miss(self, store, tmp_path):
        from repro.storage import externalize_value, resolve_value

        value = ["v"] * 1000
        encoded, spilled = externalize_value(value, 16, store)
        assert spilled
        # Flip bytes in the stored blob: verify-on-read must reject it.
        blob_files = list((tmp_path / "blobs").rglob("*"))
        blob_file = [p for p in blob_files if p.is_file()][0]
        blob_file.write_bytes(b"corrupted beyond recognition")
        assert resolve_value(encoded, store) == (None, False)

    def test_failed_put_keeps_value_inline(self, store):
        from repro.storage import externalize_value

        class RefusingStore:
            def put(self, digest, payload):
                return False

        value = ["v"] * 1000
        # Durability beats the size cap: an unwritable store never
        # drops the value from the record.
        assert externalize_value(value, 16, RefusingStore()) == (value, False)
