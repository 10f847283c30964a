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

from repro.storage import SessionJournal, read_records
from repro.storage.journal import _HEADER, MAX_RECORD_BYTES, scan


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

    def test_scan_stops_replay_and_sealing_at_one_offset(self, tmp_path):
        """One walk answers both questions: what replays, and where the
        next append truncates to."""
        path = tmp_path / "j"
        write_journal(path, [{"n": 1}, {"n": 2}])
        assert scan(path) == ([{"n": 1}, {"n": 2}], False, path.stat().st_size)
        boundary = self.sizes(path)[0]
        with open(path, "rb+") as handle:
            handle.truncate(boundary + 5)
        assert scan(path) == ([{"n": 1}], True, boundary)
        assert scan(tmp_path / "absent") == ([], False, 0)

    def test_reopen_seals_an_undecodable_record(self, tmp_path):
        """A record that passes its CRC but does not unpickle is where
        replay stops, so sealing truncates there too: later appends must
        not land behind a record replay never gets past."""
        path = tmp_path / "j"
        write_journal(path, [{"n": 1}])
        garbage = b"\x80\x05not really a pickle"
        with open(path, "ab") as handle:
            handle.write(_HEADER.pack(len(garbage), zlib.crc32(garbage)))
            handle.write(garbage)
        write_journal(path, [{"n": 3}])
        records, torn = read_records(path)
        assert records == [{"n": 1}, {"n": 3}] and not torn

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
