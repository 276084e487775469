"""The write-ahead log: framing, torn tails, corruption, the journal."""

import struct

import pytest

from repro.clock import ManualClock
from repro.core.wal import (
    RECORD_HEADER_BYTES,
    ControlPlaneJournal,
    WriteAheadLog,
    decode_record,
    encode_record,
    scan_records,
)
from repro.exceptions import WALCorruptionError, WALError


def test_encode_decode_roundtrip():
    payload = {"type": "test", "n": 3, "nested": {"a": [1, 2.5, "x"], "b": None}}
    blob = encode_record(payload)
    decoded, end = decode_record(blob)
    assert decoded == payload
    assert end == len(blob)


def test_encoding_is_canonical():
    assert encode_record({"b": 1, "a": 2}) == encode_record({"a": 2, "b": 1})


def test_unencodable_payload_raises_wal_error():
    with pytest.raises(WALError):
        encode_record({"bytes": b"\x00"})


def test_decode_rejects_torn_and_corrupt_buffers():
    blob = encode_record({"k": "v"})
    with pytest.raises(WALCorruptionError):
        decode_record(blob[: RECORD_HEADER_BYTES - 1])  # torn header
    with pytest.raises(WALCorruptionError):
        decode_record(blob[:-1])  # torn payload
    flipped = blob[:-1] + bytes([blob[-1] ^ 0xFF])
    with pytest.raises(WALCorruptionError):
        decode_record(flipped)  # checksum failure


def test_scan_truncates_torn_tail_at_every_cut_point():
    records = [{"i": i, "pad": "x" * (7 * i)} for i in range(4)]
    buf = b"".join(encode_record(r) for r in records)
    intact, clean_end, error = scan_records(buf)
    assert intact == records and clean_end == len(buf) and error is None
    # cutting anywhere inside the last record drops exactly that record
    last_start = len(buf) - len(encode_record(records[-1]))
    for cut in range(last_start + 1, len(buf)):
        got, end, err = scan_records(buf[:cut])
        assert got == records[:-1]
        assert end == last_start
        assert err is None


def test_scan_flags_mid_file_corruption():
    buf = b"".join(encode_record({"i": i, "pad": "y" * 32}) for i in range(3))
    # flip one payload byte of the SECOND record: bytes follow it, so this
    # is real corruption, not a torn tail
    second_start = len(encode_record({"i": 0, "pad": "y" * 32}))
    damage = second_start + RECORD_HEADER_BYTES + 4
    corrupted = buf[:damage] + bytes([buf[damage] ^ 0xFF]) + buf[damage + 1:]
    got, _, err = scan_records(corrupted)
    assert got == [{"i": 0, "pad": "y" * 32}]
    assert err is not None


def test_wal_append_and_replay(tmp_path):
    path = tmp_path / "events.wal"
    with WriteAheadLog(path) as wal:
        for i in range(5):
            wal.append({"seq": i})
        assert len(wal) == 5
        assert [r["seq"] for r in wal.replay()] == [0, 1, 2, 3, 4]
    # a fresh open sees the same records
    reopened = WriteAheadLog(path)
    assert reopened.recovered_records == 5
    assert reopened.truncated_bytes == 0
    reopened.close()


def test_wal_open_truncates_torn_tail(tmp_path):
    path = tmp_path / "events.wal"
    with WriteAheadLog(path) as wal:
        wal.append({"seq": 0})
        wal.append({"seq": 1})
    # simulate a crash mid-append: half of a third record lands
    torn = encode_record({"seq": 2})
    with open(path, "ab") as handle:
        handle.write(torn[: len(torn) // 2])
    recovered = WriteAheadLog(path)
    assert recovered.recovered_records == 2
    assert recovered.truncated_bytes == len(torn) // 2
    # the log is clean again: appends land after the truncated tail
    recovered.append({"seq": 2})
    assert [r["seq"] for r in recovered.replay()] == [0, 1, 2]
    recovered.close()


def test_wal_open_raises_on_mid_file_corruption(tmp_path):
    path = tmp_path / "events.wal"
    with WriteAheadLog(path) as wal:
        wal.append({"seq": 0, "pad": "z" * 64})
        wal.append({"seq": 1})
    raw = bytearray(path.read_bytes())
    raw[RECORD_HEADER_BYTES + 8] ^= 0xFF  # damage record 0's payload
    path.write_bytes(bytes(raw))
    with pytest.raises(WALCorruptionError):
        WriteAheadLog(path)


def test_wal_insane_length_header_is_a_torn_tail(tmp_path):
    path = tmp_path / "events.wal"
    with WriteAheadLog(path) as wal:
        wal.append({"seq": 0})
    with open(path, "ab") as handle:
        handle.write(struct.pack(">II", 0xFFFFFFFF, 0) + b"garbage")
    recovered = WriteAheadLog(path)
    assert recovered.recovered_records == 1
    assert [r["seq"] for r in recovered.replay()] == [0]
    recovered.close()


def test_append_to_closed_wal_raises(tmp_path):
    wal = WriteAheadLog(tmp_path / "events.wal")
    wal.close()
    wal.close()  # idempotent
    with pytest.raises(WALError):
        wal.append({"seq": 0})


def test_journal_stamps_type_and_rejects_unknown_events(tmp_path):
    clock = ManualClock()
    with ControlPlaneJournal(tmp_path / "control.wal", clock=clock) as journal:
        event = journal.append(ControlPlaneJournal.ROLLOUT_DEPLOY, ref="m@1")
        assert event["type"] == ControlPlaneJournal.ROLLOUT_DEPLOY
        assert event["ref"] == "m@1"
        assert event["ts"] == clock.wall()  # stamped on the journal's clock
        with pytest.raises(WALError):
            journal.append("not-a-real-event", ref="m@1")
        replayed = journal.replay()
        assert len(replayed) == 1
        assert replayed[0]["type"] == ControlPlaneJournal.ROLLOUT_DEPLOY


def _count_fsyncs(monkeypatch):
    """Patch the WAL module's os.fsync to count calls (still durable)."""
    import os as _os

    import repro.core.wal as wal_module

    calls = []
    real_fsync = _os.fsync

    def counting_fsync(fd):
        calls.append(fd)
        real_fsync(fd)

    monkeypatch.setattr(wal_module.os, "fsync", counting_fsync)
    return calls


def test_relaxed_append_defers_fsync_to_strict_append(tmp_path, monkeypatch):
    calls = _count_fsyncs(monkeypatch)
    with WriteAheadLog(tmp_path / "events.wal") as wal:
        for i in range(3):
            wal.append({"seq": i}, sync=False)
        assert calls == []  # nothing fsynced on the relaxed path
        assert wal.describe()["pending_sync"] is True
        wal.append({"seq": 3}, sync=True)
        assert len(calls) == 1  # one fsync hardened all four records
        assert wal.describe()["pending_sync"] is False
        assert [r["seq"] for r in wal.replay()] == [0, 1, 2, 3]


def test_flush_hardens_pending_relaxed_records(tmp_path, monkeypatch):
    calls = _count_fsyncs(monkeypatch)
    with WriteAheadLog(tmp_path / "events.wal") as wal:
        wal.append({"seq": 0}, sync=False)
        wal.flush()
        assert len(calls) == 1
        wal.flush()  # nothing pending: no second fsync
        assert len(calls) == 1


def test_close_fsyncs_pending_relaxed_records(tmp_path, monkeypatch):
    calls = _count_fsyncs(monkeypatch)
    wal = WriteAheadLog(tmp_path / "events.wal")
    wal.append({"seq": 0}, sync=False)
    wal.close()
    assert len(calls) == 1  # a clean shutdown loses no relaxed records
    reopened = WriteAheadLog(tmp_path / "events.wal")
    assert reopened.recovered_records == 1
    reopened.close()


def test_relaxed_append_with_fsync_disabled_never_syncs(tmp_path, monkeypatch):
    calls = _count_fsyncs(monkeypatch)
    with WriteAheadLog(tmp_path / "events.wal", fsync=False) as wal:
        wal.append({"seq": 0}, sync=False)
        wal.append({"seq": 1}, sync=True)
        wal.flush()
    assert calls == []


def test_journal_relaxed_events_skip_the_request_path_fsync(tmp_path, monkeypatch):
    calls = _count_fsyncs(monkeypatch)
    with ControlPlaneJournal(tmp_path / "control.wal") as journal:
        journal.append(ControlPlaneJournal.TELEMETRY_WINDOW, scenario="s",
                       algorithm="a", replica="r", samples={}, total_observations=8)
        journal.append(ControlPlaneJournal.CALIBRATION, scenario="s",
                       algorithm="a", replica="r", drift=1.2)
        journal.append(ControlPlaneJournal.TELEMETRY_RESET, scenario="s",
                       algorithm="a", replica=None)
        assert calls == []  # observational events never fsync inline
        journal.append(ControlPlaneJournal.ROLLOUT_PROMOTE, ref="m@1")
        assert len(calls) == 1  # the control event hardened all four
        types = [r["type"] for r in journal.replay()]
        assert types == [
            ControlPlaneJournal.TELEMETRY_WINDOW,
            ControlPlaneJournal.CALIBRATION,
            ControlPlaneJournal.TELEMETRY_RESET,
            ControlPlaneJournal.ROLLOUT_PROMOTE,
        ]


def test_journal_accepts_existing_wal_instance(tmp_path):
    wal = WriteAheadLog(tmp_path / "control.wal")
    journal = ControlPlaneJournal(wal)
    journal.append(ControlPlaneJournal.CALIBRATION, scenario="s", algorithm="a",
                   replica="r", drift=1.5)
    assert journal.describe()["records"] == 1
    journal.close()
