"""Append-only, checksummed write-ahead event log for the control plane.

The fleet's control state — registry publishes, rollout transitions,
telemetry windows, drift calibration — used to live only in process
memory; a crash forgot every model version and every lesson the adaptive
controller had learned.  :class:`WriteAheadLog` is the event half of the
durable control plane (:class:`~repro.core.store.BlobStore` is the
artifact half): every state transition is journaled *before* it takes
effect, and a restarted process replays the log to converge back to the
pre-crash state (:mod:`repro.serving.recovery`).

Record format (all integers big-endian)::

    +----------------+----------------+------------------------+
    | length: uint32 | crc32:  uint32 | payload: length bytes  |
    +----------------+----------------+------------------------+

The payload is canonical JSON (sorted keys, compact separators, UTF-8),
so encoding is deterministic and records are inspectable with nothing
but ``struct`` and ``json``.

**Torn-tail tolerance.**  A writer killed mid-append (SIGKILL, power
loss) leaves a *torn tail*: a trailing record whose header or payload is
incomplete, or whose checksum fails because the bytes never finished
landing.  Opening the log truncates a torn tail back to the last intact
record — those events were never acknowledged as durable, so dropping
them is correct.  A checksum failure *before* the tail is different:
everything after it would be silently lost, so that raises
:class:`~repro.exceptions.WALCorruptionError` instead of guessing.

**Durability classes.**  Not every event earns an fsync on the thread
that produced it.  Control events (publishes, rollout transitions) are
*strict*: ``append`` fsyncs before returning, so an acknowledged event
survives power loss.  Observational events (telemetry snapshots, drift
calibration) ride request-handler threads, where a synchronous fsync
becomes tail latency for live traffic — they append *relaxed*
(``sync=False``): the bytes reach the OS page cache (surviving
``kill -9`` of the process) but are only fsynced by the next strict
append, an explicit :meth:`WriteAheadLog.flush`, or :meth:`close`.  An
OS crash can lose the most recent relaxed records; recovery tolerates
that — the windows refill from live traffic in a few requests.
"""

from __future__ import annotations

import json
import os
import struct
import threading
import zlib
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Tuple, Union

from repro.clock import SYSTEM_CLOCK, Clock
from repro.exceptions import WALCorruptionError, WALError

_HEADER = struct.Struct(">II")

#: Bytes of framing in front of every payload (length + CRC32).
RECORD_HEADER_BYTES = _HEADER.size

#: Sanity ceiling on one record: a declared length beyond this is treated
#: as an unframeable (torn/garbage) header, never allocated.
MAX_RECORD_BYTES = 64 * 1024 * 1024


def encode_record(payload: Mapping[str, object]) -> bytes:
    """Frame one event as ``length + crc32 + canonical-JSON`` bytes."""
    try:
        data = json.dumps(dict(payload), sort_keys=True, separators=(",", ":")).encode("utf-8")
    except (TypeError, ValueError) as exc:
        raise WALError(f"WAL payloads must be JSON-encodable: {exc}") from exc
    if len(data) > MAX_RECORD_BYTES:
        raise WALError(
            f"WAL record of {len(data)} bytes exceeds the {MAX_RECORD_BYTES}-byte ceiling"
        )
    return _HEADER.pack(len(data), zlib.crc32(data)) + data


def decode_record(buf: bytes, offset: int = 0) -> Tuple[Dict[str, object], int]:
    """Decode the record at ``offset``; returns ``(payload, next_offset)``.

    Raises :class:`~repro.exceptions.WALCorruptionError` when the bytes
    at ``offset`` do not frame an intact record (callers that want torn
    tails *tolerated* use :func:`scan_records` instead).
    """
    if len(buf) - offset < RECORD_HEADER_BYTES:
        raise WALCorruptionError(f"no intact WAL record at byte {offset}: torn header")
    length, crc = _HEADER.unpack_from(buf, offset)
    end = offset + RECORD_HEADER_BYTES + length
    if length > MAX_RECORD_BYTES or end > len(buf):
        raise WALCorruptionError(f"no intact WAL record at byte {offset}: torn payload")
    data = buf[offset + RECORD_HEADER_BYTES:end]
    if zlib.crc32(data) != crc:
        raise WALCorruptionError(f"WAL record at byte {offset} fails its checksum")
    payload = json.loads(data.decode("utf-8"))
    if not isinstance(payload, dict):
        raise WALCorruptionError(f"WAL record at byte {offset} is not an object payload")
    return payload, end


def scan_records(buf: bytes) -> Tuple[List[Dict[str, object]], int, Optional[str]]:
    """Walk a byte buffer record by record.

    Returns ``(records, clean_end, error)``:

    * ``records`` — every intact record, in order;
    * ``clean_end`` — the byte offset just past the last intact record
      (everything after it is a torn tail to truncate);
    * ``error`` — ``None`` for a clean log or a torn tail; a message when
      a *complete* record mid-file fails its checksum (real corruption —
      bytes after it would be silently dropped by truncation).
    """
    records: List[Dict[str, object]] = []
    offset = 0
    total = len(buf)
    while offset < total:
        if total - offset < RECORD_HEADER_BYTES:
            return records, offset, None  # torn header
        length, crc = _HEADER.unpack_from(buf, offset)
        end = offset + RECORD_HEADER_BYTES + length
        if length > MAX_RECORD_BYTES or end > total:
            return records, offset, None  # garbage/torn length or torn payload
        data = buf[offset + RECORD_HEADER_BYTES:end]
        payload: Optional[Dict[str, object]] = None
        if zlib.crc32(data) == crc:
            try:
                decoded = json.loads(data.decode("utf-8"))
            except (UnicodeDecodeError, ValueError):
                decoded = None
            if isinstance(decoded, dict):
                payload = decoded
        if payload is None:
            if end == total:
                return records, offset, None  # corrupt *tail* record: torn write
            return records, offset, (
                f"corrupt WAL record at byte {offset} with "
                f"{total - end} intact-looking bytes after it"
            )
        records.append(payload)
        offset = end
    return records, offset, None


class WriteAheadLog:
    """A length-prefixed, checksummed, torn-tail-tolerant event log.

    Opening scans the whole file: intact records are counted, a torn
    tail (from a crashed append) is truncated away, and mid-file
    corruption raises :class:`~repro.exceptions.WALCorruptionError`.
    Appends are serialized under a lock and (by default) fsynced, so an
    acknowledged :meth:`append` survives ``kill -9``.

    ``append(..., sync=False)`` is the relaxed path for observational
    events produced on request-handler threads: the record is written
    and flushed to the OS (durable against process death) but not
    fsynced, so the handler never waits on the disk.  Pending relaxed
    bytes are made fully durable by the next ``sync=True`` append
    (fsync covers the whole file), an explicit :meth:`flush`, or
    :meth:`close`.
    """

    def __init__(self, path: Union[str, Path], fsync: bool = True) -> None:
        self.path = Path(path)
        self.fsync = bool(fsync)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        existing = self.path.read_bytes() if self.path.exists() else b""
        records, clean_end, error = scan_records(existing)
        if error is not None:
            raise WALCorruptionError(f"{self.path}: {error}")
        self.recovered_records = len(records)
        self.truncated_bytes = len(existing) - clean_end
        if self.truncated_bytes:
            with open(self.path, "r+b") as handle:
                handle.truncate(clean_end)
                if self.fsync:
                    os.fsync(handle.fileno())
        self._lock = threading.Lock()
        self._file = open(self.path, "ab")  # guarded-by: _lock
        self._records = len(records)  # guarded-by: _lock
        self._closed = False  # guarded-by: _lock
        #: relaxed bytes written since the last fsync
        self._pending_sync = False  # guarded-by: _lock

    # -- writing ------------------------------------------------------------------
    def append(self, payload: Mapping[str, object], sync: Optional[bool] = None) -> int:
        """Append one event; returns its byte offset in the log.

        ``sync=True`` (the default when the log was opened with
        ``fsync=True``) fsyncs before returning — and, because fsync
        covers the whole file, also hardens any pending relaxed records.
        ``sync=False`` skips the fsync: the record reaches the OS page
        cache (survives ``kill -9``) but not necessarily the platter.
        """
        blob = encode_record(payload)
        if sync is None:
            sync = self.fsync
        with self._lock:
            if self._closed:
                raise WALError(f"append to closed WAL {self.path}")
            offset = self._file.tell()
            self._file.write(blob)
            self._file.flush()
            if sync and self.fsync:
                os.fsync(self._file.fileno())
                self._pending_sync = False
            else:
                self._pending_sync = True
            self._records += 1
        return offset

    def flush(self) -> None:
        """Harden any pending relaxed appends (no-op when none are pending)."""
        with self._lock:
            if self._closed or not self._pending_sync:
                return
            self._file.flush()
            if self.fsync:
                os.fsync(self._file.fileno())
            self._pending_sync = False

    # -- reading ------------------------------------------------------------------
    def replay(self) -> List[Dict[str, object]]:
        """Every intact record on disk, in append order.

        Safe to call on a live log (the write handle is flushed first);
        raises :class:`~repro.exceptions.WALCorruptionError` on mid-file
        damage, mirroring the open-time scan.
        """
        with self._lock:
            if not self._closed:
                self._file.flush()
        records, _, error = scan_records(self.path.read_bytes())
        if error is not None:
            raise WALCorruptionError(f"{self.path}: {error}")
        return records

    def __len__(self) -> int:
        """Records on disk (recovered at open plus appended since)."""
        with self._lock:
            # lint: ignore[mutable-return] _records is an int — immutable
            return self._records

    # -- lifecycle ----------------------------------------------------------------
    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            handle = self._file
            pending = self._pending_sync
            self._pending_sync = False
        handle.flush()
        if pending and self.fsync:
            # a clean shutdown loses no relaxed records
            os.fsync(handle.fileno())
        handle.close()

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def describe(self) -> Dict[str, object]:
        with self._lock:
            return {
                "path": str(self.path),
                "records": self._records,
                "recovered_records": self.recovered_records,
                "truncated_bytes": self.truncated_bytes,
                "fsync": self.fsync,
                "pending_sync": self._pending_sync,
            }


class ControlPlaneJournal:
    """Typed event vocabulary over one :class:`WriteAheadLog`.

    The registry, telemetry collector, adaptive controller and rollout
    controller all journal through this one object, so the WAL holds a
    single totally-ordered history of the control plane — which is what
    makes :func:`repro.serving.recovery.recover_control_plane` a simple
    left-to-right reduction.
    """

    #: A model version became pullable (blob already durable in the store).
    REGISTRY_PUBLISH = "registry-publish"
    #: Periodic snapshot of one (scenario, algorithm, replica) ALEM window.
    TELEMETRY_WINDOW = "telemetry-window"
    #: Telemetry windows were cleared (canary reset, promote, reselect).
    TELEMETRY_RESET = "telemetry-reset"
    #: The adaptive controller learned a latency-drift factor for a replica.
    CALIBRATION = "calibration"
    #: An operator cleared learned drift (a null scenario or algorithm matches all).
    CALIBRATION_RESET = "calibration-reset"
    #: A registry version became the fleet-wide serving baseline.
    ROLLOUT_DEPLOY = "deploy"
    #: A canary claim was granted as a lease (written BEFORE staging).
    ROLLOUT_LEASE = "lease"
    #: An unresolved lease was released (staging failed, or expired at recovery).
    ROLLOUT_LEASE_RELEASED = "lease-released"
    #: The in-flight canary was promoted fleet-wide.
    ROLLOUT_PROMOTE = "promote"
    #: The in-flight canary was rolled back to the baseline.
    ROLLOUT_ROLLBACK = "rollback"

    EVENT_TYPES = (
        REGISTRY_PUBLISH,
        TELEMETRY_WINDOW,
        TELEMETRY_RESET,
        CALIBRATION,
        CALIBRATION_RESET,
        ROLLOUT_DEPLOY,
        ROLLOUT_LEASE,
        ROLLOUT_LEASE_RELEASED,
        ROLLOUT_PROMOTE,
        ROLLOUT_ROLLBACK,
    )

    #: Observational events appended without a synchronous fsync: they are
    #: produced on request-handler threads (telemetry snapshots ride every
    #: Nth gateway call, calibration rides the adaptive check), where an
    #: fsync is tail latency for live traffic.  Page-cache durability still
    #: covers ``kill -9``; an OS crash loses at most the newest snapshots,
    #: which live traffic regenerates within one window.  Control events —
    #: publishes, deploys, leases, promotes, rollbacks — stay strict: the
    #: correctness of recovery adjudication depends on them.
    RELAXED_EVENTS = frozenset(
        (TELEMETRY_WINDOW, TELEMETRY_RESET, CALIBRATION, CALIBRATION_RESET)
    )

    def __init__(
        self,
        wal: Union[WriteAheadLog, str, Path],
        fsync: bool = True,
        clock: Clock = SYSTEM_CLOCK,
    ) -> None:
        if not isinstance(wal, WriteAheadLog):
            wal = WriteAheadLog(wal, fsync=fsync)
        self.wal = wal
        #: stamps every event's ``ts``
        self.clock = clock

    def append(self, event_type: str, **fields: object) -> Dict[str, object]:
        """Journal one typed event; returns the full record as written.

        Events in :data:`RELAXED_EVENTS` append without a synchronous
        fsync (see :meth:`WriteAheadLog.append`); every other event is
        fsynced before this returns — which also hardens any relaxed
        records still pending, preserving total order durability.
        """
        if event_type not in self.EVENT_TYPES:
            raise WALError(
                f"unknown control-plane event type {event_type!r}; "
                f"expected one of {self.EVENT_TYPES}"
            )
        event: Dict[str, object] = {"type": event_type, "ts": self.clock.wall(), **fields}
        self.wal.append(event, sync=event_type not in self.RELAXED_EVENTS)
        return event

    def flush(self) -> None:
        """Harden any pending relaxed events (delegates to the WAL)."""
        self.wal.flush()

    def replay(self) -> List[Dict[str, object]]:
        """Every journaled event in order (torn tail already truncated)."""
        return self.wal.replay()

    def close(self) -> None:
        self.wal.close()

    def __enter__(self) -> "ControlPlaneJournal":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def describe(self) -> Dict[str, object]:
        return self.wal.describe()
