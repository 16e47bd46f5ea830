"""Durable persistence for the checking service: WAL + snapshots.

The paper's incremental method is only sound under the *consistency
assumption* — the pre-update state already satisfies the constraints,
so checking each accepted update suffices.  A crash that loses the
carefully checked state voids that assumption; this module makes the
state recoverable:

* :class:`DurableLog` — a write-ahead commit log.  Every accepted
  update is appended as a length-prefixed, CRC-checksummed record and
  flushed to the kernel *before* it commits in memory (log-then-apply),
  so the log is always a superset of the applied updates: at most one
  trailing record may be logged-but-unapplied, and restart replays it.
  Appending does not fsync; :meth:`DurableLog.sync` does, and the
  caller picks the commit point.  A single update
  (``CheckingService.try_execute``) syncs its own record before it
  commits; a batch (``CheckingService.check_batch``) syncs once after
  its last update and acknowledges after that one fsync (group
  commit).  A killed process loses nothing that was flushed; a machine
  crash may lose the un-synced tail of a batch nobody was told about.
* :func:`write_snapshot` / :func:`load_snapshot` — periodic full-state
  snapshots (every document serialized, plus the log sequence number
  they reflect), installed atomically by write-temp + rename so a
  crash mid-snapshot leaves the previous snapshot current.
* Recovery (driven by :meth:`repro.service.store.CheckingService.
  recover`) loads the snapshot, truncates any torn trailing WAL
  record, and replays the tail (records with ``seq >= snapshot lsn``)
  through the checker — every replayed record is re-checked, so a log
  tampered into illegality is rejected instead of silently applied.

Record format (all integers big-endian)::

    +--------------+--------------+----------------------------+
    | length (u32) | crc32 (u32)  | payload (length bytes)     |
    +--------------+--------------+----------------------------+

``payload`` is UTF-8 JSON ``{"seq": N, "update": "<xupdate...>"}``;
``update`` is the canonical XUpdate text (:func:`repro.xupdate.
canonical_update_text`), so records round-trip through the parser on
replay.  Scanning stops at the first record that is short, oversized,
checksum-mismatched or undecodable — everything from that offset on
is the *torn tail* and is truncated (a fully written record can never
be torn, so only the in-flight final append is ever dropped).

Crash containment: when an injected fault fires inside the log (the
``persistence.pre_fsync`` seam), when :meth:`DurableLog.sync` fails,
or at the durable commit hook's
``persistence.post_append_pre_apply`` seam, the log marks itself
*crashed* — from the process's point of view it is dead, and every
later append or truncation is refused.  That keeps the in-process
fault harness honest: the on-disk artifacts of the simulated crash
(a torn half-record, a logged-but-unapplied record) survive exactly
as they would a real kill, instead of being tidied up by the still-
running process.
"""

from __future__ import annotations

import json
import os
import struct
import threading
import zlib
from dataclasses import dataclass
from pathlib import Path

from repro.errors import RecoveryError
from repro.testing.failpoints import fail

__all__ = [
    "DurableLog",
    "Snapshot",
    "WalRecord",
    "has_durable_state",
    "load_snapshot",
    "write_snapshot",
    "SNAPSHOT_NAME",
    "WAL_NAME",
]

SNAPSHOT_NAME = "snapshot.json"
WAL_NAME = "wal.log"

_HEADER = struct.Struct(">II")
#: a record larger than this is treated as torn garbage, not a length
_MAX_RECORD = 1 << 27


@dataclass(frozen=True)
class WalRecord:
    """One decoded commit-log record."""

    seq: int
    text: str
    #: file offset just past this record (the truncation point that
    #: keeps records ``<= seq``)
    end: int


@dataclass(frozen=True)
class Snapshot:
    """A loaded snapshot: serialized documents plus the WAL position.

    ``lsn`` is the sequence number the *next* appended record would
    have carried when the snapshot was taken: every record with
    ``seq < lsn`` is already reflected in ``documents``, every record
    with ``seq >= lsn`` must be replayed on top.
    """

    lsn: int
    documents: tuple[str, ...]


def _encode(seq: int, text: str) -> bytes:
    payload = json.dumps({"seq": seq, "update": text},
                         ensure_ascii=False).encode("utf-8")
    return _HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def _scan(data: bytes) -> tuple[list[WalRecord], int]:
    """Decode records from raw log bytes; stop at the torn tail.

    Returns the valid records and the offset of the first invalid
    byte (== ``len(data)`` for a clean log).  A sequence
    discontinuity among *valid* records is real corruption, not a
    torn append, and raises :class:`RecoveryError`.
    """
    records: list[WalRecord] = []
    offset = 0
    while len(data) - offset >= _HEADER.size:
        length, crc = _HEADER.unpack_from(data, offset)
        if not 0 < length <= _MAX_RECORD:
            break
        start = offset + _HEADER.size
        if len(data) - start < length:
            break
        payload = data[start:start + length]
        if zlib.crc32(payload) != crc:
            break
        try:
            decoded = json.loads(payload)
            seq, text = decoded["seq"], decoded["update"]
        except (ValueError, TypeError, KeyError):
            break
        if not isinstance(seq, int) or not isinstance(text, str):
            break
        offset = start + length
        records.append(WalRecord(seq, text, offset))
    expected = range(records[0].seq,
                     records[0].seq + len(records)) if records else []
    if [record.seq for record in records] != list(expected):
        raise RecoveryError(
            "write-ahead log sequence is discontinuous: "
            f"{[record.seq for record in records]!r}",
            code="recover.log-corrupt")
    if records and records[0].seq != 0:
        raise RecoveryError(
            f"write-ahead log does not start at sequence 0 "
            f"(first record is {records[0].seq})",
            code="recover.log-corrupt")
    return records, offset


class DurableLog:
    """Append-only write-ahead commit log over one file.

    Opening scans the existing file, truncates any torn trailing
    record, and resumes the sequence; :meth:`append` writes one record,
    flushes it to the kernel and returns its sequence number, and
    :meth:`sync` fsyncs everything appended so far — the commit point,
    once per update or once per batch.  All file state is behind one
    lock, so the log is safe to share between threads on its own.
    """

    def __init__(self, path: "str | Path", sync: bool = True) -> None:
        self.path = Path(path)
        self._sync = sync
        self._lock = threading.Lock()
        self._file = open(self.path, "a+b")
        self._file.seek(0)
        records, valid_end = _scan(self._file.read())
        if self._file.seek(0, os.SEEK_END) > valid_end:
            self._file.truncate(valid_end)
            self._flush()
        self._records = records
        self._next_seq = records[-1].seq + 1 if records else 0
        self._crashed = False

    # -- accessors ----------------------------------------------------------

    @property
    def next_seq(self) -> int:
        """Sequence number the next appended record will carry."""
        with self._lock:
            return self._next_seq

    @property
    def crashed(self) -> bool:
        """True once a simulated crash fired inside the log; every
        later mutation is refused (the process is considered dead)."""
        with self._lock:
            return self._crashed

    def records(self) -> list[WalRecord]:
        """All live records, in sequence order (a copy)."""
        with self._lock:
            return list(self._records)

    # -- mutation -----------------------------------------------------------

    def append(self, text: str) -> int:
        """Write one update record; returns its sequence.

        The record is flushed to the kernel, so it survives the death
        of this process, but not fsync'd: it is durable against a
        machine crash only after the next :meth:`sync`.  It is written
        in two parts with the ``persistence.pre_fsync`` failpoint
        between them, so a fault there leaves a genuinely torn record
        in the file — the shape a real mid-write crash produces and
        recovery must truncate.
        """
        with self._lock:
            self._require_alive()
            seq = self._next_seq
            blob = _encode(seq, text)
            split = len(blob) // 2
            self._file.write(blob[:split])
            try:
                fail.point("persistence.pre_fsync")
            except BaseException:
                self._mark_crashed_locked()
                raise
            self._file.write(blob[split:])
            self._file.flush()
            self._next_seq = seq + 1
            self._records.append(
                WalRecord(seq, text, self._file.tell()))
            return seq

    def sync(self) -> None:
        """fsync every record appended so far (the commit point).

        A failing fsync leaves it unknown which records reached stable
        storage, so the log marks itself crashed and re-raises: the
        owning process must restart and recover from what is on disk.
        """
        with self._lock:
            self._require_alive()
            try:
                self._flush()
            except BaseException:
                self._mark_crashed_locked()
                raise

    def truncate_to_seq(self, seq: int) -> None:
        """Drop every record with sequence ``>= seq`` (rollback of an
        append whose update did not commit in memory)."""
        with self._lock:
            self._require_alive()
            while self._records and self._records[-1].seq >= seq:
                self._records.pop()
            end = self._records[-1].end if self._records else 0
            self._file.truncate(end)
            self._file.seek(0, os.SEEK_END)
            self._flush()
            self._next_seq = \
                self._records[-1].seq + 1 if self._records else 0

    def mark_crashed(self) -> None:
        """Declare the owning process dead for durability purposes.

        Called when a simulated crash fires after an append: the
        still-running harness must not reconcile the log the way a
        live process would, or the crash artifacts it is supposed to
        test would never reach recovery.
        """
        with self._lock:
            self._mark_crashed_locked()

    def close(self) -> None:
        """Flush buffered bytes and close the file handle.

        Deliberately *not* a clean shutdown marker: a torn half-record
        buffered by a simulated crash is flushed out exactly as the
        page cache of a killed process would surface it.
        """
        with self._lock:
            if not self._file.closed:
                self._file.close()

    # -- internals ----------------------------------------------------------

    def _require_alive(self) -> None:
        if self._crashed:
            raise RecoveryError(
                f"write-ahead log {self.path} is marked crashed; "
                "recover from disk instead of appending further",
                code="recover.wal-dead")
        if self._file.closed:
            raise RecoveryError(
                f"write-ahead log {self.path} is closed",
                code="recover.wal-dead")

    def _mark_crashed_locked(self) -> None:
        self._crashed = True
        try:
            self._file.flush()
        except OSError:  # pragma: no cover - flush of a dying handle
            pass

    def _flush(self) -> None:
        self._file.flush()
        if self._sync:
            os.fsync(self._file.fileno())


# ---------------------------------------------------------------------------
# snapshots
# ---------------------------------------------------------------------------


def write_snapshot(directory: "str | Path", lsn: int,
                   documents: "list[str]", sync: bool = True) -> Path:
    """Atomically install a snapshot of the store under ``directory``.

    The body (a checksummed JSON document) is written to a temp file,
    fsync'd, and renamed over :data:`SNAPSHOT_NAME`; the directory is
    fsync'd afterwards so the rename itself is durable.  A crash at
    any point leaves either the old snapshot or the new one — never a
    torn mixture — and a leftover temp file is simply overwritten by
    the next attempt.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    body = json.dumps(
        {"format": 1, "lsn": lsn, "documents": list(documents)},
        ensure_ascii=False, sort_keys=True).encode("utf-8")
    blob = b"%08x\n" % zlib.crc32(body) + body
    temp = directory / (SNAPSHOT_NAME + ".tmp")
    with open(temp, "wb") as handle:
        handle.write(blob)
        handle.flush()
        if sync:
            os.fsync(handle.fileno())
    fail.point("persistence.snapshot_rename")
    target = directory / SNAPSHOT_NAME
    os.replace(temp, target)
    if sync:
        _fsync_directory(directory)
    return target


def has_durable_state(directory: "str | Path") -> bool:
    """Whether ``directory`` holds a snapshot or a write-ahead log —
    the test that makes opening a durable service a recovery."""
    directory = Path(directory)
    return (directory / SNAPSHOT_NAME).exists() \
        or (directory / WAL_NAME).exists()


def load_snapshot(directory: "str | Path") -> "Snapshot | None":
    """The current snapshot under ``directory``; ``None`` when the
    directory holds no durable state yet.  A present-but-corrupt
    snapshot raises :class:`RecoveryError` — rename atomicity means
    corruption is tampering or media failure, never a normal crash."""
    path = Path(directory) / SNAPSHOT_NAME
    try:
        blob = path.read_bytes()
    except FileNotFoundError:
        return None
    newline = blob.find(b"\n")
    if newline < 0:
        raise RecoveryError(f"snapshot {path} has no checksum line",
                            code="recover.snapshot-corrupt")
    checksum, body = blob[:newline], blob[newline + 1:]
    if b"%08x" % zlib.crc32(body) != checksum:
        raise RecoveryError(f"snapshot {path} fails its checksum",
                            code="recover.snapshot-corrupt")
    try:
        decoded = json.loads(body)
        lsn = decoded["lsn"]
        documents = decoded["documents"]
    except (ValueError, TypeError, KeyError) as error:
        raise RecoveryError(f"snapshot {path} is malformed: {error}",
                            code="recover.snapshot-corrupt") \
            from error
    if not isinstance(lsn, int) or lsn < 0 \
            or not isinstance(documents, list) \
            or not all(isinstance(text, str) for text in documents):
        raise RecoveryError(f"snapshot {path} has malformed fields",
                            code="recover.snapshot-corrupt")
    return Snapshot(lsn, tuple(documents))


def _fsync_directory(directory: Path) -> None:
    handle = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(handle)
    except OSError:  # pragma: no cover - fs without dir fsync
        pass
    finally:
        os.close(handle)
