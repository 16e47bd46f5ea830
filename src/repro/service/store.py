"""Thread-safe document collection and checking façade.

:class:`DocumentStore` owns the documents and one mutex;
:class:`CheckingService` composes a store with an
:class:`~repro.core.guard.IntegrityGuard` and exposes the checker
interface with every public call holding that mutex once.  Writers
and readers alike run one at a time on the live tree, and the
underlying :class:`~repro.xupdate.apply.TransactionLog` makes each
update all-or-nothing, so a reader never observes a torn state.

That is the whole concurrency story.  The documents (value indexes
included) and the checker are not thread-safe on their own (a read
fills lazy caches); the service is what makes them safe to share.
Concurrent readers would buy nothing under the GIL, and the
deployment that scales, ``repro serve``, runs single-threaded worker
processes.  A commit costs the check, the write-ahead append (when
durable), the apply and the delta-maintained value indexes — never a
copy of the document.

The service also keeps a *commit log* — the updates that were actually
applied, in commit order — which makes the final state reproducible by
a sequential replay (the oracle the concurrency stress tests check
against, and the natural hook for future replication/sharding layers).
Every service appends to it from the checker's pre-commit hook, inside
the update's transaction, so an update is in the commit log exactly
when it commits.

Opened through :meth:`CheckingService.open_durable`, the commit log is
additionally *write-ahead durable*: every accepted update is appended
to an on-disk log (:mod:`repro.service.persistence`) before it commits
in memory and fsync'd before it is acknowledged — one fsync per
:meth:`~CheckingService.try_execute`, one per
:meth:`~CheckingService.check_batch` — periodic snapshots bound the
replay tail, and
:meth:`CheckingService.recover` rebuilds the exact pre-crash state by
loading the latest snapshot and re-checking the logged tail through
the checker.
"""

from __future__ import annotations

import re
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

from repro.core.guard import IntegrityGuard, UpdateDecision
from repro.core.schema import ConstraintSchema
from repro.errors import (
    IntegrityViolationError,
    RecoveryError,
    SchemaError,
    UpdateApplicationError,
    XMLParseError,
    XUpdateError,
)
# compat for benchmarks/e2e (see self.snapshots); ROADMAP item 1
from repro.service.snapshots import SnapshotManager
from repro.service.persistence import (
    WAL_NAME,
    DurableLog,
    Snapshot,
    WalRecord,
    has_durable_state,
    load_snapshot,
    write_snapshot,
)
from repro.testing.failpoints import fail
from repro.xtree.node import Document
from repro.xtree.parser import parse_document
from repro.xtree.serializer import serialize
from repro.xupdate.parser import Operation, canonical_update_text


class DocumentStore:
    """A collection of documents behind one mutex.

    The store is the unit of consistency: one lock covers all the
    documents a constraint set spans, because a single update (or a
    single check) may touch several of them.

    A store may carry a ``uid`` — a caller-chosen name for the document
    group.  Uids are validated path-safe (:meth:`validate_uid`) because
    the sharded service derives per-group state-directory names from
    them.
    """

    #: path-safe uid shape: starts with an alphanumeric (which rules
    #: out ``.``, ``..``, absolute paths and option-looking ``-x``),
    #: then up to 63 more of ``[A-Za-z0-9._-]`` — no separators ever
    _UID_PATTERN = re.compile(r"[A-Za-z0-9][A-Za-z0-9._-]{0,63}")

    def __init__(self, documents: Iterable[Document],
                 uid: "str | None" = None) -> None:
        if uid is not None:
            self.validate_uid(uid)
        self.uid = uid
        self._documents = list(documents)
        self.lock = threading.Lock()

    @staticmethod
    def validate_uid(uid: str) -> str:
        """Check that ``uid`` can safely name a state directory.

        The sharded service keys each document group's durable state
        directory off its uid (``shard-<uid>``), so uids must never
        contain path separators, start with a dot or dash, or exceed a
        filesystem-friendly length.  Raises :class:`SchemaError` on
        violation; returns the uid unchanged otherwise.
        """
        if not isinstance(uid, str) \
                or not DocumentStore._UID_PATTERN.fullmatch(uid):
            raise SchemaError(
                f"invalid document-group uid {uid!r}: uids must start "
                "with a letter or digit and contain only letters, "
                "digits, '.', '_' or '-' (at most 64 characters), so "
                "they can safely name per-shard state directories")
        return uid

    @property
    def documents(self) -> list[Document]:
        """The live document list (shared with the checkers).

        Callers must hold :attr:`lock` while touching the documents
        themselves.
        """
        return self._documents

    def document(self, root_tag: str) -> Document:
        for document in self._documents:
            if document.root.tag == root_tag:
                return document
        raise SchemaError(f"no document with root tag {root_tag!r}")

    @contextmanager
    def _locked(self, site: str) -> Iterator[None]:
        with self.lock:
            fail.point(site)
            yield

    def read_locked(self):
        """Hold the mutex for a read entry point.

        The same mutex as :meth:`write_locked`; the two differ only in
        the failpoint that fires once it is held.  Not reentrant.
        """
        return self._locked("service.locks.post_read_acquire")

    def write_locked(self):
        """Hold the mutex for a write entry point (not reentrant)."""
        return self._locked("service.locks.post_write_acquire")

    def snapshot(self) -> list[str]:
        """Serialized form of every document, under the mutex."""
        with self.read_locked():
            return [serialize(document) for document in self._documents]


@dataclass(frozen=True)
class CommittedUpdate:
    """One entry of the service's commit log."""

    sequence: int
    update: "str | Operation"
    decision: UpdateDecision


@dataclass(frozen=True)
class RecoveryInfo:
    """What :meth:`CheckingService.recover` did to reach the state."""

    #: sequence number the snapshot was current through (exclusive)
    snapshot_lsn: int
    #: WAL tail records re-checked and re-applied on top of the snapshot
    replayed: int
    #: total live WAL records after torn-tail truncation
    total_records: int


class CheckingService:
    """Thread-safe façade over the run-time checker.

    Wraps an :class:`IntegrityGuard` and a :class:`DocumentStore`; every
    public call holds the store's mutex once, so callers are served
    one at a time.  All consistency guarantees of the underlying
    checker — illegal updates never applied, failed updates fully
    rolled back — therefore hold under concurrent callers too.
    """

    def __init__(self, schema: ConstraintSchema,
                 documents: "Iterable[Document] | DocumentStore", *,
                 snapshot_reads: bool = False) -> None:
        # compat for benchmarks/e2e/oracle.py and layers.py, which pass
        # snapshot_reads=False; ROADMAP item 1 deletes the keyword with
        # the snapshots.publish_ms and clones_per_commit rows
        if snapshot_reads:
            raise ValueError(
                "snapshot reads were removed: every service reads the "
                "live tree under the store's mutex")
        # compat for benchmarks/e2e/trace.py and layers.py (always 0
        # clones); ROADMAP item 1 deletes it with the same two rows
        self.snapshots = SnapshotManager()
        if isinstance(documents, DocumentStore):
            # the store may already be shared with running threads, and
            # the guard walks the document list (root-tag routing) —
            # hold the mutex for the whole walk, not just the property
            # access
            self.store = documents
            with self.store.read_locked():
                self.checker = IntegrityGuard(
                    schema, self.store.documents)
        else:
            self.store = DocumentStore(documents)
            # construction: the fresh store is not shared yet
            self.checker = IntegrityGuard(schema, self.store.documents)
        self._committed: list[CommittedUpdate] = []
        self._durable: "DurableLog | None" = None
        self._state_dir: "Path | None" = None
        self._durable_sync = True
        self._snapshot_interval = 0
        self._last_snapshot_lsn = 0
        self._pending_mark: "tuple[int, int] | None" = None
        #: set while :meth:`check_batch` runs: the pre-commit hook
        #: leaves the fsync to the end of the batch
        self._in_batch = False
        #: populated by :meth:`recover` on recovered instances
        self.last_recovery: "RecoveryInfo | None" = None
        self.checker.set_pre_commit(self._pre_commit, self._abort_commit)

    # -- durability ----------------------------------------------------------

    @classmethod
    def open_durable(cls, schema: ConstraintSchema,
                     documents: "Iterable[Document] | DocumentStore",
                     state_dir: "str | Path", *,
                     snapshot_interval: int = 64,
                     sync: bool = True) -> "CheckingService":
        """Open a durable service rooted at ``state_dir``.

        When the directory already holds durable state (a snapshot or
        a write-ahead log) this is exactly :meth:`recover` — the
        ``documents`` argument is ignored in favour of the recovered
        state.  Otherwise the given documents become the initial state:
        a baseline snapshot is installed *before* the first update can
        commit, so a crash at any later point always finds a snapshot
        to recover from.
        """
        state_dir = Path(state_dir)
        if has_durable_state(state_dir):
            return cls.recover(
                schema, state_dir,
                snapshot_interval=snapshot_interval, sync=sync)
        service = cls(schema, documents)
        write_snapshot(state_dir, 0, service.store.snapshot(),
                       sync=sync)
        wal = DurableLog(state_dir / WAL_NAME, sync=sync)
        service._attach_durable(state_dir, wal, snapshot_interval,
                                sync, last_snapshot_lsn=0)
        return service

    @classmethod
    def recover(cls, schema: ConstraintSchema,
                state_dir: "str | Path", *,
                snapshot_interval: int = 64,
                sync: bool = True) -> "CheckingService":
        """Rebuild a durable service from ``state_dir`` after a crash.

        Loads the latest valid snapshot, opens the write-ahead log
        (truncating any torn trailing record), and replays every
        record with ``seq >= snapshot.lsn`` through the checker —
        re-checking it, so tampered logs cannot smuggle an illegal
        update in.  State this code cannot read back (a snapshot
        document the parser refuses, a record that no longer parses or
        applies) raises a coded :class:`RecoveryError`, never the raw
        parse or apply error.  Replay is idempotent: a crash during
        recovery leaves snapshot and log unchanged, and a retry
        succeeds.
        """
        state_dir = Path(state_dir)
        snapshot = load_snapshot(state_dir)
        if snapshot is None:
            raise RecoveryError(
                f"no snapshot under {state_dir}; the directory holds "
                "no recoverable durable state",
                code="recover.no-state")
        wal = DurableLog(state_dir / WAL_NAME, sync=sync)
        try:
            service = cls._recover(schema, snapshot, wal)
        except BaseException:
            wal.close()
            raise
        service._attach_durable(state_dir, wal, snapshot_interval,
                                sync,
                                last_snapshot_lsn=snapshot.lsn)
        return service

    @classmethod
    def _recover(cls, schema: ConstraintSchema, snapshot: Snapshot,
                 wal: DurableLog) -> "CheckingService":
        """Snapshot + WAL tail → a service at the pre-crash state."""
        records = wal.records()
        if wal.next_seq < snapshot.lsn:
            raise RecoveryError(
                f"write-ahead log ends at sequence {wal.next_seq} but "
                f"the snapshot is current through {snapshot.lsn}; the "
                "log has lost fsync'd records",
                code="recover.log-corrupt")
        try:
            documents = [parse_document(text)
                         for text in snapshot.documents]
        except XMLParseError as error:
            raise RecoveryError(
                f"snapshot (through sequence {snapshot.lsn}) holds a "
                f"document that does not parse: {error}",
                code="recover.snapshot-corrupt") from error
        service = cls(schema, documents)
        replayed = 0
        for record in records:
            if record.seq < snapshot.lsn:
                # already reflected in the snapshot: enters the commit
                # log as history, not the checker
                # construction: the service is not shared with any
                # thread yet
                service._committed.append(CommittedUpdate(
                    record.seq, record.text,
                    UpdateDecision(True, applied=True)))
                continue
            fail.point("persistence.replay_record")
            try:
                decision = service.checker.try_execute(record.text)
            except (XMLParseError, XUpdateError,
                    UpdateApplicationError) as error:
                raise RecoveryError(
                    f"logged update {record.seq} cannot be replayed: "
                    f"{error}", code="recover.replay-rejected") from error
            if not decision.applied:
                raise RecoveryError(
                    f"logged update {record.seq} is no longer "
                    f"accepted on replay "
                    f"(violated: {decision.violated}); the log or "
                    "snapshot has been corrupted",
                    code="recover.replay-rejected")
            # the pre-commit hook logged the record at commit-log
            # position record.seq: the log's sequences run from 0
            # without a gap (see persistence._scan)
            replayed += 1
        service.last_recovery = RecoveryInfo(
            snapshot_lsn=snapshot.lsn, replayed=replayed,
            total_records=len(records))
        return service

    def _attach_durable(self, state_dir: Path, wal: DurableLog,
                        snapshot_interval: int, sync: bool, *,
                        last_snapshot_lsn: int) -> None:
        # construction: the service is not shared with any thread yet
        self._state_dir = state_dir
        self._durable = wal
        self._durable_sync = sync
        self._snapshot_interval = max(1, snapshot_interval)
        self._last_snapshot_lsn = last_snapshot_lsn

    @property
    def durable(self) -> bool:
        """True when a write-ahead log backs this service."""
        return self._durable is not None

    @property
    def wal_crashed(self) -> bool:
        """True when the write-ahead log marked itself crashed.

        A crashed log refuses further appends; the owning process must
        be recovered (or, in the sharded service, the worker restarted)
        before this state accepts updates again.
        """
        return self._durable is not None and self._durable.crashed

    def _pre_commit(self, update: "str | Operation",
                    decision: UpdateDecision) -> None:
        """The commit-log append (the checker's pre-commit hook).

        Runs inside the checker's transactional scope for every update
        it decided to apply, before listeners observe the decision and
        before the in-memory commit.  A durable service first writes
        the update ahead to its log: a single update fsyncs here, and
        the fsync completing is its commit point; inside
        :meth:`check_batch` the record is only written, and the batch's
        one fsync (:meth:`_check_batch_locked`) is the commit point of
        every update in it.  Any exception here aborts the update — the
        checker rolls the in-memory application back and
        :meth:`_abort_commit` reconciles the logs.
        """
        wal = self._durable
        seq = len(self._committed) if wal is None else wal.next_seq
        self._pending_mark = (seq, len(self._committed))
        if wal is not None:
            seq = wal.append(canonical_update_text(update))
            if not self._in_batch:
                wal.sync()
            try:
                fail.point("persistence.post_append_pre_apply")
            except BaseException:
                # the record is durable but the update will never
                # commit in this process: exactly the crash window
                # recovery must close by replaying the trailing record
                wal.mark_crashed()
                raise
        fail.point("service.store.pre_commit_append")
        self._committed.append(
            CommittedUpdate(seq, update, decision))

    def _abort_commit(self, update: "str | Operation") -> None:
        """Reconcile the logs with an update that aborted post-append.

        Truncates the write-ahead log and the commit log back to the
        mark taken at hook entry — unless a simulated crash fired, in
        which case the on-disk artifacts (a torn half-record, a
        logged-but-unapplied record) are exactly what the restart
        tests need and must survive untouched.
        """
        wal, mark = self._durable, self._pending_mark
        self._pending_mark = None
        if mark is None or (wal is not None and wal.crashed):
            return
        seq, committed_length = mark
        if wal is not None:
            wal.truncate_to_seq(seq)
        del self._committed[committed_length:]

    def _check_batch_locked(
            self,
            updates: "list[str | Operation]") -> list[UpdateDecision]:
        """The checker's batch, with one WAL fsync for all of it when
        the service is durable.

        Each applied update's record is written by the pre-commit hook
        and the fsync runs once, after the last update — also when the
        batch raises part-way, so updates already committed in memory
        are durable before anyone reads them.  A failing fsync marks
        the log crashed and raises; the batch is not rolled back in
        memory, because the process is considered dead and restart
        recovers exactly what reached the disk.
        """
        wal = self._durable
        first_seq = None if wal is None else wal.next_seq
        self._in_batch = True
        try:
            return self.checker.check_batch(updates)
        finally:
            self._in_batch = False
            if wal is not None and wal.next_seq != first_seq \
                    and not wal.crashed:
                wal.sync()

    def _maybe_snapshot(self) -> None:
        wal = self._durable
        if wal is None or wal.crashed:
            return
        if wal.next_seq - self._last_snapshot_lsn \
                >= self._snapshot_interval:
            self._checkpoint_locked()

    def _checkpoint_locked(self) -> None:
        """Install a snapshot of the current state (mutex held).

        A fault at the rename seam is a simulated kill: the log is
        marked crashed so the frozen process cannot diverge from the
        on-disk state the restart will recover.
        """
        wal = self._durable
        assert wal is not None and self._state_dir is not None
        lsn = wal.next_seq
        documents = [serialize(document)
                     for document in self.store.documents]
        try:
            write_snapshot(self._state_dir, lsn, documents,
                           sync=self._durable_sync)
        except BaseException:
            wal.mark_crashed()
            raise
        self._last_snapshot_lsn = lsn

    def checkpoint(self) -> None:
        """Snapshot the current state now, bounding the replay tail."""
        with self.store.write_locked():
            if self._durable is None:
                raise RecoveryError(
                    "service has no durable state to checkpoint")
            self._checkpoint_locked()

    def close(self) -> None:
        """Release the write-ahead log's file handle.

        Buffered bytes are flushed as-is — including the torn residue
        of a simulated crash — matching what the page cache of a
        killed process would expose to the recovering one.
        """
        with self.store.write_locked():
            if self._durable is not None:
                self._durable.close()

    def wal_records(self) -> "list[WalRecord]":
        """The live write-ahead records (empty for volatile services)."""
        with self.store.read_locked():
            if self._durable is None:
                return []
            return self._durable.records()

    # -- writers -------------------------------------------------------------

    def try_execute(self, update: "str | Operation") -> UpdateDecision:
        """Check and (when legal) apply one update, exclusively.

        Exactly :meth:`IntegrityGuard.try_execute` under the mutex; the
        pre-commit hook appends an applied update to the
        commit log.
        """
        with self.store.write_locked():
            decision = self.checker.try_execute(update)
            if decision.applied:
                self._maybe_snapshot()
            return decision

    def execute(self, update: "str | Operation") -> UpdateDecision:
        """Like :meth:`try_execute` but raises on violation."""
        decision = self.try_execute(update)
        if not decision.legal:
            raise IntegrityViolationError(decision.violated)
        return decision

    def check_batch(
            self,
            updates: "list[str | Operation]") -> list[UpdateDecision]:
        """Check and apply a batch of updates under one mutex round.

        The checker's :meth:`try_execute` loop with the mutex acquired
        *once* for the whole batch; applied updates enter the
        commit log in batch order.
        Decisions match the sequential :meth:`try_execute` loop update
        for update.  A durable service fsyncs its write-ahead log once
        for the batch, before it returns (group commit).
        """
        with self.store.write_locked():
            decisions = self._check_batch_locked(updates)
            self._maybe_snapshot()
            return decisions

    # -- readers -------------------------------------------------------------

    def verify_consistency(self) -> list[str]:
        """Full constraint check against the live tree (under the mutex)."""
        with self.store.read_locked():
            return self.checker.verify_consistency()

    def snapshot(self) -> list[str]:
        """Serialized documents, under the mutex."""
        return self.store.snapshot()

    def explain(self) -> list[str]:
        """Planner explain reports for every live full check.

        Runs under the mutex like any other call: a slow explain (it
        profiles real evaluations, see
        :func:`repro.xquery.planner.explain_query`) holds every other
        caller off for its duration.
        """
        from repro.xquery import planner

        reports: list[str] = []
        with self.store.read_locked():
            documents = self.store.documents
            for constraint in self.checker.schema.constraints:
                if constraint.dead:
                    continue
                for query in constraint.full_queries:
                    if query.prepared is None:
                        continue
                    report = planner.explain_query(
                        query.prepared, documents)
                    reports.append(
                        f"constraint {constraint.name}:\n{report}")
        return reports

    def committed_updates(self) -> list[CommittedUpdate]:
        """The commit log so far, in commit order (a copy)."""
        with self.store.read_locked():
            return list(self._committed)

    # -- passthroughs -------------------------------------------------------

    def subscribe(self, listener) -> None:
        """Register a listener on the underlying checker.

        Listeners run inside the mutex-held, transactional scope: a
        listener that raises rolls the update back.
        """
        self.checker.subscribe(listener)
