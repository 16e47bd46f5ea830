"""Thread-safe service layer over the run-time checkers.

The checkers in :mod:`repro.core` are correct for one caller at a
time; this package makes them safe to share — and safe to kill:

* :class:`ReadWriteLock` — writer-preferring reader–writer lock;
* :class:`DocumentStore` — the document collection behind one lock;
* :class:`CheckingService` — the façade serving updates (serialized)
  and read-only checks (concurrent), with a commit log whose
  sequential replay reproduces the store's exact state;
* :mod:`repro.service.snapshots` — the MVCC-lite read path: writers
  publish immutable copy-on-write :class:`DocumentSnapshot` versions
  at commit boundaries (:class:`SnapshotManager`), and reads pin one
  instead of taking the store lock, so checks never queue behind
  writers (the default of an in-process ``CheckingService``);
* :mod:`repro.service.persistence` — the durable form of that commit
  log: a write-ahead log fsync'd before each update commits, atomic
  snapshots, and restart-and-replay recovery
  (:meth:`CheckingService.open_durable` /
  :meth:`CheckingService.recover`).  Durable services read the live
  tree under the store lock and publish no snapshots.

Together with the :class:`~repro.xupdate.apply.TransactionLog` that
makes every update all-or-nothing, this is the robustness layer the
scaling work (sharding, batching, async) builds on.
"""

from repro.service.locks import ReadWriteLock
from repro.service.snapshots import DocumentSnapshot, SnapshotManager
from repro.service.persistence import (
    DurableLog,
    Snapshot,
    WalRecord,
    load_snapshot,
    write_snapshot,
)
from repro.service.store import (
    CheckingService,
    CommittedUpdate,
    DocumentStore,
    RecoveryInfo,
)

__all__ = [
    "ReadWriteLock",
    "CheckingService",
    "CommittedUpdate",
    "DocumentSnapshot",
    "DocumentStore",
    "DurableLog",
    "SnapshotManager",
    "RecoveryInfo",
    "Snapshot",
    "WalRecord",
    "load_snapshot",
    "write_snapshot",
]
