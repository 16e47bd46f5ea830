"""Thread-safe service layer over the run-time checkers.

The checkers in :mod:`repro.core` are correct for one caller at a
time; this package makes them safe to share — and safe to kill:

* :class:`DocumentStore` — the document collection behind one mutex;
* :class:`CheckingService` — the façade serving updates and read-only
  checks one at a time on the live tree, under the store's mutex,
  with a commit log whose sequential replay reproduces the store's
  exact state;
* :mod:`repro.service.persistence` — the durable form of that commit
  log: a write-ahead log fsync'd before each update commits, atomic
  snapshots, and restart-and-replay recovery
  (:meth:`CheckingService.open_durable` /
  :meth:`CheckingService.recover`).

Together with the :class:`~repro.xupdate.apply.TransactionLog` that
makes every update all-or-nothing, this is the robustness layer the
scaling work (sharding, batching, async) builds on.
"""

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
    "CheckingService",
    "CommittedUpdate",
    "DocumentStore",
    "DurableLog",
    "RecoveryInfo",
    "Snapshot",
    "WalRecord",
    "load_snapshot",
    "write_snapshot",
]
