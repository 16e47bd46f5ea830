"""Shard worker process: one durable ``CheckingService`` per owned uid.

A worker is a single-threaded process serving length-prefixed JSON
frames (:mod:`repro.service.net.frames`) over a unix socket.  It owns
the uids its position on the consistent-hash ring assigns to it —
ownership is *re-derived and enforced here*, so a confused router can
never make two workers mutate the same document group — and it lazily
opens one :meth:`CheckingService.open_durable
<repro.service.store.CheckingService.open_durable>` per uid under its
own state directory (``shard-<uid>/``).  Because ``open_durable`` on a
directory that already holds durable state *is* recovery, a worker
restarted by the supervisor after a crash heals every shard it owns on
first touch.

The worker serves one frame at a time, so no reader ever runs beside
a writer: ``check`` and ``read`` run on the live tree under the store
lock (uncontended here), and a commit — an ``update``, a
``check_batch`` or a probe — pays for its delta only, never for a
copy of the document.

Frame ops (referenced by the HTTP edge; schema in ``docs/testing.md``):

``ping``, ``update``, ``check``, ``check_batch``, ``read``,
``recover``, ``arm`` (test-only, gated by
:attr:`~repro.service.net.config.ServiceConfig.allow_test_ops`) and
``drain``.  Every response carries ``ok``; failures add ``code`` +
``error``.

Crash semantics: when an armed failpoint fires and either the shard's
write-ahead log marked itself crashed (``persistence.*`` seams) or the
arming requested kill-on-fault — or any other error leaves a log
crashed, such as a failed fsync — the worker ``os._exit``\\ s without
replying — exactly what a SIGKILL mid-request looks like to the front
end, with the on-disk artifacts (torn record, logged-but-unapplied
update) left for recovery, never tidied by the dying process.
"""

from __future__ import annotations

import os
import socket
import sys
from pathlib import Path

from repro.core.guard import UpdateDecision
from repro.errors import RecoveryError, ReproError
from repro.service.net.config import ServiceConfig
from repro.service.net.frames import FrameError, recv_frame, send_frame
from repro.service.net.ring import HashRing
from repro.service.persistence import has_durable_state
from repro.service.store import CheckingService, DocumentStore
from repro.testing.failpoints import FailPointError, fail
from repro.xtree.serializer import serialize
from repro.xupdate.parser import canonical_update_text

__all__ = [
    "SHARD_DIR_PREFIX",
    "ShardWorker",
    "decision_to_json",
    "worker_main",
]

#: shard state directories are ``<state_dir>/shard-<uid>`` — the uid is
#: validated path-safe by :meth:`DocumentStore.validate_uid` first
SHARD_DIR_PREFIX = "shard-"

#: exit status of a simulated kill (distinguishable from a clean exit
#: and from python tracebacks in the supervisor's logs)
KILLED_EXIT_STATUS = 70


def decision_to_json(decision: UpdateDecision) -> dict:
    """The wire form of one checker decision (shared with the tests'
    oracle comparison, so both sides serialize identically)."""
    return {
        "legal": decision.legal,
        "applied": decision.applied,
        "violated": list(decision.violated),
        "optimized": decision.optimized,
    }


class ShardWorker:
    """The request handler: ring ownership + per-uid durable services."""

    def __init__(self, worker_id: int, worker_count: int,
                 state_dir: "str | Path",
                 config: ServiceConfig) -> None:
        self.worker_id = worker_id
        self.ring = HashRing(range(worker_count))
        self.state_dir = Path(state_dir)
        self.config = config
        self.schema = config.build_schema()
        self.services: dict[str, CheckingService] = {}
        self.draining = False
        self._kill_on_fault = False

    # -- shard management ---------------------------------------------------

    def shard_dir(self, uid: str) -> Path:
        return self.state_dir / (SHARD_DIR_PREFIX + uid)

    def service_for(self, uid: str) -> CheckingService:
        service = self.services.get(uid)
        if service is None:
            # an existing state directory wins over the seed corpus:
            # open_durable recovers it (restart-and-replay), so the
            # seed is parsed only for a shard that has no state yet
            shard_dir = self.shard_dir(uid)
            seed = [] if has_durable_state(shard_dir) \
                else self.config.initial_documents()
            service = CheckingService.open_durable(
                self.schema, seed, shard_dir,
                snapshot_interval=self.config.snapshot_interval,
                sync=self.config.sync_writes)
            self.services[uid] = service
        return service

    def close(self) -> None:
        for service in self.services.values():
            service.close()
        self.services.clear()

    def _wal_crashed(self) -> bool:
        return any(service.wal_crashed
                   for service in self.services.values())

    # -- dispatch -----------------------------------------------------------

    def handle(self, request: dict) -> dict:
        """One request frame → one response frame (never raises)."""
        try:
            return self._dispatch(request)
        except FailPointError as error:
            if self._kill_on_fault or self._wal_crashed():
                # simulated kill: die without replying, leaving the
                # on-disk crash artifacts exactly as a SIGKILL would
                os._exit(KILLED_EXIT_STATUS)
            return {"ok": False, "code": "injected-fault",
                    "error": str(error)}
        except RecoveryError as error:
            return {"ok": False, "code": error.code,
                    "error": str(error)}
        except ReproError as error:
            return {"ok": False,
                    "code": type(error).__name__,
                    "error": str(error)}
        except Exception as error:  # noqa: BLE001 — keep the worker up
            if self._wal_crashed():
                # a failed group fsync: memory may hold updates the
                # disk lost, so only restart-and-recover is safe
                os._exit(KILLED_EXIT_STATUS)
            return {"ok": False, "code": "internal",
                    "error": repr(error)}

    def _dispatch(self, request: dict) -> dict:
        op = request.get("op")
        if op == "ping":
            return {"ok": True, "worker": self.worker_id,
                    "pid": os.getpid()}
        if op == "drain":
            self.draining = True
            closed = len(self.services)
            self.close()
            return {"ok": True, "closed": closed}
        if op == "arm":
            return self._op_arm(request)
        if op in ("update", "check", "check_batch", "read", "recover"):
            uid = request.get("uid")
            if not isinstance(uid, str):
                return {"ok": False, "code": "bad-uid",
                        "error": "request needs a string 'uid'"}
            DocumentStore.validate_uid(uid)
            owner = self.ring.owner(uid)
            if owner != self.worker_id:
                # ownership is enforced here, not just at the router
                return {"ok": False, "code": "not-owner",
                        "owner": owner,
                        "error": f"uid {uid!r} is owned by worker "
                                 f"{owner}, not {self.worker_id}"}
            return getattr(self, f"_op_{op}")(uid, request)
        return {"ok": False, "code": "bad-op",
                "error": f"unknown op {op!r}"}

    # -- ops ----------------------------------------------------------------

    def _op_update(self, uid: str, request: dict) -> dict:
        update = request.get("update")
        if not isinstance(update, str):
            return {"ok": False, "code": "bad-request",
                    "error": "update op needs a string 'update'"}
        decision = self.service_for(uid).try_execute(update)
        return {"ok": True, "decision": decision_to_json(decision)}

    def _op_check(self, uid: str, request: dict) -> dict:
        violations = self.service_for(uid).verify_consistency()
        return {"ok": True, "violations": list(violations)}

    def _op_check_batch(self, uid: str, request: dict) -> dict:
        updates = request.get("updates")
        if not isinstance(updates, list) \
                or not all(isinstance(u, str) for u in updates):
            return {"ok": False, "code": "bad-request",
                    "error": "check_batch op needs a list of "
                             "string 'updates'"}
        decisions = self.service_for(uid).check_batch(list(updates))
        return {"ok": True,
                "decisions": [decision_to_json(d) for d in decisions]}

    def _op_read(self, uid: str, request: dict) -> dict:
        service = self.service_for(uid)
        response = {"ok": True, "documents": service.snapshot()}
        if request.get("with_log"):
            response["log"] = [
                canonical_update_text(entry.update)
                for entry in service.committed_updates()]
        return response

    def _op_recover(self, uid: str, request: dict) -> dict:
        """Force a from-disk recovery of one shard (idempotent)."""
        service = self.services.pop(uid, None)
        if service is not None:
            service.close()
        recovered = CheckingService.recover(
            self.schema, self.shard_dir(uid),
            snapshot_interval=self.config.snapshot_interval,
            sync=self.config.sync_writes)
        self.services[uid] = recovered
        info = recovered.last_recovery
        assert info is not None
        return {"ok": True,
                "snapshot_lsn": info.snapshot_lsn,
                "replayed": info.replayed,
                "total_records": info.total_records,
                "committed": len(recovered.committed_updates()),
                "violations": recovered.verify_consistency()}

    def _op_arm(self, request: dict) -> dict:
        """Arm a failpoint schedule in this worker (chaos tests only)."""
        if not self.config.allow_test_ops:
            return {"ok": False, "code": "forbidden",
                    "error": "test ops are disabled "
                             "(ServiceConfig.allow_test_ops)"}
        spec = request.get("spec")
        if not isinstance(spec, str) or not spec.strip():
            return {"ok": False, "code": "bad-request",
                    "error": "arm op needs a failpoint 'spec'"}
        handle = fail.arm_persistent(spec)
        self._kill_on_fault = bool(request.get("kill", True))
        return {"ok": True, "armed": sorted(handle.counts()),
                "kill": self._kill_on_fault}


# ---------------------------------------------------------------------------
# process entry point
# ---------------------------------------------------------------------------


def _serve_connection(worker: ShardWorker,
                      connection: socket.socket) -> None:
    with connection:
        while True:
            try:
                request = recv_frame(connection)
            except FrameError:
                return  # peer died mid-frame; await a reconnect
            if request is None:
                return
            response = worker.handle(request)
            try:
                send_frame(connection, response)
            except OSError:
                return
            if worker.draining:
                return


def worker_main(worker_id: int, worker_count: int, state_dir: str,
                socket_path: str, config: ServiceConfig) -> None:
    """Entry point of one spawned worker process."""
    worker = ShardWorker(worker_id, worker_count, state_dir, config)
    path = Path(socket_path)
    path.unlink(missing_ok=True)
    server = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    try:
        server.bind(socket_path)
        server.listen(4)
        while not worker.draining:
            connection, _ = server.accept()
            _serve_connection(worker, connection)
    except KeyboardInterrupt:  # pragma: no cover - interactive stop
        pass
    finally:
        worker.close()
        server.close()
        path.unlink(missing_ok=True)
    sys.exit(0)
