"""Correctness oracle: replay the op stream in-process and compare.

After timing, every op the load generator sent is replayed, in order,
against one volatile in-process :class:`CheckingService` per document
group, built from the *same* :class:`ServiceConfig` the server was
launched from.  Each verdict (``legal`` / ``applied`` / ``violated``,
the violation list of a ``/check``, the bytes of a ``/read``) must be
what the networked service answered, and the final documents must be
byte-identical.  The oracle runs with ``snapshot_reads=False``: it
needs no concurrent readers, and it thereby answers reads from the
live tree rather than from the published clones the server reads.
"""

from __future__ import annotations

from repro.service.net import ServiceConfig
from repro.service.net.worker import decision_to_json
from repro.service.store import CheckingService

from loadgen import Recording, decision_verdict, documents_digest
from workloads import Op


class Oracle:
    def __init__(self, config: ServiceConfig) -> None:
        self.config = config
        self.schema = config.build_schema()
        self.services: "dict[str, CheckingService]" = {}
        # a /check answer is a pure function of the documents; between
        # two commits of a group it is computed once
        self._check_memo: "dict[str, tuple]" = {}

    def service_for(self, uid: str) -> CheckingService:
        service = self.services.get(uid)
        if service is None:
            service = CheckingService(
                self.schema, self.config.initial_documents(),
                snapshot_reads=False)
            self.services[uid] = service
        return service

    def answer(self, op: Op) -> tuple:
        service = self.service_for(op.uid)
        if op.kind == "update":
            decision = service.try_execute(op.payload)
            if decision.applied:
                self._check_memo.pop(op.uid, None)
            return (200, decision_verdict(decision_to_json(decision)))
        if op.kind == "check_batch":
            decisions = service.check_batch(list(op.payload))
            self._check_memo.pop(op.uid, None)
            return (200, tuple(decision_verdict(decision_to_json(d))
                               for d in decisions))
        if op.kind == "check":
            if op.uid not in self._check_memo:
                self._check_memo[op.uid] = tuple(
                    service.verify_consistency())
            return (200, self._check_memo[op.uid])
        return (200, documents_digest(service.snapshot()))

    def answers(self, ops: "list[Op]") -> "list[tuple]":
        return [self.answer(op) for op in ops]

    def final_digest(self, uid: str) -> str:
        return documents_digest(self.service_for(uid).snapshot())


def differences(recording: Recording, expected: "list[tuple]",
                label: str = "service") -> "list[str]":
    """Human-readable differences between a recording's verdicts and
    the oracle's answers for the same ops (empty = correct).  A
    transport error (verdict ``None``) is a difference too: nothing
    the oracle does fails."""
    return [f"op {index} ({op.kind} {op.uid} {op.klass}): "
            f"{label} {verdict!r}, oracle {answer!r}"
            for index, (op, verdict, answer) in enumerate(
                zip(recording.ops, recording.verdicts, expected))
            if verdict != answer]


def mismatches(config: ServiceConfig, recording: Recording,
               final_digests: "dict[str, str]") -> "list[str]":
    """Replay ``recording`` and compare every verdict and, per group,
    the final document bytes."""
    oracle = Oracle(config)
    found = differences(recording, oracle.answers(recording.ops))
    for uid, digest in final_digests.items():
        if oracle.final_digest(uid) != digest:
            found.append(f"final documents of {uid!r} differ from the "
                         "oracle's")
    return found
