"""Closed-loop load generator: one client, one kept-alive connection.

The callers of this service each wait for a verdict before sending the
next update, so the generator does the same: no think time, the next
request leaves when the previous reply has been read.  A slow server
therefore receives less load, and throughput is 1 / mean latency.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from typing import Callable, Iterator

from repro.service.net.client import ServiceClientError

from workloads import Op

#: a verdict in comparable form; ``None`` marks a transport error
Verdict = "tuple | None"


def decision_verdict(decision: dict) -> tuple:
    return (decision["legal"], decision["applied"],
            tuple(decision["violated"]))


def documents_digest(documents: "list[str]") -> str:
    digest = hashlib.sha1()
    for text in documents:
        digest.update(text.encode("utf-8"))
        digest.update(b"\0")
    return digest.hexdigest()


def response_verdict(op: Op, status: int, body: dict) -> tuple:
    """What the oracle must reproduce for ``op``: the HTTP status and
    the decision(s), violation list or document bytes."""
    if status != 200:
        return (status, body.get("code"))
    if op.kind == "update":
        return (200, decision_verdict(body["decision"]))
    if op.kind == "check_batch":
        return (200, tuple(decision_verdict(decision)
                           for decision in body["decisions"]))
    if op.kind == "check":
        return (200, tuple(body["violations"]))
    return (200, documents_digest(body["documents"]))


def send(client, op: Op) -> tuple:
    if op.kind == "update":
        status, body = client.update(op.uid, op.payload)
    elif op.kind == "check_batch":
        status, body = client.check_batch(op.uid, list(op.payload))
    elif op.kind == "check":
        status, body = client.check(op.uid)
    else:
        status, body = client.read(op.uid)
    return response_verdict(op, status, body)


@dataclass
class Recording:
    """Every op sent, in order, with its verdict; latencies only for
    the measured phase (warm-up ops carry ``None``)."""

    ops: "list[Op]" = field(default_factory=list)
    verdicts: "list[Verdict]" = field(default_factory=list)
    latencies: "list[float | None]" = field(default_factory=list)
    measured_s: float = 0.0

    def measured(self) -> "Iterator[tuple[Op, float]]":
        for op, latency in zip(self.ops, self.latencies):
            if latency is not None:
                yield op, latency

    def class_latencies_ms(self) -> "dict[str, list[float]]":
        """Latency class → milliseconds per request, measured phase."""
        classes: "dict[str, list[float]]" = {}
        for op, latency in self.measured():
            classes.setdefault(op.klass, []).append(latency * 1000.0)
        return classes

    def ops_measured(self) -> int:
        return sum(op.count for op, _ in self.measured())


def run_cycle(call: "Callable[[Op], Verdict]",
              stream: "Iterator[list[Op]]", recording: Recording,
              timed: bool) -> None:
    """Send the next cycle's ops one after the other, recording each."""
    for op in next(stream):
        begin = time.perf_counter()
        try:
            verdict = call(op)
        except ServiceClientError:
            verdict = None
        latency = time.perf_counter() - begin
        recording.ops.append(op)
        recording.verdicts.append(verdict)
        recording.latencies.append(latency if timed else None)


def drive(call: "Callable[[Op], Verdict]", stream: "Iterator[list[Op]]",
          seconds: float, warmup_cycles: int) -> Recording:
    """Run whole cycles for ``seconds`` after ``warmup_cycles`` untimed
    ones.  ``call`` performs one op and returns its verdict."""
    recording = Recording()
    for _ in range(warmup_cycles):
        run_cycle(call, stream, recording, timed=False)
    begin = time.perf_counter()
    deadline = begin + seconds
    while time.perf_counter() < deadline:
        run_cycle(call, stream, recording, timed=True)
    recording.measured_s = time.perf_counter() - begin
    return recording


def tail(values_ms: "list[float]") -> "tuple[float, float]":
    """(percentile, value): the highest percentile that still has ten
    samples beyond it — the furthest into the tail this sample
    supports."""
    ordered = sorted(values_ms)
    index = max(0, len(ordered) - 11)
    return 100.0 * (index + 1) / len(ordered), ordered[index]
