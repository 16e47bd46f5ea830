"""Per-layer metrics: the ``--trace 1`` run.

Three phases over the *same* seeded op stream:

1. a short networked run (as ``--trace 0``, one set-up) that gives the
   end-to-end median ``net.edge_ms`` is derived from;
2. an **untraced in-process replay** against ``ShardWorker.handle`` —
   no sockets, same durable services, fsync on — giving
   ``worker.handle_ms``;
3. the same replay **traced** (``trace.py``), giving every layer's
   time per op.  Traced total / untraced total − 1 is the reported
   tracing overhead; because self times partition the traced total, it
   is also how far the layer self times are from summing to the
   untraced figure.

The in-process replays run a *frozen number of cycles per second of*
``--seconds`` (``Workload.trace_cycles_per_s``), not a time box, so the
counts they report — clones, fsyncs, WAL bytes, checkpoints per commit
— repeat exactly from run to run and from commit to commit.  A few
micro-measures (frame round trip, ring lookup, parse/serialize at
corpus size, the optimized check under each evaluation backend,
recovery) complete the table.

Per-op figures are medians over the measured requests of the
workload's primary class; a batch request's time is divided by the
updates it decides.
"""

from __future__ import annotations

import random
import shutil
import socket
import statistics
import threading
import time
from pathlib import Path

from repro.service.net.frames import recv_frame, send_frame
from repro.service.net.ring import HashRing
from repro.service.net.worker import ShardWorker
from repro.service.store import CheckingService
from repro.xquery import planner
from repro.xtree.parser import parse_document
from repro.xtree.serializer import serialize
from repro.xupdate.analyze import signature_of
from repro.xupdate.parser import InsertOperation, parse_modifications

import loadgen
import oracle
import trace
from server import OUT_DIR, Server, fresh_run_dir, timed_setup
from workloads import (
    Inputs,
    Op,
    Workload,
    cycles,
    legal_append,
    make_inputs,
)

#: share of ``--seconds`` spent on the networked phase
E2E_SHARE = 0.3
MICRO_REPS = 15


def _median_ms(samples_s: "list[float]") -> float:
    return statistics.median(samples_s) * 1000.0


def _time(function, reps: int = MICRO_REPS) -> "list[float]":
    samples = []
    for _ in range(reps):
        begin = time.perf_counter()
        function()
        samples.append(time.perf_counter() - begin)
    return samples


# -- in-process replay ------------------------------------------------------


def _request(op: Op) -> dict:
    """The frame the edge would send the worker for ``op``."""
    request: dict = {"op": op.kind, "uid": op.uid}
    if op.kind == "update":
        request["update"] = op.payload
    elif op.kind == "check_batch":
        request["updates"] = list(op.payload)
    return request


class Replay:
    """The deployment's workers inside this process, no sockets.

    One ``ShardWorker`` per configured worker, requests routed by the
    same ring the edge uses.  All workers share this process's module-
    level caches, which separate worker processes would not."""

    def __init__(self, workload: Workload, inputs: Inputs,
                 state_dir: Path) -> None:
        self.ring = HashRing(range(workload.workers))
        self.workers = [
            ShardWorker(worker_id, workload.workers,
                        state_dir / f"w{worker_id}", inputs.config)
            for worker_id in range(workload.workers)]
        #: latency class → last response body (frame-size probe)
        self.last_response: "dict[str, dict]" = {}

    def call(self, op: Op) -> tuple:
        body = self.workers[self.ring.owner(op.uid)].handle(_request(op))
        self.last_response[op.klass] = body
        return loadgen.response_verdict(
            op, 200 if body.get("ok") else 500, body)

    def counters(self) -> "dict[str, int]":
        """Monotonic counts, summed over every open service."""
        totals = {"cloned": 0, "commits": 0, "wal_bytes": 0}
        for worker in self.workers:
            for service in worker.services.values():
                totals["cloned"] += service.snapshots.stats()["cloned"]
                records = service.wal_records()
                totals["commits"] += len(records)
                totals["wal_bytes"] += records[-1].end if records else 0
        return totals

    def close(self) -> None:
        for worker in self.workers:
            worker.close()


class ReplayResult:
    def __init__(self, recording: loadgen.Recording, touches: int,
                 first_index: int, counts: "dict[str, int]",
                 fsyncs: int, state_bytes: int,
                 responses: "dict[str, dict]") -> None:
        self.recording = recording
        #: first-touch requests sent before the recorded stream; the
        #: request id of ``recording.ops[i]`` is ``i + touches``
        self.touches = touches
        #: index in ``recording`` of the first measured op
        self.first_index = first_index
        self.counts = counts
        self.fsyncs = fsyncs
        self.state_bytes = state_bytes
        self.responses = responses

    def total_s(self) -> float:
        return sum(latency for _, latency in self.recording.measured())

    def primary_ms(self, workload: Workload) -> "list[float]":
        return [latency * 1000.0 / op.count
                for op, latency in self.recording.measured()
                if op.klass == workload.primary]


def replay(workload: Workload, inputs: Inputs, seed: int,
           cycle_count: int, state_dir: Path,
           tracer: "trace.Tracer | None") -> ReplayResult:
    """First touch of every group, warm-up, then ``cycle_count``
    measured cycles; counts are deltas over the measured cycles."""
    run = Replay(workload, inputs, state_dir)
    try:
        for uid in workload.uids():
            run.call(Op("check", uid, "touch"))
        stream = cycles(workload, inputs, seed,
                        "traced" if tracer else "replay")
        recording = loadgen.drive(run.call, stream, 0.0,
                                  workload.warmup_cycles)
        before = run.counters()
        fsyncs_before = tracer.fsyncs if tracer else 0
        first_index = len(recording.ops)
        for _ in range(cycle_count):
            loadgen.run_cycle(run.call, stream, recording, timed=True)
        after = run.counters()
        return ReplayResult(
            recording, len(workload.uids()), first_index,
            {key: after[key] - before[key] for key in after},
            (tracer.fsyncs - fsyncs_before) if tracer else 0,
            sum(path.stat().st_size for path in state_dir.rglob("*")
                if path.is_file()),
            run.last_response)
    finally:
        run.close()


# -- micro-measures ---------------------------------------------------------


def frame_roundtrip_us(request: dict, response: dict) -> float:
    """One request frame out and one response frame back over a
    socketpair, codec included, at the workload's payload sizes."""
    near, far = socket.socketpair()

    def echo() -> None:
        with far:
            while recv_frame(far) is not None:
                send_frame(far, response)

    peer = threading.Thread(target=echo, daemon=True)
    peer.start()
    try:
        def roundtrip() -> None:
            send_frame(near, request)
            recv_frame(near)
        samples = _time(roundtrip, reps=200)
    finally:
        near.close()
        peer.join(timeout=10)
    return statistics.median(samples) * 1e6


def ring_owner_us(workload: Workload) -> float:
    ring = HashRing(range(workload.workers))
    uids = workload.uids()
    rounds = 2000

    def lookups() -> None:
        for index in range(rounds):
            ring.owner(uids[index % len(uids)])

    return statistics.median(_time(lookups, reps=7)) / rounds * 1e6


def truth_by_backend_ms(inputs: Inputs, schema,
                        update_texts: "list[str]") -> "dict[str, float]":
    """The optimized check of the workload's first pattern-matched
    update (a legal pattern-U append if it sends none), evaluated
    under each backend."""
    documents = inputs.config.initial_documents()
    # the service attaches column stores through its guard
    CheckingService(schema, documents, snapshot_reads=False)
    fallback = legal_append(inputs.targets[0], random.Random(0))
    for text in update_texts + [fallback]:
        operation = parse_modifications(text)[0]
        if isinstance(operation, InsertOperation):
            checks = schema.checks_for(
                signature_of(operation, schema.relational))
            if checks is not None:
                break
    rev_doc = next(doc for doc in documents
                   if doc.root.tag == "review")
    bindings = checks.analyzed.bind(rev_doc, operation)
    queries = [query for check in checks.optimized
               if not check.trivial for query in check.queries]

    def evaluate() -> None:
        for query in queries:
            query.truth(documents, bindings)

    def timed() -> float:
        evaluate()  # plan and index caches fill before timing
        return _median_ms(_time(evaluate))

    results = {"columnar": timed()}
    with planner.without_columns():
        results["planned"] = timed()
    with planner.unplanned():
        results["unplanned"] = timed()
    return results


def recover_ms(schema, shard_dir: Path, scratch: Path) -> float:
    """``CheckingService.recover`` on copies of an end-of-run shard."""
    samples = []
    for rep in range(3):
        copy = scratch / f"recover-{rep}"
        shutil.copytree(shard_dir, copy)
        begin = time.perf_counter()
        service = CheckingService.recover(schema, copy)
        samples.append(time.perf_counter() - begin)
        service.close()
    return _median_ms(samples)


# -- the run ----------------------------------------------------------------


def per_op_ms(tracer: trace.Tracer, result: ReplayResult,
              workload: Workload) -> "dict[str, list[tuple]]":
    """span name → [(inclusive ms, self ms) per measured primary-class
    op]; a name absent from a request contributes zeros."""
    requests = tracer.per_request()
    names = {name for spans in requests.values() for name in spans}
    table: "dict[str, list[tuple]]" = {name: [] for name in names}
    ops = result.recording.ops
    for index in range(result.first_index, len(ops)):
        op = ops[index]
        if op.klass != workload.primary:
            continue
        spans = requests.get(index + result.touches, {})
        scale = 1000.0 / op.count
        for name in names:
            inclusive, own = spans.get(name, (0.0, 0.0))
            table[name].append((inclusive * scale, own * scale))
    return table


def run_layers(workload: Workload, seed: int, seconds: float) -> dict:
    inputs = make_inputs(workload, seed)
    schema = inputs.config.build_schema()
    run_dir = fresh_run_dir()
    cycle_count = max(4, round(workload.trace_cycles_per_s * seconds))
    try:
        server = Server(workload, inputs, run_dir)
        try:
            timed_setup(server)
            with server.client() as client:
                net = loadgen.drive(
                    lambda op: loadgen.send(client, op),
                    cycles(workload, inputs, seed),
                    seconds * E2E_SHARE, workload.warmup_cycles)
        finally:
            server.stop()
        plain = replay(workload, inputs, seed, cycle_count,
                       run_dir / "plain", None)
        tracer = trace.Tracer()
        with tracer.installed():
            traced = replay(workload, inputs, seed, cycle_count,
                            run_dir / "traced", tracer)
        shard = next((run_dir / "traced").glob("w*/shard-*"))
        recovered_ms = recover_ms(schema, shard, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    recordings = {"service": net, "replay": plain.recording,
                  "traced replay": traced.recording}
    wrong = [line for label, rec in recordings.items()
             for line in oracle.differences(
                 rec, oracle.Oracle(inputs.config).answers(rec.ops),
                 label)]

    table = per_op_ms(tracer, traced, workload)

    def per_op(column: int, *names: str) -> float:
        rows = [table[name] for name in names if name in table]
        if not rows:
            return 0.0
        return statistics.median(
            sum(cell[column] for cell in cells) for cells in zip(*rows))

    e2e_p50 = statistics.median(
        latency * 1000.0 / op.count for op, latency in net.measured()
        if op.klass == workload.primary)
    handle_p50 = statistics.median(plain.primary_ms(workload))
    commits = traced.counts["commits"]
    rec = traced.recording
    measured_from = traced.first_index
    update_texts = [
        text for op in rec.ops[:64]
        if op.kind in ("update", "check_batch")
        for text in ([op.payload] if op.kind == "update"
                     else op.payload)]
    applied_bytes = 0
    for op, verdict in zip(rec.ops[measured_from:],
                           rec.verdicts[measured_from:]):
        if op.kind == "update" and verdict[1][1]:
            applied_bytes += len(op.payload.encode())
        elif op.kind == "check_batch":
            applied_bytes += sum(
                len(text.encode())
                for text, decision in zip(op.payload, verdict[1])
                if decision[1])
    checkpoints = [span for span in tracer.spans()
                   if span.name == "persistence.checkpoint"]
    measured_checkpoints = sum(
        1 for span in checkpoints
        if span.request >= traced.first_index + traced.touches)
    primary_op = next(op for op in rec.ops
                      if op.klass == workload.primary)
    truth = truth_by_backend_ms(inputs, schema, update_texts[:64])
    documents = inputs.config.initial_documents()

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    metrics = {
        "worker.handle_ms": (handle_p50, "ms"),
        "net.edge_ms": (e2e_p50 - handle_p50, "ms"),
        "net.frame_roundtrip_us": (frame_roundtrip_us(
            _request(primary_op),
            traced.responses[workload.primary]), "us"),
        "net.ring_owner_us": (ring_owner_us(workload), "us"),
        "worker.self_ms": (per_op(1, "worker.handle"), "ms"),
        "store.self_ms": (per_op(
            1, "store.try_execute", "store.check_batch",
            "store.check", "store.read"), "ms"),
        "guard.self_ms": (per_op(
            1, "guard.try_execute", "guard.check_batch"), "ms"),
        "snapshots.publish_ms": (
            per_op(0, "snapshots.publish"), "ms"),
        "snapshots.clones_per_commit": (
            ratio(traced.counts["cloned"], commits), "count"),
        "persistence.append_ms": (
            per_op(0, "persistence.append"), "ms"),
        "persistence.fsyncs_per_commit": (
            ratio(traced.fsyncs, commits), "count"),
        "persistence.wal_bytes_per_update_byte": (
            ratio(traced.counts["wal_bytes"], applied_bytes), "ratio"),
        "persistence.checkpoint_ms": (_median_ms(
            [span.duration for span in checkpoints]), "ms"),
        "persistence.checkpoints_per_100_commits": (
            ratio(100.0 * measured_checkpoints, commits), "count"),
        "persistence.state_bytes_per_doc_byte": (
            traced.state_bytes
            / (inputs.doc_bytes * len(workload.uids())), "ratio"),
        "persistence.recover_ms": (recovered_ms, "ms"),
        "xupdate.parse_ms": (per_op(0, "xupdate.parse"), "ms"),
        "xupdate.bind_ms": (per_op(0, "xupdate.bind"), "ms"),
        "xupdate.apply_ms": (
            per_op(0, "xupdate.apply", "xupdate.rollback"), "ms"),
        "xquery.truth_ms": (per_op(0, "xquery.truth"), "ms"),
        "xquery.truth_columnar_ms": (truth["columnar"], "ms"),
        "xquery.truth_planned_ms": (truth["planned"], "ms"),
        "xquery.truth_unplanned_ms": (truth["unplanned"], "ms"),
        "xquery.full_check_ms": (
            per_op(0, "xquery.full_check"), "ms"),
        "xtree.serialize_ms": (_median_ms(_time(
            lambda: [serialize(doc) for doc in documents])), "ms"),
        "xtree.parse_ms": (_median_ms(_time(
            lambda: [parse_document(text)
                     for text in inputs.config.documents])), "ms"),
        "trace.overhead_frac": (
            traced.total_s() / plain.total_s() - 1.0, "ratio"),
    }
    tracer.dump(OUT_DIR / f"trace-{workload.name}.json", {
        "workload": workload.name, "seed": seed,
        "cycles": cycle_count,
        "first_measured_request": traced.first_index + traced.touches})
    return {
        "metrics": metrics,
        "attempted": sum(op.count for rec in recordings.values()
                         for op in rec.ops),
        "mismatches": wrong,
        "layers": {
            "e2e_p50_ms": e2e_p50,
            "handle_p50_ms": handle_p50,
            "traced_handle_p50_ms": statistics.median(
                traced.primary_ms(workload)),
            # (span name, mean, median) self time per primary-class
            # op; the means add up to the traced handle time
            "self_ms": sorted(
                ((name, statistics.fmean(cell[1] for cell in cells),
                  statistics.median(cell[1] for cell in cells))
                 for name, cells in table.items()),
                key=lambda row: -row[1]),
            "handle_mean_ms": statistics.fmean(
                plain.primary_ms(workload)),
            "commits": commits,
            "cycles": cycle_count,
            "replay_s": (plain.total_s(), traced.total_s()),
        },
    }
