#!/usr/bin/env python3
"""Legal-write latency against document size, at the shard worker.

The paper's claim is that a pre-compiled, parameter-instantiated check
costs the same however large the document is.  At the service
boundary that holds only if nothing else on the commit path reads the
whole document either.  This script rebuilds the benchmark's
``legal_write_128k`` workload at several corpus sizes and replays it
in-process with the benchmark's own ``layers.replay`` (``ShardWorker``
without sockets, fsync on, the benchmark's checkpoint interval).  For
each size it prints:

* the p50 and p99 of the legal append (the workload's primary class)
  and of the remove that undoes it, from an untraced replay;
* every checkpoint a traced replay takes in its measured cycles: the
  ``xtree.serialize`` spans of every document plus the
  ``persistence.checkpoint`` span (the atomic snapshot install) of the
  commit that crossed the interval, also amortised over the measured
  commits.

``benchmarks/e2e/`` is imported read-only, so corpora, update texts,
seed 1 and checkpoint interval are exactly the benchmark's.
``--profile K`` additionally profiles two untraced replays at ``K``
KiB, one with the measured cycles and one without, and prints the
frames with the most own time in the difference — the measured cycles
alone, without the first touch's corpus parse.

Usage::

    python3 scripts/e2e_size_sweep.py [--profile 512]
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "benchmarks" / "e2e"))
sys.path.insert(0, str(ROOT / "src"))

import argparse  # noqa: E402
import cProfile  # noqa: E402
import dataclasses  # noqa: E402
import pstats  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402

import layers  # noqa: E402
import trace  # noqa: E402
from workloads import WORKLOADS, make_inputs  # noqa: E402

BASE_WORKLOAD = "legal_write_128k"
SIZES_KIB = (32, 128, 512)
SEED = 1
WARMUP_CYCLES = 10
MEASURED_CYCLES = 60
TOP_FRAMES = 15


def percentile(samples: "list[float]", fraction: float) -> float:
    """Nearest-rank percentile (``fraction`` in (0, 1])."""
    ordered = sorted(samples)
    rank = max(1, -(-len(ordered) * fraction // 1))
    return ordered[int(rank) - 1]


def sweep_one(size_kib: int, state_dir: Path) -> dict:
    """An untraced and a traced replay of the workload at one size."""
    workload = dataclasses.replace(
        WORKLOADS[BASE_WORKLOAD], size_kib=size_kib,
        warmup_cycles=WARMUP_CYCLES)
    inputs = make_inputs(workload, SEED)
    plain = layers.replay(workload, inputs, SEED, MEASURED_CYCLES,
                          state_dir / "plain", None)
    tracer = trace.Tracer()
    with tracer.installed():
        traced = layers.replay(workload, inputs, SEED, MEASURED_CYCLES,
                               state_dir / "traced", tracer)
    first_measured = traced.first_index + traced.touches
    return {
        "size_kib": size_kib,
        "doc_bytes": inputs.doc_bytes,
        "latencies_ms": plain.recording.class_latencies_ms(),
        # (serialize, install) per checkpoint; inclusive span times
        "checkpoints_ms": [
            (spans.get("xtree.serialize", (0.0, 0.0))[0] * 1000.0,
             spans["persistence.checkpoint"][0] * 1000.0)
            for request, spans in sorted(tracer.per_request().items())
            if request >= first_measured
            and "persistence.checkpoint" in spans],
        "commits": traced.counts["commits"],
    }


def profile_one(size_kib: int, state_dir: Path) -> None:
    workload = dataclasses.replace(
        WORKLOADS[BASE_WORKLOAD], size_kib=size_kib,
        warmup_cycles=WARMUP_CYCLES)
    inputs = make_inputs(workload, SEED)
    tables = []
    for cycle_count in (0, MEASURED_CYCLES):
        profiler = cProfile.Profile()
        profiler.runcall(layers.replay, workload, inputs, SEED,
                         cycle_count, state_dir / f"{cycle_count}", None)
        tables.append(pstats.Stats(profiler).stats)
    without, with_measured = tables
    rows = []
    for frame, (_, calls, own, *_rest) in with_measured.items():
        _, calls_before, own_before, *_rest = without.get(
            frame, (0, 0, 0.0, 0.0, {}))
        if calls > calls_before:  # else the difference is noise
            rows.append((own - own_before, calls - calls_before, frame))
    rows.sort(reverse=True)
    print(f"profile at {size_kib} KiB, {MEASURED_CYCLES} measured "
          "cycles, top frames by own time:")
    for own, calls, (path, line, function) in rows[:TOP_FRAMES]:
        print(f"  {1000.0 * own:9.1f} ms  {calls:>9} calls  "
              f"{Path(path).name}:{line}({function})")


def print_row(row: dict) -> None:
    name = f"size {row['size_kib']:>4} KiB ({row['doc_bytes']} B)"
    for klass, samples in row["latencies_ms"].items():
        print(f"{name}: {klass:<6} p50 "
              f"{statistics.median(samples):8.3f} ms   p99 "
              f"{percentile(samples, 0.99):8.3f} ms   "
              f"({len(samples)} samples)")
    marks = row["checkpoints_ms"]
    total = sum(serialize + install for serialize, install in marks)
    print(f"{name}: checkpoint serialize + install "
          + (", ".join(f"{serialize:.3f} + {install:.3f} ms"
                       for serialize, install in marks) or "none")
          + f" ({len(marks)} in {row['commits']} commits; "
          f"{total / max(1, row['commits']):.3f} ms per commit "
          "amortised)")


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0])
    parser.add_argument("--profile", type=int, default=None,
                        metavar="KIB",
                        help="also profile the measured cycles at this "
                             "size and print the top frames")
    args = parser.parse_args(argv)
    scratch = Path(tempfile.mkdtemp(prefix="e2e-size-sweep-"))
    try:
        for size in SIZES_KIB:
            print_row(sweep_one(size, scratch / f"{size}"))
        if args.profile is not None:
            profile_one(args.profile, scratch / f"profiled-{args.profile}")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
