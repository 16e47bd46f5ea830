"""Service-boundary benchmark with a per-layer breakdown.

Driver mode (the contract of ``BENCHMARK.json``)::

    python3 benchmarks/e2e/run.py --workload legal_write_128k \\
        --seed 1 --seconds 10 --trace 0

launches the real deployment (``python -m repro serve``, fsync on),
drives it closed-loop over one ``ServiceClient`` connection, checks
every answer against the in-process oracle and prints one JSON object
as its last line.  ``--trace 1`` prints the per-layer metrics instead
(see ``layers.py``).  Without ``--workload`` the whole suite runs and
the fig. 1 ordering is asserted; ``--layers``, ``--aa`` and ``--smoke``
are described in ``README.md``.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"
if not (SRC / "repro" / "__init__.py").is_file():
    # a directory holding only the benchmark: nothing to measure
    sys.exit(f"error: {SRC}/repro not found; run from a full checkout")
sys.path.insert(0, str(SRC))

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

import layers  # noqa: E402
import loadgen  # noqa: E402
import oracle  # noqa: E402
from server import OUT_DIR, Server, fresh_run_dir, timed_setup  # noqa: E402
from workloads import WORKLOADS, Workload, cycles, make_inputs  # noqa: E402

#: deployments launched per run; ``setup_s`` is the median
SETUP_REPS = 3
#: per-layer counts that must repeat exactly between two runs of the
#: same code (the in-process replays run a frozen number of cycles)
EXACT_COUNTS = ("snapshots.clones_per_commit",
                "persistence.fsyncs_per_commit",
                "persistence.wal_bytes_per_update_byte",
                "persistence.checkpoints_per_100_commits")


def run_e2e(workload: Workload, seed: int, seconds: float,
            setup_reps: int = SETUP_REPS) -> dict:
    """One untraced end-to-end run: metrics, diagnostics, mismatches."""
    inputs = make_inputs(workload, seed)
    setups = []
    run_dir = fresh_run_dir()
    server = Server(workload, inputs, run_dir)
    try:
        for rep in range(setup_reps):
            if rep:
                # a new deployment from nothing: fresh state directory
                server.stop()
                shutil.rmtree(run_dir)
                run_dir.mkdir()
            setups.append(timed_setup(server))
        with server.client() as client:
            recording = loadgen.drive(
                lambda op: loadgen.send(client, op),
                cycles(workload, inputs, seed), seconds,
                workload.warmup_cycles)
            rss_mib = server.rss_mib()
            finals = {}
            for uid in workload.uids():
                status, body = client.read(uid)
                finals[uid] = loadgen.documents_digest(
                    body.get("documents", [])) if status == 200 else ""
    finally:
        server.stop()
        shutil.rmtree(run_dir, ignore_errors=True)
    oracle_begin = time.perf_counter()
    wrong = oracle.mismatches(inputs.config, recording, finals)
    oracle_s = time.perf_counter() - oracle_begin
    classes = recording.class_latencies_ms()
    primary = classes[workload.primary]
    percentile, tail_ms = loadgen.tail(primary)
    return {
        "metrics": {
            "p50_ms": (statistics.median(primary), "ms"),
            "throughput_ops_s": (
                recording.ops_measured() / recording.measured_s,
                "ops/s"),
            "worker_rss_mib": (rss_mib, "MiB"),
            "setup_s": (statistics.median(setups), "s"),
        },
        "attempted": sum(op.count for op in recording.ops),
        "mismatches": wrong,
        "diagnostics": {
            "primary_class": workload.primary,
            "primary_samples": len(primary),
            "ptail_ms": tail_ms,
            "ptail_percentile": percentile,
            "class_p50_ms": {name: statistics.median(values)
                             for name, values in classes.items()},
            "measured_s": recording.measured_s,
            "setups_s": setups,
            "doc_bytes": inputs.doc_bytes,
            "oracle_s": oracle_s,
        },
    }


def pin_to_one_cpu() -> None:
    """Confine this process, and the server it will spawn, to one CPU.

    The load is one closed loop: client, edge and worker never run at
    the same time, so a second CPU buys nothing — but each hand-over
    to an *idle* virtual CPU costs a wake-up whose price (tens to
    hundreds of microseconds in this sandbox) depends on what the
    host's other tenants are doing.  On one CPU a hand-over is a
    context switch, and the numbers stop following the neighbours."""
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})


# -- printing ---------------------------------------------------------------


def result_line(result: dict) -> str:
    """The contract's last line: one JSON object."""
    return json.dumps({
        "correct": not result["mismatches"],
        "attempted": result["attempted"],
        "failed": len(result["mismatches"]),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit)
                    in result["metrics"].items()},
    })


def print_result(name: str, result: dict) -> None:
    """Every metric by name with its unit, then the diagnostics."""
    for metric, (value, unit) in result["metrics"].items():
        print(f"{name}.{metric} = {value:.4f} {unit}")
    info = result.get("diagnostics")
    if info:
        print(f"{name}.ptail_ms = {info['ptail_ms']:.4f} ms "
              f"(p{info['ptail_percentile']:.2f} of "
              f"{info['primary_samples']} {info['primary_class']} "
              "samples; diagnostic, not gated)")
        for klass, value in info["class_p50_ms"].items():
            print(f"{name}.class.{klass}.p50_ms = {value:.4f} ms")
        print(f"{name}: measured {info['measured_s']:.2f} s, set-ups "
              + ", ".join(f"{value:.2f}" for value in info["setups_s"])
              + f" s, oracle replay {info['oracle_s']:.2f} s")
    breakdown = result.get("layers")
    if breakdown:
        print_breakdown(name, breakdown, result["metrics"])
    attempted = result["attempted"]
    print(f"{name}.failed_frac = "
          f"{len(result['mismatches']) / attempted:.6f} ratio "
          f"({len(result['mismatches'])} of {attempted} ops)")
    for line in result["mismatches"][:10]:
        print(f"  MISMATCH {line}")


def print_breakdown(name: str, breakdown: dict, metrics: dict) -> None:
    """Where one primary-class op spends its time, largest first."""
    handle = breakdown["handle_p50_ms"]
    e2e = breakdown["e2e_p50_ms"]
    edge = metrics["net.edge_ms"][0]
    overhead = metrics["trace.overhead_frac"][0]
    print(f"{name}: e2e p50 {e2e:.3f} ms = net.edge {edge:.3f} ms + "
          f"worker.handle {handle:.3f} ms (untraced replay of "
          f"{breakdown['cycles']} cycles, {breakdown['commits']} "
          "commits)")
    rows = [row for row in breakdown["self_ms"] if row[1] > 0.0]
    total = sum(mean for _, mean, _ in rows)
    for span, mean, median in rows:
        print(f"{name}:   self {span:<24} mean {mean:9.4f} ms "
              f"{100.0 * mean / total:5.1f}%   median {median:9.4f} ms")
    untraced = breakdown["handle_mean_ms"]
    print(f"{name}:   mean self times sum to {total:.4f} ms = "
          f"{total / untraced:.3f} x the untraced mean worker.handle "
          f"{untraced:.4f} ms; tracing overhead "
          f"{100.0 * overhead:.1f}% of replay time")
    top, top_ms = max([(span, median) for span, _, median in rows]
                      + [("net.edge", edge)], key=lambda row: row[1])
    print(f"{name}: dominant layer: {top}, median self {top_ms:.3f} ms "
          f"of {e2e:.3f} ms e2e p50 ({100.0 * top_ms / e2e:.0f}%)")


# -- the suite --------------------------------------------------------------


def calib_ms() -> float:
    """A fixed pure-Python loop: rows taken on different boxes compare
    by their ratio to this number."""
    samples = []
    for _ in range(5):
        begin = time.perf_counter()
        total = 0
        for index in range(200_000):
            total += index * index % 7
        samples.append(time.perf_counter() - begin)
    return statistics.median(samples) * 1000.0


def _filesystem_of(path: Path) -> str:
    best, kind = "", "unknown"
    for line in Path("/proc/mounts").read_text().splitlines():
        _device, mount, fstype = line.split()[:3]
        if str(path).startswith(mount) and len(mount) > len(best):
            best, kind = mount, fstype
    return kind


def machine_meta(seed: int, seconds: float) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=HERE, text=True,
            capture_output=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    cpu = "unknown"
    for line in Path("/proc/cpuinfo").read_text().splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "absent"
    OUT_DIR.mkdir(exist_ok=True)
    return {
        "git_commit": commit, "seed": seed, "seconds": seconds,
        "nproc": os.cpu_count(), "cpu_model": cpu,
        "python": platform.python_version(), "numpy": numpy_version,
        "state_dir_fs": _filesystem_of(OUT_DIR),
        "flush_policy": "fsync per commit, snapshot every 64 commits",
        "load": "closed loop, 1 client, 1 kept-alive connection, "
                "loopback",
        "calib_ms": calib_ms(),
    }


def run_suite(seed: int, seconds: float, with_layers: bool,
              smoke: bool) -> dict:
    """Every workload once; name → {"e2e": result, "layers": result}."""
    results = {}
    for workload in WORKLOADS.values():
        if smoke:
            workload = dataclasses.replace(
                workload,
                warmup_cycles=max(1, workload.warmup_cycles // 8))
        entry = {"e2e": run_e2e(workload, seed, seconds,
                                setup_reps=1 if smoke else SETUP_REPS)}
        print_result(workload.name, entry["e2e"])
        if with_layers:
            entry["layers"] = layers.run_layers(workload, seed, seconds)
            print_result(workload.name, entry["layers"])
        results[workload.name] = entry
    return results


def fig1_ordering(results: dict) -> bool:
    """The paper's fig. 1 at the service boundary: optimized check <
    full check < update + full check + rollback."""
    reject, check, probe = (
        results[name]["e2e"]["metrics"]["p50_ms"][0]
        for name in ("illegal_reject_128k", "read_check_128k",
                     "probe_fallback_128k"))
    holds = reject < check < probe
    print(f"fig1: illegal_reject_128k.p50_ms {reject:.3f} < "
          f"read_check_128k.p50_ms {check:.3f} < "
          f"probe_fallback_128k.p50_ms {probe:.3f}: "
          f"{'holds' if holds else 'VIOLATED'}")
    print(f"fig1: full / optimized = {check / reject:.1f}x "
          f"(base {reject:.3f} ms); update+full+rollback / full = "
          f"{probe / check:.1f}x (base {check:.3f} ms)")
    return holds


def _mismatch_count(results: dict) -> int:
    return sum(len(result["mismatches"])
               for entry in results.values()
               for result in entry.values())


def _median_suite(suites: "list[dict]") -> dict:
    """Per-metric medians over repeated suites (``--reps``)."""
    merged = suites[0]
    for name, entry in merged.items():
        for kind, result in entry.items():
            for metric, (_, unit) in list(result["metrics"].items()):
                values = [suite[name][kind]["metrics"][metric][0]
                          for suite in suites]
                result["metrics"][metric] = (
                    statistics.median(values), unit)
    return merged


def compare_aa(first: dict, second: dict, benchmark: dict) -> bool:
    """Two sets of runs of the same code against the benchmark's own
    bounds; the exact-repeat counts must be identical."""
    ok = True
    for spec in benchmark["end_to_end"]:
        metric, bound = spec["name"], spec["bound"]
        sign = 1.0 if spec["better"] == "lower" else -1.0
        for name in first:
            a = first[name]["e2e"]["metrics"][metric][0]
            b = second[name]["e2e"]["metrics"][metric][0]
            worse = sign * (b - a) / a
            verdict = "ok" if worse <= bound else "EXCEEDS"
            ok = ok and worse <= bound
            print(f"aa: {name}.{metric}: {a:.4f} -> {b:.4f} "
                  f"({100.0 * worse:+.1f}% worse, bound "
                  f"{100.0 * bound:.0f}%) {verdict}")
    for name in first:
        if "layers" not in first[name]:
            continue
        for metric in EXACT_COUNTS:
            a = first[name]["layers"]["metrics"][metric][0]
            b = second[name]["layers"]["metrics"][metric][0]
            verdict = "identical" if a == b else "DIFFERS"
            ok = ok and a == b
            print(f"aa: {name}.{metric}: {a!r} vs {b!r} {verdict}")
    return ok


def _json_ready(results: dict) -> dict:
    return {
        name: {kind: {
            "metrics": {metric: {"value": value, "unit": unit}
                        for metric, (value, unit)
                        in result["metrics"].items()},
            "attempted": result["attempted"],
            "failed": len(result["mismatches"]),
            "diagnostics": result.get("diagnostics"),
            "layers": result.get("layers"),
        } for kind, result in entry.items()}
        for name, entry in results.items()}


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run one workload and print the result "
                             "line (driver mode); default: the suite")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="measured phase per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 1 prints the per-layer "
                             "metrics instead of the end-to-end ones")
    parser.add_argument("--layers", action="store_true",
                        help="suite: also run every workload traced")
    parser.add_argument("--smoke", action="store_true",
                        help="suite: a tenth of the run length, one "
                             "set-up per workload")
    parser.add_argument("--aa", action="store_true",
                        help="suite: run twice and compare against "
                             "the bounds in BENCHMARK.json")
    parser.add_argument("--reps", type=int, default=1,
                        help="with --aa: suites per side, compared by "
                             "their per-metric medians")
    args = parser.parse_args(argv)
    pin_to_one_cpu()

    if args.workload:
        workload = WORKLOADS[args.workload]
        if args.trace:
            result = layers.run_layers(workload, args.seed,
                                       args.seconds)
        else:
            result = run_e2e(workload, args.seed, args.seconds)
        print_result(workload.name, result)
        print(result_line(result))
        return 1 if result["mismatches"] else 0

    seconds = args.seconds / 10.0 if args.smoke else args.seconds
    meta = machine_meta(args.seed, seconds)
    for key, value in meta.items():
        print(f"meta.{key} = {value}")
    sides = []
    for _side in range(2 if args.aa else 1):
        sides.append(_median_suite([
            run_suite(args.seed, seconds, args.layers, args.smoke)
            for _ in range(args.reps if args.aa else 1)]))
    ok = _mismatch_count(sides[0]) == 0
    ok = fig1_ordering(sides[0]) and ok
    if args.aa:
        ok = _mismatch_count(sides[1]) == 0 and ok
        benchmark = json.loads(
            (HERE.parents[1] / "BENCHMARK.json").read_text())
        ok = compare_aa(sides[0], sides[1], benchmark) and ok
    with open(OUT_DIR / "suite.json", "w", encoding="utf-8") as handle:
        json.dump({"meta": meta,
                   "runs": [_json_ready(side) for side in sides]},
                  handle, indent=1)
    print(f"suite: {'ok' if ok else 'FAILED'} "
          f"(results in {OUT_DIR / 'suite.json'})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
