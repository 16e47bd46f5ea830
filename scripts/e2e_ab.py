#!/usr/bin/env python3
"""A/B the service-boundary benchmark between a git revision and the
working tree.

Exports ``--base`` with ``git archive`` and the working tree (every
tracked or untracked, non-ignored file, as it is on disk) into two
fresh directories, purges ``__pycache__`` in both and runs every
benchmark process with ``PYTHONDONTWRITEBYTECODE=1``, so neither side
starts with bytecode the other lacks.  Then, for each workload, it
runs ``benchmarks/e2e/run.py --workload W`` on both sides for
``--pairs`` pairs, alternating which side goes first.  The bounds come
from ``BENCHMARK.json`` (read, never written).

For every end-to-end metric and workload it prints both sides'
medians and quartiles, in how many pairs the change was better, and a
verdict:

* ``gain`` — the change won at least 9 of 10 pairs and its median
  beats the base's by more than the base's interquartile range;
* ``WORSE`` — the change's median is worse than the base's by more
  than the bound and by more than the base's interquartile range;
* ``unresolved`` — otherwise, when the base's own interquartile range
  exceeds the metric's bound, so these runs cannot tell a change
  from noise;
* ``unchanged`` — anything else.

Every run must also report ``correct: true`` with no failed ops; the
script exits 1 otherwise, or when a verdict is ``WORSE``.

Usage::

    python3 scripts/e2e_ab.py --base HEAD~1 [--pairs 10] [--seed 1]
        [--workload legal_write_128k ...]

Every run lasts ``BENCHMARK.json``'s ``run_seconds``.  ``make
bench-e2e-ab BASE=<rev> PAIRS=10`` runs it for every workload.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RUNNER = Path("benchmarks") / "e2e" / "run.py"
#: a gain must win this share of the pairs
WIN_SHARE = 0.9


def export_base(revision: str, destination: Path) -> None:
    """``git archive`` of ``revision`` unpacked into ``destination``."""
    archive = subprocess.run(
        ["git", "archive", "--format=tar", revision], cwd=ROOT,
        check=True, capture_output=True).stdout
    destination.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(destination, filter="data")
        else:  # pragma: no cover - Python without extraction filters
            tar.extractall(destination)


def export_working_tree(destination: Path) -> None:
    """Every tracked or untracked, non-ignored file as it is on disk —
    what ``git add -A`` would commit — and nothing a build or a run
    left behind."""
    listing = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others",
         "--exclude-standard"], cwd=ROOT, check=True,
        capture_output=True).stdout.decode()
    for name in filter(None, listing.split("\0")):
        source = ROOT / name
        if not source.is_file():
            continue  # deleted in the working tree
        target = destination / name
        target.parent.mkdir(parents=True, exist_ok=True)
        shutil.copy2(source, target)


def purge_bytecode(tree: Path) -> None:
    for cache in list(tree.rglob("__pycache__")):
        shutil.rmtree(cache, ignore_errors=True)


def run_once(tree: Path, workload: str, seconds: float,
             seed: int) -> dict:
    """One ``run.py --workload`` in ``tree``: its last-line JSON."""
    environment = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    environment.pop("PYTHONPATH", None)
    completed = subprocess.run(
        [sys.executable, str(RUNNER), "--workload", workload,
         "--seconds", str(seconds), "--seed", str(seed)],
        cwd=tree, env=environment, capture_output=True, text=True)
    lines = completed.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise SystemExit(
            f"{tree.name}/{workload}: run.py exited "
            f"{completed.returncode} without a result line:\n"
            f"{completed.stdout[-2000:]}\n{completed.stderr[-2000:]}"
        ) from None
    return result


def quartiles(values: "list[float]") -> "tuple[float, float, float]":
    if len(values) < 2:
        return values[0], values[0], values[0]
    low, median, high = statistics.quantiles(values, n=4,
                                             method="inclusive")
    return low, median, high


def verdict(spec: dict, base: "list[float]",
            change: "list[float]") -> "tuple[str, int]":
    """(verdict, pairs the change won) for one metric and workload."""
    sign = 1.0 if spec["better"] == "lower" else -1.0
    wins = sum(1 for b, c in zip(base, change) if sign * (c - b) < 0)
    base_low, base_median, base_high = quartiles(base)
    change_median = statistics.median(change)
    iqr = base_high - base_low
    if wins >= WIN_SHARE * len(base) \
            and sign * (base_median - change_median) > iqr:
        return "gain", wins
    gap = sign * (change_median - base_median)
    if base_median and gap / abs(base_median) > spec["bound"] \
            and gap > iqr:
        return "WORSE", wins
    if base_median and iqr / abs(base_median) > spec["bound"]:
        return "unresolved", wins
    return "unchanged", wins


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0])
    parser.add_argument("--base", required=True,
                        help="git revision to compare the working "
                             "tree against")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1,
                        help="workload seed passed to every run")
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable); default: "
                             "every workload in BENCHMARK.json")
    args = parser.parse_args(argv)

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"]
                                  for w in benchmark["workloads"]]
    seconds = float(benchmark["run_seconds"])
    scratch = Path(tempfile.mkdtemp(prefix="e2e-ab-"))
    trees = {"base": scratch / "base", "change": scratch / "change"}
    ok = True
    try:
        export_base(args.base, trees["base"])
        export_working_tree(trees["change"])
        for tree in trees.values():
            purge_bytecode(tree)
        print(f"ab: base {args.base} vs the working tree; {args.pairs} "
              f"pairs x {len(workloads)} workloads, {seconds:g} s each, "
              f"seed {args.seed}", flush=True)
        for workload in workloads:
            sides: "dict[str, list[dict]]" = {"base": [], "change": []}
            for pair in range(args.pairs):
                order = ("base", "change") if pair % 2 == 0 \
                    else ("change", "base")
                for side in order:
                    result = run_once(trees[side], workload, seconds,
                                      args.seed)
                    sides[side].append(result)
                    if not result["correct"] or result["failed"]:
                        ok = False
                        print(f"ab: {workload} pair {pair} {side}: "
                              f"correct={result['correct']} "
                              f"failed={result['failed']}", flush=True)
                print(f"ab: {workload} pair {pair + 1}/{args.pairs} "
                      "done", flush=True)
            ok = report(workload, sides, benchmark) and ok
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(f"ab: {'ok' if ok else 'FAILED'}")
    return 0 if ok else 1


def report(workload: str, sides: "dict[str, list[dict]]",
           benchmark: dict) -> bool:
    """Print one workload's table; False when a metric is WORSE."""
    ok = True
    for spec in benchmark["end_to_end"]:
        metric = spec["name"]
        base, change = ([run["metrics"][metric]["value"]
                         for run in sides[side]]
                        for side in ("base", "change"))
        label, wins = verdict(spec, base, change)
        ok = ok and label != "WORSE"
        b_low, b_median, b_high = quartiles(base)
        c_low, c_median, c_high = quartiles(change)
        print(f"ab: {workload}.{metric} base {b_median:.4f} "
              f"[{b_low:.4f}, {b_high:.4f}] change {c_median:.4f} "
              f"[{c_low:.4f}, {c_high:.4f}] {spec['unit']}; change "
              f"better in {wins}/{len(base)}; bound "
              f"{100.0 * spec['bound']:.0f}%: {label}", flush=True)
    return ok


if __name__ == "__main__":
    sys.exit(main())
