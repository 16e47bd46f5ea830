#!/usr/bin/env python3
"""Regression gate over the evaluation-backend ablation benchmark.

Reads a pytest-benchmark JSON (``BENCH_columnar.json``) and enforces,
for every ablation pair in :data:`PAIRS` the file contains:

* **acceptance floors** — at the largest paper size (128 KiB groups)
  the fast arm must beat the slow arm by the pair's floor in median:
  the vectorized frontier lowering vs the same plan searched
  tuple-at-a-time (``without_columns``) on fig1a;
* **baseline comparison** — with ``--baseline`` (the committed JSON
  of the same name), every pair present in both files must not
  regress: the fast/slow median *fraction* (a machine-independent
  measure — both arms run on the same box) may not exceed the
  baseline fraction by more than ``--tolerance`` (default 20%) plus a
  small absolute slack that keeps sub-millisecond noise from tripping
  the gate.

Exit code 1 on any violation, with one line per failed check.
"""

from __future__ import annotations

import argparse
import json
import sys

#: group prefix → (minimum median speedup slow / fast at
#: :data:`FLOOR_SIZE`, substring naming the fast arm's benchmark,
#: substring naming the slow arm's).  The slow marker is tested first.
PAIRS = {
    "columnar-fig1a": (2.0, "columnar", "planned_dom"),
}
FLOOR_SIZE = "128KiB"


def _pair_of(group: str) -> tuple[float, str, str] | None:
    for prefix, pair in PAIRS.items():
        if group.startswith(prefix):
            return pair
    return None


def load_fractions(path: str) -> dict[str, float]:
    """group → (fast median / slow median), one entry per ablation
    pair."""
    with open(path, encoding="utf-8") as handle:
        report = json.load(handle)
    medians: dict[str, dict[str, float]] = {}
    for bench in report["benchmarks"]:
        group = bench.get("group") or ""
        pair = _pair_of(group)
        if pair is None:
            continue
        _, fast, slow = pair
        if slow in bench["name"]:
            arm = "slow"
        elif fast in bench["name"]:
            arm = "fast"
        else:
            continue
        medians.setdefault(group, {})[arm] = bench["stats"]["median"]
    fractions: dict[str, float] = {}
    for group, arms in sorted(medians.items()):
        if "fast" in arms and "slow" in arms and arms["slow"] > 0:
            fractions[group] = arms["fast"] / arms["slow"]
    return fractions


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("current", help="benchmark JSON to check")
    parser.add_argument("--baseline",
                        help="committed baseline JSON to compare against")
    parser.add_argument("--tolerance", type=float, default=0.20,
                        help="allowed relative regression of the "
                             "fast/slow fraction (default 0.20)")
    parser.add_argument("--slack", type=float, default=0.02,
                        help="absolute fraction slack added on top of "
                             "the tolerance (default 0.02)")
    args = parser.parse_args(argv)

    current = load_fractions(args.current)
    if not current:
        print("gate: no ablation pairs found in "
              f"{args.current}", file=sys.stderr)
        return 1
    failures: list[str] = []

    for group, fraction in current.items():
        speedup = 1.0 / fraction if fraction > 0 else float("inf")
        print(f"gate: {group}: fast/slow fraction "
              f"{fraction:.4f} (speedup {speedup:.2f}x)")
        floor = _pair_of(group)[0]
        if group.endswith(FLOOR_SIZE) and speedup < floor:
            failures.append(
                f"{group}: speedup {speedup:.2f}x below the "
                f"{floor:.1f}x acceptance floor")

    if args.baseline:
        baseline = load_fractions(args.baseline)
        for group, fraction in current.items():
            reference = baseline.get(group)
            if reference is None:
                continue
            allowed = reference * (1.0 + args.tolerance) + args.slack
            if fraction > allowed:
                failures.append(
                    f"{group}: fraction {fraction:.4f} regressed past "
                    f"{allowed:.4f} (baseline {reference:.4f} "
                    f"+{args.tolerance:.0%} +{args.slack})")

    for failure in failures:
        print(f"gate FAIL: {failure}", file=sys.stderr)
    if not failures:
        print("gate: OK")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
