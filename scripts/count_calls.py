#!/usr/bin/env python3
"""Count calls to chosen functions while a benchmark workload runs.

Replays the seed-1 cycle stream of one ``benchmarks/e2e`` workload
in-process, against one volatile :class:`CheckingService` per document
group, built the way the benchmark's correctness oracle builds it
(``benchmarks/e2e/oracle.py``).  Every op reaches the service: an
``/update`` is ``try_execute``, a ``/check_batch`` is ``check_batch``,
a ``/check`` is ``verify_consistency`` and a ``/read`` is
``snapshot``.  Each target is wrapped with a call counter before the
services are built, and the counts are zeroed after every group's
documents are loaded, so they cover the cycles alone; the script
prints one JSON object with the count of every target.

A target is ``module:Qualified.name``: a module-level function or an
instance method of a module-level class.  The counter replaces the
attribute where it is defined, so a caller that imported a function by
name (``from m import f``) before the wrapping is not counted; the
value-index accessor ``repro.relational.columns:value_index`` is
called through its module, so every read counts.

``benchmarks/e2e/`` is imported read-only, so corpora, update texts
and seed are exactly the benchmark's.

Usage::

    python3 scripts/count_calls.py read_check_128k --cycles 40 \\
        repro.xquery.columnar:_Eval.expand \\
        repro.relational.columns:value_index \\
        repro.relational.columns:PathIndex.rekey \\
        repro.xtree.node:Document.elements_by_tag
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "benchmarks" / "e2e"))
sys.path.insert(0, str(ROOT / "src"))

import argparse  # noqa: E402
import functools  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402

from repro.service.store import CheckingService  # noqa: E402
from workloads import WORKLOADS, cycles, make_inputs  # noqa: E402

SEED = 1


def install_counter(target: str, counts: "dict[str, int]") -> None:
    """Wrap ``module:Qual.name`` so each call adds one to
    ``counts[target]``."""
    module_name, _, qualname = target.partition(":")
    if not qualname:
        raise SystemExit(f"target {target!r} is not module:Qual.name")
    owner = importlib.import_module(module_name)
    *path, name = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    function = vars(owner)[name]
    counts[target] = 0

    @functools.wraps(function)
    def counted(*args, **kwargs):
        counts[target] += 1
        return function(*args, **kwargs)

    setattr(owner, name, counted)


def replay(workload_name: str, cycle_count: int,
           targets: "list[str]") -> dict:
    """Counts of every target over ``cycle_count`` cycles."""
    workload = WORKLOADS[workload_name]
    inputs = make_inputs(workload, SEED)
    schema = inputs.config.build_schema()
    counts: "dict[str, int]" = {}
    for target in targets:
        install_counter(target, counts)
    services = {uid: CheckingService(
        schema, inputs.config.initial_documents())
        for uid in workload.uids()}
    counts.update(dict.fromkeys(counts, 0))
    stream = cycles(workload, inputs, SEED)
    for _ in range(cycle_count):
        for op in next(stream):
            service = services[op.uid]
            if op.kind == "update":
                service.try_execute(op.payload)
            elif op.kind == "check_batch":
                service.check_batch(list(op.payload))
            elif op.kind == "check":
                service.verify_consistency()
            else:
                service.snapshot()
    return {"workload": workload_name, "cycles": cycle_count,
            "counts": counts}


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--cycles", type=int, default=40)
    parser.add_argument("targets", nargs="+", metavar="module:Qual.name")
    args = parser.parse_args(argv)
    print(json.dumps(replay(args.workload, args.cycles, args.targets),
                     indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
