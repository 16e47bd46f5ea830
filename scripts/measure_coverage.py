#!/usr/bin/env python
"""Approximate line coverage of the gated packages, without pytest-cov.

CI gates ``src/repro/xupdate``, ``src/repro/core``,
``src/repro/service``, ``src/repro/relational``, ``src/repro/analysis``,
``src/repro/xtree`` and ``src/repro/xquery`` with pytest-cov's
``--cov-fail-under``; this
script reproduces the measurement with nothing but the standard
library (a ``sys.settrace`` line collector against ``co_lines()``
executable-line sets), for environments where pytest-cov is not
installed and for re-deriving the pinned floor after refactors.

The number is an *approximation* of coverage.py's (it counts lines
reachable through code objects, coverage.py analyzes arcs), so the CI
floor should be pinned a few points below what this reports.

Usage: PYTHONPATH=src python scripts/measure_coverage.py [pytest args]
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
GATED = [
    REPO / "src" / "repro" / "xupdate",
    REPO / "src" / "repro" / "core",
    REPO / "src" / "repro" / "service",
    # the relational backend and the analysis passes joined the gate
    # when they became load-bearing; adding them moved the measured
    # baseline from ~92% to ~90%, and the CI floor from 85 to 83.
    REPO / "src" / "repro" / "relational",
    REPO / "src" / "repro" / "analysis",
    # the documents' value-index delta maintenance lives here
    REPO / "src" / "repro" / "xtree",
    # the check planner, its frontier executor and the engine
    REPO / "src" / "repro" / "xquery",
]

#: mirrored from ``[tool.coverage.run] omit`` in pyproject.toml: the
#: networked service runs in worker subprocesses and is gated by the
#: service-e2e CI leg, not the unit-coverage floor — all of it but the
#: client, whose codec has in-process tests against a stub server
OMITTED = [REPO / "src" / "repro" / "service" / "net" / name
           for name in ("__init__.py", "config.py", "frames.py",
                        "http.py", "ring.py", "supervisor.py",
                        "worker.py")]

executed: set[tuple[str, int]] = set()
_gated_files = {
    str(path) for root in GATED for path in root.rglob("*.py")
    if not any(path.is_relative_to(omit) for omit in OMITTED)}


def _trace(frame, event, arg):
    filename = frame.f_code.co_filename
    if filename not in _gated_files:
        return None
    if event == "line":
        executed.add((filename, frame.f_lineno))
    return _trace


def _executable_lines(path: str) -> set[int]:
    lines: set[int] = set()
    code = compile(Path(path).read_text(encoding="utf-8"), path, "exec")
    stack = [code]
    while stack:
        obj = stack.pop()
        lines.update(line for _, _, line in obj.co_lines()
                     if line is not None)
        stack.extend(const for const in obj.co_consts
                     if hasattr(const, "co_lines"))
    return lines


def main() -> int:
    import pytest

    threading.settrace(_trace)
    sys.settrace(_trace)
    try:
        exit_code = pytest.main(
            sys.argv[1:] or ["-q", str(REPO / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)  # type: ignore[arg-type]
    if exit_code != 0:
        print(f"pytest failed (exit {exit_code}); "
              "coverage numbers would be meaningless", file=sys.stderr)
        return int(exit_code)

    total_executable = total_executed = 0
    print()
    print(f"{'file':60s} {'stmts':>6s} {'miss':>6s} {'cover':>6s}")
    for filename in sorted(_gated_files):
        executable = _executable_lines(filename)
        hit = {line for name, line in executed if name == filename}
        missed = executable - hit
        total_executable += len(executable)
        total_executed += len(executable) - len(missed)
        percent = 100.0 * (len(executable) - len(missed)) \
            / len(executable) if executable else 100.0
        rel = str(Path(filename).relative_to(REPO))
        print(f"{rel:60s} {len(executable):6d} {len(missed):6d} "
              f"{percent:5.1f}%")
    percent = 100.0 * total_executed / total_executable
    print(f"{'TOTAL':60s} {total_executable:6d} "
          f"{total_executable - total_executed:6d} {percent:5.1f}%")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
