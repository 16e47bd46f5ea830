"""``scripts/count_calls.py``: call counts over a benchmark workload."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "count_calls.py"

TARGETS = (
    "repro.xquery.columnar:_Eval.expand",
    "repro.relational.columns:value_index",
    "repro.relational.columns:PathIndex.rekey",
    "repro.xtree.node:Document.elements_by_tag",
    "repro.core.guard:IntegrityGuard.try_execute",
)


def test_one_cycle_prints_a_count_per_target():
    completed = subprocess.run(
        [sys.executable, str(_SCRIPT), "illegal_reject_128k",
         "--cycles", "1", *TARGETS],
        check=True, capture_output=True, text=True, timeout=300)
    report = json.loads(completed.stdout)
    assert report["workload"] == "illegal_reject_128k"
    assert report["cycles"] == 1
    counts = report["counts"]
    assert sorted(counts) == sorted(TARGETS)
    assert all(isinstance(count, int) and count >= 0
               for count in counts.values())
    # a cycle of this workload is one rejected update, and the wrapped
    # method saw it
    assert counts["repro.core.guard:IntegrityGuard.try_execute"] == 1
