"""Smoke test of the service-boundary benchmark (``e2e`` marker).

Outside tier-1's ``testpaths``; run it with::

    PYTHONPATH=src python -m pytest benchmarks/e2e -m e2e

It runs the suite in ``--smoke --layers`` mode (about a minute here)
and checks that every workload and every metric named in
``BENCHMARK.json`` is emitted, with its unit, and that the driver-mode
result line has exactly the contract's keys.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

pytestmark = pytest.mark.e2e


def _run(*arguments: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *arguments],
        cwd=ROOT, capture_output=True, text=True, timeout=900)


def test_suite_emits_every_workload_and_metric():
    done = _run("--smoke", "--layers", "--seed", "3")
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-4000:]
    suite = json.loads((HERE / "out" / "suite.json").read_text())
    run = suite["runs"][0]
    assert sorted(run) == sorted(
        workload["name"] for workload in BENCHMARK["workloads"])
    for name, entry in run.items():
        for kind, key in (("e2e", "end_to_end"),
                          ("layers", "per_layer")):
            emitted = entry[kind]["metrics"]
            for spec in BENCHMARK[key]:
                assert spec["name"] in emitted, (name, spec["name"])
                assert emitted[spec["name"]]["unit"] == spec["unit"]
                # printed by name with its unit, too
                assert f"{name}.{spec['name']} = " in done.stdout
            assert entry[kind]["failed"] == 0
    for key in ("git_commit", "nproc", "cpu_model", "python", "numpy",
                "state_dir_fs", "flush_policy", "calib_ms"):
        assert key in suite["meta"]
    assert "fig1:" in done.stdout


@pytest.mark.parametrize("trace", ["0", "1"])
def test_driver_mode_result_line(trace):
    done = _run("--workload", "illegal_reject_128k", "--seed", "5",
                "--seconds", "1", "--trace", trace)
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-4000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed",
                              "metrics"]
    assert result["correct"] is True and result["failed"] == 0
    key = "per_layer" if trace == "1" else "end_to_end"
    assert sorted(result["metrics"]) == sorted(
        spec["name"] for spec in BENCHMARK[key])
