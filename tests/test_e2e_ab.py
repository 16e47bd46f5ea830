"""The verdicts of ``scripts/e2e_ab.py``, the benchmark A/B tool.

Only the pure ``verdict`` function is exercised: a verdict decides
whether a change may be called a gain or must be called a regression,
so its precedence (gain, then WORSE, then unresolved, then unchanged)
is pinned here rather than left to a ten-minute A/B run.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "e2e_ab.py"
_SPEC = importlib.util.spec_from_file_location("e2e_ab", _SCRIPT)
e2e_ab = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(e2e_ab)

LOWER = {"name": "p50_ms", "better": "lower", "bound": 0.25}
HIGHER = {"name": "throughput_ops_s", "better": "higher", "bound": 0.25}

#: a base whose own quartiles span far more than the 25 % bound
NOISY_BASE = [10.0, 10.0, 10.0, 14.0, 15.0, 16.0, 17.0, 20.0, 20.0, 20.0]


@pytest.mark.parametrize(("spec", "base", "change", "expected"), [
    # clear gain: 10/10 pairs and a gap wider than the base's IQR
    (LOWER, [20.0 + i * 0.1 for i in range(10)],
     [2.0 + i * 0.1 for i in range(10)], "gain"),
    (HIGHER, [100.0 + i for i in range(10)],
     [500.0 + i for i in range(10)], "gain"),
    # quiet base, change 50 % worse
    (LOWER, [10.0 + i * 0.01 for i in range(10)],
     [15.0 + i * 0.01 for i in range(10)], "WORSE"),
    (HIGHER, [100.0 + i * 0.1 for i in range(10)],
     [50.0 + i * 0.1 for i in range(10)], "WORSE"),
    # a noisy base must not hide a 3x regression
    (LOWER, NOISY_BASE, [value * 3.0 for value in NOISY_BASE], "WORSE"),
    (HIGHER, NOISY_BASE, [value / 3.0 for value in NOISY_BASE], "WORSE"),
    # ... but a shift inside the noisy base's IQR is unresolved
    (LOWER, NOISY_BASE, [value * 1.3 for value in NOISY_BASE],
     "unresolved"),
    (LOWER, NOISY_BASE, list(NOISY_BASE), "unresolved"),
    # quiet base, change within the bound
    (LOWER, [10.0 + i * 0.01 for i in range(10)],
     [10.5 + i * 0.01 for i in range(10)], "unchanged"),
])
def test_verdict_precedence(spec, base, change, expected):
    label, _wins = e2e_ab.verdict(spec, base, change)
    assert label == expected


def test_wins_count_pairs_in_order():
    base = [10.0, 10.0, 10.0, 10.0]
    change = [9.0, 11.0, 9.0, 11.0]
    assert e2e_ab.verdict(LOWER, base, change)[1] == 2
    assert e2e_ab.verdict(HIGHER, base, change)[1] == 2
