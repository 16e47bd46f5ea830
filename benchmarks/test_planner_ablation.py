"""Planner ablation — planned vs. unplanned evaluation.

Emitted as ``BENCH_planner.json`` by ``make bench-planner``:
**planned vs. unplanned full checks** on the figure 1 workloads — the
same prepared constraint ASTs evaluated through the cost-based planner
(selectivity-ordered bindings, early-exit quantifiers, value-index
probes) and through the unplanned tuple-at-a-time engine.  The
documents are identical and read-only, so the timing gap is purely
the planner's doing.

``check_batch`` is the ``try_execute`` loop plus a column-store settle,
so it has no in-process arm to ablate; what batching still saves (one
writer-lock round, one snapshot publish, one HTTP round) is measured
at the service boundary by ``batch_write_128k`` vs ``legal_write_128k``
in ``BENCHMARK.json``.

``scripts/check_ablation_gate.py`` turns the JSON into a regression
gate: the planned/unplanned ratios must not regress more than 20%
against the committed baseline.
"""

from __future__ import annotations

from repro.xquery.engine import query_truth
from repro.xquery.planner import clear_caches, query_truth_planned


def _full_planned(scenario) -> bool:
    return any(
        query_truth_planned(query.prepared, scenario.documents)
        for query in scenario.constraint.full_queries)


def _full_unplanned(scenario) -> bool:
    return any(
        query_truth(query.prepared, scenario.documents)
        for query in scenario.constraint.full_queries)


# -- fig1a: conflict of interests ----------------------------------------


def test_fig1a_full_planned(benchmark, conflict_scenario, size_kib):
    benchmark.group = f"planner-fig1a-{size_kib}KiB"
    clear_caches()
    violated = benchmark(_full_planned, conflict_scenario)
    assert violated is False


def test_fig1a_full_unplanned(benchmark, conflict_scenario, size_kib):
    benchmark.group = f"planner-fig1a-{size_kib}KiB"
    violated = benchmark(_full_unplanned, conflict_scenario)
    assert violated is False


# -- fig1b: conference workload ------------------------------------------


def test_fig1b_full_planned(benchmark, workload_scenario, size_kib):
    benchmark.group = f"planner-fig1b-{size_kib}KiB"
    clear_caches()
    violated = benchmark(_full_planned, workload_scenario)
    assert violated is False


def test_fig1b_full_unplanned(benchmark, workload_scenario, size_kib):
    benchmark.group = f"planner-fig1b-{size_kib}KiB"
    violated = benchmark(_full_unplanned, workload_scenario)
    assert violated is False
