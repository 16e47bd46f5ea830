"""Columnar backend ablation — frontier- vs. tuple-at-a-time search.

Emitted as ``BENCH_columnar.json`` by ``make bench-columnar``:
**columnar vs. planned-DOM full checks** on the fig1a conflict
constraint — the same cost-based plan evaluated with its quantifier
steps lowered to column operations (per-level frontier expansion and
key-set filtering) and with that lowering ablated
(``without_columns``), searching tuple-at-a-time.  The plan, the
statistics, the documents and the value indexes are identical — both
arms probe the stores' :class:`~repro.relational.columns.PathIndex`
buckets — so the gap is purely the frontier lowering.

Update checking has no arm here: the optimized checks are probes of
those same indexes under either setting.  Batched writes are measured
end to end by ``batch_write_128k`` in ``BENCHMARK.json``.

``scripts/check_ablation_gate.py`` turns the JSON into a regression
gate: the ratio must stay >= 2x at the largest benchmarked size.
"""

from __future__ import annotations

from repro.xquery.planner import (
    clear_caches,
    query_truth_planned,
    without_columns,
)


def _full_planned(scenario) -> bool:
    return any(
        query_truth_planned(query.prepared, scenario.documents)
        for query in scenario.constraint.full_queries)


# -- fig1a full check: columnar vs. planned-DOM --------------------------


def test_fig1a_columnar(benchmark, conflict_scenario, size_kib):
    benchmark.group = f"columnar-fig1a-{size_kib}KiB"
    clear_caches()
    violated = benchmark(_full_planned, conflict_scenario)
    assert violated is False


def test_fig1a_planned_dom(benchmark, conflict_scenario, size_kib):
    benchmark.group = f"columnar-fig1a-{size_kib}KiB"
    clear_caches()

    def run(scenario):
        with without_columns():
            return _full_planned(scenario)

    violated = benchmark(run, conflict_scenario)
    assert violated is False
