"""Shared benchmark harness.

The paper's evaluation (section 7) runs on documents of 32-256 MB; this
harness defaults to 32-128 KiB so a full benchmark run stays in a CI
budget (the engine is an interpreted Python substitute for eXist — see
DESIGN.md).  Override with::

    REPRO_BENCH_SIZES_KIB=64,128,256,512 pytest benchmarks/ --benchmark-only

Each figure benchmark produces one timing per (curve, size); the
benchmark names embed both, so the pytest-benchmark table *is* the
figure's data series.
"""

from __future__ import annotations

import os
import random

import pytest

from repro.core import BruteForceChecker, IntegrityGuard
from repro.datagen import (
    corpus_size_bytes,
    generate_corpus,
    illegal_submission,
    legal_submission,
    spec_for_size,
)
from repro.datagen.running_example import make_schema
from repro.xupdate import parse_modifications
from repro.xupdate.analyze import signature_of


def bench_sizes_kib() -> list[int]:
    raw = os.environ.get("REPRO_BENCH_SIZES_KIB", "32,64,128")
    return [int(piece) for piece in raw.split(",") if piece.strip()]


def pytest_generate_tests(metafunc):
    if "size_kib" in metafunc.fixturenames:
        metafunc.parametrize("size_kib", bench_sizes_kib())


@pytest.fixture(scope="session")
def schema():
    return make_schema()


_CORPora_CACHE: dict[int, tuple] = {}


@pytest.fixture()
def corpus(size_kib):
    """(pub_doc, rev_doc, actual_bytes) for one target size, cached."""
    if size_kib not in _CORPora_CACHE:
        spec = spec_for_size(size_kib * 1024)
        documents = generate_corpus(spec)
        _CORPora_CACHE[size_kib] = (
            documents[0], documents[1],
            corpus_size_bytes(documents))
    return _CORPora_CACHE[size_kib]


@pytest.fixture()
def rng():
    return random.Random(1849)


class CheckScenario:
    """Pre-resolved artifacts for benchmarking one constraint."""

    def __init__(self, schema, documents, constraint_name, rng,
                 illegal_kind):
        self.schema = schema
        self.documents = list(documents)
        self.rev_doc = documents[1]
        self.constraint = schema.constraint(constraint_name)
        self.guard = IntegrityGuard(schema, self.documents)
        self.brute = BruteForceChecker(schema, self.documents)
        self.legal_update = legal_submission(self.rev_doc, rng)
        self.illegal_update = illegal_submission(self.rev_doc, rng,
                                                 illegal_kind)
        operation = parse_modifications(self.legal_update)[0]
        checks = schema.checks_for(
            signature_of(operation, schema.relational))
        assert checks is not None
        self.pattern_checks = checks
        self.legal_operation = operation
        self.illegal_operation = parse_modifications(
            self.illegal_update)[0]

    # -- the three curves of figure 1 ---------------------------------------

    def full_check(self) -> bool:
        """Curve (i): evaluate the original constraint (diamonds) —
        the full check ``/check`` runs, not the reference engine."""
        return any(query.truth(self.documents)
                   for query in self.constraint.full_queries)

    def optimized_check(self, operation=None) -> bool:
        """Curve (ii): evaluate the simplified constraint (squares).

        Uses the prepared plans (compile-once ASTs, variable-bound
        parameters) — the production path of :class:`IntegrityGuard`.
        """
        operation = operation or self.legal_operation
        bindings = self.pattern_checks.analyzed.bind(self.rev_doc,
                                                     operation)
        for check in self.pattern_checks.optimized:
            if check.constraint.name != self.constraint.name:
                continue
            for query in check.queries:
                if query.truth(self.documents, bindings):
                    return True
        return False

    def optimized_check_text(self, operation=None) -> bool:
        """The pre-prepared-plan baseline: splice parameter text into
        the check and re-lex/re-parse it on every evaluation."""
        from repro.xquery.engine import query_truth
        operation = operation or self.legal_operation
        bindings = self.pattern_checks.analyzed.bind(self.rev_doc,
                                                     operation)
        for check in self.pattern_checks.optimized:
            if check.constraint.name != self.constraint.name:
                continue
            for query in check.queries:
                if query_truth(query.instantiate(bindings),
                               self.documents):
                    return True
        return False

    def update_check_rollback(self, update=None) -> bool:
        """Curve (iii): execute, verify the original constraint, undo
        (triangles)."""
        from repro.xupdate.apply import apply_operation
        operation = update or self.legal_operation
        record = apply_operation(self.rev_doc, operation)
        try:
            return self.full_check()
        finally:
            record.rollback()


@pytest.fixture()
def conflict_scenario(schema, corpus, rng):
    pub_doc, rev_doc, _ = corpus
    return CheckScenario(schema, [pub_doc, rev_doc],
                         "conflict_of_interest", rng, "conflict")


@pytest.fixture()
def workload_scenario(schema, corpus, rng):
    pub_doc, rev_doc, _ = corpus
    return CheckScenario(schema, [pub_doc, rev_doc],
                         "conference_workload", rng, "workload")
