"""Columnar evaluation backend: verdict differentials and explain.

The contract mirrors the planner suite's: the columnar backend may
only change how fast a verdict arrives, never the verdict.  Every
test pins the three-way equality

    columnar  ==  planned-DOM (``without_columns``)  ==  unplanned

over the fixed query corpus, generated corpora, hypothesis-random
documents, and update workloads — with and without numpy
(``stdlib_only``).  Explain output must name the backend each
quantifier actually used, and the XUpdate select fast path must
resolve exactly the elements the engine resolves.
"""

from __future__ import annotations

from contextlib import nullcontext

import pytest
from hypothesis import given, settings

from repro.core.guard import BruteForceChecker, IntegrityGuard
from repro.datagen.running_example import make_schema, submission_xupdate
from repro.datagen.workload import legal_submission
from repro.errors import UpdateApplicationError
from repro.relational.columns import stdlib_only
from repro.relational.incremental import attach, store_of
from repro.xquery import parse_query
from repro.xquery.engine import evaluate_query, query_truth
from repro.xquery.planner import (
    explain_query,
    query_truth_planned,
    unplanned,
    without_columns,
)
from repro.xtree.parser import parse_document
from repro.xtree.serializer import serialize
from repro.xupdate.apply import (
    _columnar_resolve,
    parsed_select,
    resolve_select,
)
from tests.conftest import PUB_XML, REV_XML
from tests.test_planner import (
    NAME_JOIN_QUERIES,
    NUMERIC_SPELLINGS,
    QUERIES,
    random_corpora,
)

SCHEMA = make_schema()

CONFLICT_QUERY = QUERIES[0]


def _attach_all(documents):
    for document in documents:
        attach(document, SCHEMA.relational)
    return documents


def _three_way(query, documents):
    """(columnar, planned-DOM, unplanned) verdict triple."""
    expression = parse_query(query) if isinstance(query, str) else query
    columnar = query_truth_planned(expression, documents)
    with without_columns():
        planned = query_truth_planned(expression, documents)
    unplanned = query_truth(expression, documents)
    return columnar, planned, unplanned


class TestVerdictDifferential:
    @pytest.mark.parametrize("query", QUERIES)
    def test_fixed_queries_agree(self, query, documents):
        columnar, planned, unplanned = _three_way(
            query, _attach_all(documents))
        assert columnar == planned == unplanned

    @pytest.mark.parametrize("query", QUERIES)
    def test_generated_corpus_agrees(self, query, small_corpus):
        documents = _attach_all(list(small_corpus))
        columnar, planned, unplanned = _three_way(query, documents)
        assert columnar == planned == unplanned

    @pytest.mark.parametrize("query", QUERIES)
    def test_fixed_queries_agree_without_numpy(self, query, documents):
        with stdlib_only():
            columnar, planned, unplanned = _three_way(
                query, _attach_all(documents))
        assert columnar == planned == unplanned

    @given(random_corpora())
    @settings(max_examples=30)
    def test_hypothesis_corpora_agree(self, corpus):
        documents = _attach_all(list(corpus))
        for query in QUERIES:
            columnar, planned, unplanned = _three_way(query, documents)
            assert columnar == planned == unplanned, query

    @given(random_corpora())
    @settings(max_examples=15)
    def test_full_constraint_checks_agree(self, corpus):
        documents = _attach_all(list(corpus))
        for constraint in SCHEMA.constraints:
            for query in constraint.full_queries:
                columnar, planned, unplanned = _three_way(
                    query.prepared, documents)
                assert columnar == planned == unplanned, \
                    constraint.name

    @given(random_corpora(names=NUMERIC_SPELLINGS))
    @settings(max_examples=30)
    def test_numeric_spellings_agree(self, corpus):
        documents = _attach_all(list(corpus))
        queries = QUERIES + NAME_JOIN_QUERIES + [
            query.prepared for constraint in SCHEMA.constraints
            for query in constraint.full_queries]
        for query in queries:
            columnar, planned, unplanned = _three_way(query, documents)
            assert columnar == planned == unplanned, str(query)


def _two_author_append(first, second):
    """An append no registered pattern matches: the guard applies it,
    runs the full checks and rolls back on a violation."""
    return ('<?xml version="1.0"?>\n'
            '<xupdate:modifications version="1.0"\n'
            '    xmlns:xupdate="http://www.xmldb.org/xupdate">\n'
            '  <xupdate:append select="/review/track[1]/rev[2]">\n'
            '    <xupdate:element name="sub"><title>Joint</title>\n'
            f'      <auts><name>{first}</name></auts>\n'
            f'      <auts><name>{second}</name></auts>\n'
            '    </xupdate:element>\n'
            '  </xupdate:append>\n'
            '</xupdate:modifications>')


class TestEqualityKeys:
    """Two untyped values are equal iff their *text* is: ``"1"`` and
    ``"1.0"`` both equal the number 1 and still differ from each
    other.  Every backend must say what ``compare_atomics`` says."""

    FORMS = [
        # quantified two-source join (hash join / vector join)
        "some $x in //a, $y in //b satisfies "
        "$x/v/text() = $y/v/text()",
        # element-valued sides
        "some $x in //a, $y in //b satisfies $x/v = $y/v",
        # value-index probe
        "some $x in //a satisfies $x/v/text() = //b/v/text()",
        "exists(//a[v/text() = //b/v/text()])",
        # plain general comparison
        "//a/v/text() = //b/v/text()",
    ]

    @pytest.mark.parametrize("query", FORMS)
    @pytest.mark.parametrize("left, right, expected", [
        ("1", "1.0", False), ("7", "007", False), ("1e3", "1000", False),
        (" 7", "7", False), ("-0", "0", False), ("nan", "nan", True),
        ("7", "7", True),
    ])
    def test_untyped_values_compare_as_text(self, query, left, right,
                                            expected):
        document = parse_document(
            f"<r><a><v>{left}</v></a><b><v>{right}</v></b></r>")
        store_of(document)
        assert _three_way(query, [document]) \
            == (expected, expected, expected)

    @pytest.mark.parametrize("query, expected", [
        # an untyped value against a *number* compares numerically
        ("some $x in //a, $y in //b satisfies "
         "$x/v/text() + 0 = $y/v/text()", True),
        ("exists(//b[v/text() = 1])", True),
        ("some $x in //a satisfies $x/v/text() = 1.0", True),
        # … and against a typed string, as text
        ("exists(//b[v/text() = '1'])", False),
    ])
    def test_numbers_still_match_every_spelling(self, query, expected):
        document = parse_document(
            "<r><a><v>1</v></a><b><v>1.0</v></b></r>")
        store_of(document)
        assert _three_way(query, [document]) \
            == (expected, expected, expected)

    @pytest.mark.parametrize("author, legal", [("7.0", True), ("7", False)])
    def test_guard_never_refuses_a_legal_update(self, author, legal):
        # reviewer "7" is handed a submission by "7.0" (someone else)
        # or by "7" (a conflict of interest)
        update = _two_author_append(author, "Nobody Else 1")

        def decide(checker_type, mode):
            checker = checker_type(SCHEMA, [
                parse_document(PUB_XML),
                parse_document(REV_XML.replace("Grace", "7"))])
            with mode():
                decision = checker.try_execute(update)
            return decision.legal, decision.applied, decision.violated

        violated = [] if legal else ["conflict_of_interest"]
        for checker_type, mode in [(IntegrityGuard, nullcontext),
                                   (IntegrityGuard, without_columns),
                                   (IntegrityGuard, unplanned),
                                   (BruteForceChecker, nullcontext)]:
            assert decide(checker_type, mode) \
                == (legal, legal, violated), (checker_type, mode)


class TestUpdateWorkloadDifferential:
    """Two guards over twin corpora — one columnar, one ablated —
    must produce identical decisions and identical final documents."""

    def _run(self, small_corpus_factory, updates):
        def guard_over(ablated):
            pub, rev = small_corpus_factory()
            guard = IntegrityGuard(SCHEMA, [pub, rev])
            decisions = []
            for update in updates:
                if ablated:
                    with without_columns():
                        decisions.append(guard.try_execute(update))
                else:
                    decisions.append(guard.try_execute(update))
            return guard, decisions

        columnar_guard, columnar_decisions = guard_over(False)
        ablated_guard, ablated_decisions = guard_over(True)
        assert [(d.legal, d.applied) for d in columnar_decisions] \
            == [(d.legal, d.applied) for d in ablated_decisions]
        for left, right in zip(columnar_guard.documents,
                               ablated_guard.documents):
            assert serialize(left) == serialize(right)
        for document in columnar_guard.documents:
            store = store_of(document)
            assert store is not None
            assert store.verify() == []
        return columnar_decisions

    def test_mixed_updates_agree(self, rng):
        from repro.datagen import CorpusSpec, generate_corpus
        spec = CorpusSpec(tracks=2, revs_per_track=3, subs_per_rev=2,
                          pubs=8, busy_reviewers=1, seed=9)

        def factory():
            return generate_corpus(spec)

        probe_pub, probe_rev = factory()
        updates = [legal_submission(probe_rev, rng) for _ in range(3)]
        updates.append(submission_xupdate(
            1, 1, "Edge paper", "Edge Author"))
        decisions = self._run(factory, updates)
        assert any(d.applied for d in decisions)

    def test_batch_decisions_agree(self):
        from repro.datagen import CorpusSpec, generate_corpus
        spec = CorpusSpec(tracks=2, revs_per_track=3, subs_per_rev=2,
                          pubs=8, busy_reviewers=1, seed=9)
        updates = [submission_xupdate(1 + i % 2, 1 + i % 3,
                                      f"Batch {i}", f"Author {i}")
                   for i in range(8)]

        def batch(ablated):
            pub, rev = generate_corpus(spec)
            guard = IntegrityGuard(SCHEMA, [pub, rev])
            if ablated:
                with without_columns():
                    decisions = guard.check_batch(updates)
            else:
                decisions = guard.check_batch(updates)
            return decisions, [serialize(d) for d in guard.documents]

        columnar, columnar_docs = batch(False)
        ablated, ablated_docs = batch(True)
        assert [d.legal for d in columnar] == [d.legal for d in ablated]
        assert columnar_docs == ablated_docs


class TestExplainBackend:
    def test_columnar_backend_reported(self, documents):
        _attach_all(documents)
        text = explain_query(CONFLICT_QUERY, documents)
        assert "backend: columnar" in text
        assert "columns: " in text  # per-table cardinalities
        assert "est~" in text and "examined=" in text

    def test_ablated_backend_reported(self, documents):
        _attach_all(documents)
        with without_columns():
            text = explain_query(CONFLICT_QUERY, documents)
        assert "backend: planned-DOM" in text
        assert "backend: columnar" not in text

    def test_detached_documents_fall_back(self, documents):
        # no store attached: the plan runs, but on the DOM
        text = explain_query(CONFLICT_QUERY, documents)
        assert "backend: planned-DOM" in text
        assert "backend: columnar" not in text


class TestColumnarSelectResolution:
    POSITIONAL_SELECTS = [
        "/review/track[1]",
        "/review/track[1]/rev[1]",
        "/review/track[2]/rev[1]/sub[1]",
        "/dblp/pub[2]",
    ]

    FALLBACK_SELECTS = [
        "//rev",                                # descendant step
        "/review/track[name/text() = 'Theory']",  # non-positional
        "/review/*",                            # wildcard
    ]

    def _document_for(self, documents, select):
        root = select.lstrip("/").split("/")[0].split("[")[0]
        for document in documents:
            if document.root.tag == root:
                return document
        return documents[1]

    @pytest.mark.parametrize("select", POSITIONAL_SELECTS)
    def test_matches_engine(self, select, documents):
        _attach_all(documents)
        document = self._document_for(documents, select)
        expression = parsed_select(select)
        columnar = _columnar_resolve(document, expression)
        assert columnar is not None
        engine = [item for item in evaluate_query(expression, document)]
        assert columnar == engine

    @pytest.mark.parametrize("select", FALLBACK_SELECTS)
    def test_fallback_shapes_defer_to_engine(self, select, documents):
        _attach_all(documents)
        document = self._document_for(documents, select)
        assert _columnar_resolve(document, parsed_select(select)) is None

    def test_out_of_range_positional_raises_like_engine(self, documents):
        _attach_all(documents)
        document = self._document_for(documents, "/review/track[9]")
        with pytest.raises(UpdateApplicationError):
            resolve_select(document, "/review/track[9]")

    def test_resolution_survives_updates(self, documents):
        _attach_all(documents)
        rev = self._document_for(documents, "/review")
        target = resolve_select(rev, "/review/track[2]/rev[1]")
        track = resolve_select(rev, "/review/track[1]")
        rev.root.remove(track)
        # positions shifted: former track[2] is now track[1]
        assert resolve_select(rev, "/review/track[1]/rev[1]") is target
