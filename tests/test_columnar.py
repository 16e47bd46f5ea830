"""Columnar evaluation backend: verdict differentials and explain.

The contract mirrors the planner suite's: the columnar backend may
only change how fast a verdict arrives, never the verdict.  Every
test pins the three-way equality

    columnar  ==  planned-DOM (``without_columns``)  ==  unplanned

over the fixed query corpus, generated corpora, hypothesis-random
documents, and update workloads.  Explain output must name the
backend each quantifier actually used, and the XUpdate select walk
must resolve exactly the elements the engine resolves.  Both read
children from the DOM — the one child step — which
``test_no_second_array_library`` pins.
"""

from __future__ import annotations

import ast
import inspect
import subprocess
import sys
from contextlib import nullcontext
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.guard import BruteForceChecker, IntegrityGuard
from repro.datagen.running_example import make_schema, submission_xupdate
from repro.datagen.workload import legal_submission
from repro.errors import AmbiguousSelectError, UpdateApplicationError
from repro.relational.incremental import attach, store_of
from repro.xquery import parse_query
from repro.xquery.engine import evaluate_query, query_truth
from repro.xquery.planner import (
    explain_query,
    query_truth_planned,
    unplanned,
    without_columns,
)
from repro.xtree.node import Element, Text
from repro.xtree.parser import parse_document
from repro.xtree.serializer import serialize
from repro.xupdate import apply as xupdate_apply
from repro.xupdate.apply import (
    _walk_select,
    apply_operation,
    parsed_select,
    resolve_select,
)
from repro.xupdate.parser import InsertOperation, RemoveOperation
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



    def test_running_example_checks_report_their_backend(
            self, tmp_path, capsys):
        """Nothing swallows a lowering error any more, and a refusal
        is visible here: on guard-attached documents every C1 check —
        the pattern-U simplified check and both full checks — runs
        columnar; C2's ``count() >= n`` conjuncts are the one refusal."""
        from repro import cli
        corpus = Path(__file__).parent.parent / "examples" / "corpus"
        (tmp_path / "pub.xml").write_text(PUB_XML)
        (tmp_path / "rev.xml").write_text(REV_XML)
        arguments = [
            "explain",
            "--dtd", str(corpus / "pub.dtd"),
            "--dtd", str(corpus / "rev.dtd"),
            "--constraints-file", str(corpus / "constraints.txt"),
            "--pattern", str(corpus / "submission.xml")]
        documents = [str(tmp_path / "pub.xml"), str(tmp_path / "rev.xml")]
        refusal = "planned-DOM (non-equality conjunct)"

        def backends(extra):
            assert cli.main(arguments + extra + documents) == 0
            sections: list[tuple[str, list[str]]] = []
            for line in capsys.readouterr().out.splitlines():
                if line.startswith("== "):
                    sections.append((line.strip("= "), []))
                elif line.startswith("  backend: "):
                    sections[-1][1].append(line[len("  backend: "):])
            return sections

        assert backends(["--update", str(corpus / "submission.xml")]) == [
            # the first C1 check has no quantifier left to lower
            ("C1 (simplified check)", []),
            ("C1 (simplified check)", ["columnar"]),
            ("C2 (simplified check)", [refusal])]
        assert backends([]) == [
            ("C1 (full check)", ["columnar"]),
            ("C1 (full check)", ["columnar"]),
            ("C2 (full check)", [refusal])]


#: interleaved same-tag / other-tag / text siblings at every level
INTERLEAVED_XML = (
    "<r>"
    "<a><k>2</k>t<b><c>1</c>x<d><c>9</c></d><c>2</c></b><e/>"
    "<b><c>3</c></b>y<b/></a>"
    "<e><b><c>8</c></b></e>"
    "<a><b><c>4</c></b><k>7</k><b><e/><c>5</c></b></a>"
    "<a><k>6</k><b><c>6</c></b></a>"
    "</r>")

#: (query, verdict once the first ``b`` of the first ``a`` is gone)
DOWN_CHAIN_QUERIES = [
    ("some $x in //a, $y in $x/b/c satisfies $y/text() = '3'", True),
    ("some $x in //a, $y in $x/b/c satisfies $y/text() = '2'", False),
    # ``c`` below ``d`` or below ``e/b`` is not ``a/b/c``
    ("some $x in //a, $y in $x/b/c satisfies $y/text() = '9'", False),
    ("some $x in //a, $y in $x/b/c satisfies $y/text() = '8'", False),
    ("some $x in //a, $y in $x/b, $z in $y/c "
     "satisfies $z/text() = $x/k/text()", True),
    ("some $x in //a, $y in $x/b, $z in $y/c "
     "satisfies $z/text() = '5' and $x/k/text() = '2'", False),
]


class TestChildStep:
    """``_Down`` chains read ``element.children``: same-tag children
    only, of that parent only, whatever order the tag's table rows
    happen to be in."""

    @pytest.fixture()
    def permuted(self):
        document = parse_document(INTERLEAVED_XML)
        store = attach(document)
        table = store.table("b")
        store.table("c")
        first_a = document.root.children[0]
        first_a.remove(first_a.first_child("b"))
        # the swap-removal moved the last row into the hole
        document_order = [element.node_id
                          for element in document.elements_by_tag("b")]
        assert sorted(table.ids) == sorted(document_order)
        assert list(table.ids) != document_order
        assert store.verify() == []
        return document

    @pytest.mark.parametrize("query, expected", DOWN_CHAIN_QUERIES)
    def test_down_chains_agree(self, permuted, query, expected):
        # columnar, without_columns(), and the engine unplanned() runs
        assert _three_way(query, [permuted]) \
            == (expected, expected, expected)
        assert "backend: columnar" in explain_query(query, [permuted])


def _imports_of(module) -> set[str]:
    imported: set[str] = set()
    for node in ast.walk(ast.parse(inspect.getsource(module))):
        if isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").split(".")[0])
        elif isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0]
                            for alias in node.names)
    return imported


def test_no_second_array_library():
    """One child step, one column implementation: neither module can
    probe for an optional array library or read an environment
    switch, and a worker process never loads one."""
    from repro.relational import columns
    from repro.xquery import columnar
    for module in (columns, columnar):
        assert not _imports_of(module) & {"numpy", "os"}, module
    # a fresh interpreter: hypothesis may already have imported numpy
    # into the pytest process
    source = Path(columns.__file__).parents[2]
    subprocess.run(
        [sys.executable, "-c",
         "import sys, repro.service.net.worker; "
         "assert 'numpy' not in sys.modules"],
        check=True, timeout=60, env={"PYTHONPATH": str(source)})


_CHAIN = ("review", "track", "rev", "sub", "auts")


@st.composite
def positional_selects(draw):
    """``/review/track[2]/rev[5]``-shaped selects, depth 1–4, with
    ``[0]``, out-of-range, missing and doubled positions."""
    depth = draw(st.integers(1, 4))
    tags = list(_CHAIN[:depth + 1])
    if draw(st.booleans()):
        tags[-1] = "name"  # interleaves with the chain's own tags
    steps = []
    for tag in tags:
        positions = draw(st.lists(st.integers(0, 4), max_size=2))
        steps.append(tag + "".join(f"[{p}]" for p in positions))
    return "/" + "/".join(steps)


@st.composite
def sibling_mutations(draw):
    """Insert before/after, or remove, an *early* sibling — what
    shifts the positions of everything behind it."""
    depth = draw(st.integers(1, 3))
    select = "/review" + "".join(
        f"/{tag}[{draw(st.integers(1, 2))}]"
        for tag in _CHAIN[1:depth + 1])
    kind = draw(st.sampled_from(("before", "after", "remove")))
    if kind == "remove":
        return RemoveOperation(select)
    content = draw(st.sampled_from(
        (Element(_CHAIN[depth]), Element("name"), Text("t"))))
    return InsertOperation(kind, select, (content,))


class TestSelectResolution:
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

    @staticmethod
    def _assert_agrees(document, select):
        expression = parsed_select(select)
        expected = [item for item in evaluate_query(expression, document)
                    if isinstance(item, Element)]
        assert _walk_select(document, expression) == expected, select
        if len(expected) == 1:
            assert resolve_select(document, select) is expected[0]
            return
        with pytest.raises(UpdateApplicationError) as raised:
            resolve_select(document, select)
        assert raised.type is (AmbiguousSelectError if expected
                               else UpdateApplicationError), select

    @pytest.mark.parametrize("attached", [True, False])
    @pytest.mark.parametrize("select", POSITIONAL_SELECTS)
    def test_matches_engine(self, select, attached, documents):
        if attached:
            _attach_all(documents)
        self._assert_agrees(self._document_for(documents, select), select)

    @given(random_corpora(), st.booleans(),
           st.lists(positional_selects(), min_size=1, max_size=4),
           st.lists(sibling_mutations(), max_size=3))
    @settings(max_examples=40)
    def test_walk_matches_engine_across_sibling_updates(
            self, corpus, attached, selects, mutations):
        pub, rev = corpus
        if attached:
            IntegrityGuard(SCHEMA, [pub, rev])
        for select in selects:
            self._assert_agrees(rev, select)
        for operation in mutations:
            try:
                apply_operation(rev, operation)
            except UpdateApplicationError:
                continue  # no such anchor: nothing moved
            for select in selects:
                self._assert_agrees(rev, select)

    @pytest.mark.parametrize("select", POSITIONAL_SELECTS + [
        "/review/track[9]", "/review/track[0]", "/review/track"])
    def test_bare_documents_do_not_enter_the_engine(
            self, select, documents, monkeypatch):
        def engine_entered(*args, **kwargs):
            raise AssertionError(f"engine entered for {select}")
        monkeypatch.setattr(xupdate_apply, "evaluate_query",
                            engine_entered)
        document = self._document_for(documents, select)
        assert store_of(document) is None
        try:
            resolve_select(document, select)
        except UpdateApplicationError:
            pass  # no match / ambiguous: decided without the engine

    @pytest.mark.parametrize("select", FALLBACK_SELECTS)
    def test_fallback_shapes_defer_to_engine(self, select, documents):
        _attach_all(documents)
        document = self._document_for(documents, select)
        assert _walk_select(document, parsed_select(select)) is None

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
