"""Prepared check plans: differential, no-reparse and index tests.

The prepared path (compile-once AST, parameters bound as external
XQuery variables, per-tag document indexes) must be *observationally
identical* to the legacy instantiate-text path — same decisions on the
same workload — while never parsing query text at update time and
while handling parameter values the text path cannot quote.
"""

from __future__ import annotations

import random

import pytest

from repro.core import IntegrityGuard
from repro.core.schema import ConstraintSchema
from repro.datagen import generate_corpus, spec_for_size
from repro.datagen.running_example import (
    CONFLICT_OF_INTEREST,
    PUB_DTD,
    REV_DTD,
    make_schema,
    submission_xupdate,
)
from repro.datagen.workload import (
    _normal_reviewer_targets,
    busy_reviewer_targets,
    illegal_submission,
    legal_submission,
)
from repro.errors import CompilationError
from repro.relational.incremental import store_of
from repro.xquery import parser, planner
from repro.xquery.translate import PARAM_VARIABLE_PREFIX
from repro.xtree import parse_document, serialize
from repro.xtree.node import Document
from repro.xupdate import parse_modifications
from repro.xupdate.analyze import signature_of
from repro.xupdate.apply import apply_text


def _strip_prepared(schema) -> None:
    """Force every translated query onto the instantiate-text path."""
    queries = [query for compiled in schema.constraints
               for query in compiled.full_queries]
    for checks in schema.patterns.values():
        for check in checks.optimized:
            queries.extend(check.queries)
    for checks in schema.transaction_patterns.values():
        for check in checks.optimized:
            queries.extend(check.queries)
    for query in queries:
        query.prepared = None


def _two_subs(track: int, rev: int, first: str, second: str) -> str:
    return f"""<xupdate:modifications version="1.0"
        xmlns:xupdate="http://www.xmldb.org/xupdate">
      <xupdate:append select="/review/track[{track}]/rev[{rev}]">
        <sub><title>{first}</title><auts><name>A One</name></auts></sub>
      </xupdate:append>
      <xupdate:append select="/review/track[{track}]/rev[{rev}]">
        <sub><title>{second}</title><auts><name>A Two</name></auts></sub>
      </xupdate:append>
    </xupdate:modifications>"""


def _removal(track: int, rev: int) -> str:
    return f"""<xupdate:modifications version="1.0"
        xmlns:xupdate="http://www.xmldb.org/xupdate">
      <xupdate:remove select="/review/track[{track}]/rev[{rev}]/sub[1]"/>
    </xupdate:modifications>"""


_PUB_APPEND = """<xupdate:modifications version="1.0"
    xmlns:xupdate="http://www.xmldb.org/xupdate">
  <xupdate:append select="/dblp">
    <pub><title>New Book</title><aut><name>Brand New</name></aut></pub>
  </xupdate:append>
</xupdate:modifications>"""


def _make_guard(strip: bool) -> IntegrityGuard:
    schema = make_schema()
    schema.register_pattern(_two_subs(1, 1, "x", "y"))
    if strip:
        _strip_prepared(schema)
    documents = list(generate_corpus(spec_for_size(32 * 1024)))
    return IntegrityGuard(schema, documents)


class TestDifferential:
    """Prepared and text paths decide the running-example workload
    identically, update for update."""

    def test_workload_decisions_match(self):
        prepared_guard = _make_guard(strip=False)
        text_guard = _make_guard(strip=True)
        rev_doc = prepared_guard.documents[1]
        rng = random.Random(361)
        normal = _normal_reviewer_targets(rev_doc)
        busy = busy_reviewer_targets(rev_doc)

        updates = [
            legal_submission(rev_doc, rng),
            legal_submission(rev_doc, rng, kind="after"),
            illegal_submission(rev_doc, rng, "conflict"),
            illegal_submission(rev_doc, rng, "workload"),
            # legal and illegal (busy-reviewer) two-sub transactions
            _two_subs(*normal[0][:2], "Fresh T One", "Fresh T Two"),
            _two_subs(*busy[0][:2], "Over T One", "Over T Two"),
            # removal: both constraints are deletion-safe
            _removal(*normal[1][:2]),
            # unregistered pattern: brute-force fallback
            _PUB_APPEND,
        ]
        outcomes = []
        for update in updates:
            left = prepared_guard.try_execute(update)
            right = text_guard.try_execute(update)
            assert left == right, f"decisions diverge for: {update}"
            outcomes.append(left)
        # the workload exercised both verdicts and both strategies
        assert {decision.legal for decision in outcomes} == {True, False}
        assert {decision.optimized for decision in outcomes} == {True,
                                                                 False}
        # both guards hold identical documents afterwards
        for ours, theirs in zip(prepared_guard.documents,
                                text_guard.documents):
            assert serialize(ours) == serialize(theirs)

    def test_transaction_decisions_match(self):
        prepared_guard = _make_guard(strip=False)
        text_guard = _make_guard(strip=True)
        rev_doc = prepared_guard.documents[1]
        track, rev, _ = _normal_reviewer_targets(rev_doc)[2]
        update = _two_subs(track, rev, "Deferred A", "Deferred B")
        left = prepared_guard.try_execute(update)
        right = text_guard.try_execute(update)
        assert left == right
        assert left.legal and left.optimized and left.applied


class TestNoReparse:
    def test_pattern_checks_have_prepared_plans(self):
        schema = make_schema()
        for checks in schema.patterns.values():
            for check in checks.optimized:
                for query in check.queries:
                    assert query.prepared is not None
                    for name, variable in query.variable_names.items():
                        assert variable == PARAM_VARIABLE_PREFIX + name
        for compiled in schema.constraints:
            for query in compiled.full_queries:
                assert query.prepared is not None

    def test_no_query_parse_for_pattern_matched_updates(self):
        """Acceptance gate: after warm-up, pattern-matched updates go
        through ``try_execute`` without a single ``parse_query`` call
        (no check re-parsing, select served from its cache)."""
        guard = _make_guard(strip=False)
        rev_doc = guard.documents[1]
        track, rev, _ = _normal_reviewer_targets(rev_doc)[0]
        guard.try_execute(
            submission_xupdate(track, rev, "Warm-up", "Warm Author"))
        before = parser.parse_calls()
        for index in range(10):
            decision = guard.try_execute(submission_xupdate(
                track, rev, f"Title {index}", f"Fresh Author {index}"))
            assert decision.legal and decision.optimized
        assert parser.parse_calls() == before

    def test_text_path_does_reparse(self):
        """The stripped guard really is the re-parsing baseline."""
        guard = _make_guard(strip=True)
        rev_doc = guard.documents[1]
        track, rev, _ = _normal_reviewer_targets(rev_doc)[0]
        guard.try_execute(
            submission_xupdate(track, rev, "Warm-up", "Warm Author"))
        before = parser.parse_calls()
        guard.try_execute(
            submission_xupdate(track, rev, "Another", "Other Author"))
        assert parser.parse_calls() > before


class TestQuoting:
    def test_both_quote_characters_bind_as_variables(self):
        """A value the text path cannot render as a literal flows
        through variable binding untouched."""
        guard = _make_guard(strip=False)
        rev_doc = guard.documents[1]
        track, rev, _ = _normal_reviewer_targets(rev_doc)[0]
        author = 'Miles "Mo" O\'Brien'
        update = submission_xupdate(track, rev, "Quoted", author)
        operation = parse_modifications(update)[0]
        checks = guard.schema.checks_for(
            signature_of(operation, guard.schema.relational))
        bindings = checks.analyzed.bind(rev_doc, operation)
        assert author in bindings.values()
        value_queries = [
            query for check in checks.optimized
            for query in check.queries
            if "value" in query.parameters.values()]
        assert value_queries
        for query in value_queries:
            with pytest.raises(CompilationError):
                query.instantiate(bindings)
            assert query.truth(guard.documents, bindings) is False
        decision = guard.try_execute(update)
        assert decision.legal and decision.optimized and decision.applied

    def test_both_quote_conflict_still_detected(self):
        """The quoting fix must not weaken detection: a conflicting
        author with both quote characters is still rejected."""
        schema = ConstraintSchema(
            dtds=[PUB_DTD, REV_DTD],
            constraints=[CONFLICT_OF_INTEREST],
            names=["conflict_of_interest"])
        schema.register_pattern(submission_xupdate(1, 1, "x", "y"))
        reviewer = 'Miles "Mo" O\'Brien'
        documents = [
            parse_document("<dblp><pub><title>t</title>"
                           "<aut><name>Solo</name></aut></pub></dblp>"),
            parse_document(
                f"<review><track><name>T</name><rev><name>{reviewer}"
                "</name><sub><title>s</title><auts><name>Other</name>"
                "</auts></sub></rev></track></review>"),
        ]
        guard = IntegrityGuard(schema, documents)
        decision = guard.try_execute(
            submission_xupdate(1, 1, "Self Review", reviewer))
        assert not decision.legal
        assert decision.violated == ["conflict_of_interest"]
        assert decision.optimized


class TestTagIndex:
    def _expected(self, document, tag):
        return [node for node in document.root.iter()
                if getattr(node, "tag", None) == tag]

    def test_index_matches_iteration_after_apply_and_rollback(self):
        document = parse_document(
            "<review><track><name>T</name><rev><name>R</name>"
            "<sub><title>a</title><auts><name>A</name></auts></sub>"
            "</rev></track></review>")
        for tag in ("track", "rev", "sub", "name"):
            assert document.elements_by_tag(tag) \
                == self._expected(document, tag)
        revision = document.tag_revision("sub")
        records = apply_text(
            document, submission_xupdate(1, 1, "New", "Author"))
        assert document.tag_revision("sub") > revision
        for tag in ("sub", "auts", "name", "title"):
            assert document.elements_by_tag(tag) \
                == self._expected(document, tag)
        for record in reversed(records):
            record.rollback()
        for tag in ("sub", "auts", "name", "title"):
            assert document.elements_by_tag(tag) \
                == self._expected(document, tag)

    def test_unrelated_tag_revision_untouched(self):
        document = parse_document(
            "<review><track><name>T</name><rev><name>R</name>"
            "<sub><title>a</title><auts><name>A</name></auts></sub>"
            "</rev></track></review>")
        track_revision = document.tag_revision("track")
        apply_text(document, submission_xupdate(1, 1, "New", "Author"))
        assert document.tag_revision("track") == track_revision


_TITLE_APPEND = """<xupdate:modifications version="1.0"
    xmlns:xupdate="http://www.xmldb.org/xupdate">
  <xupdate:append select="/review/track[1]/rev[1]/sub[1]">
    <xupdate:element name="title">Extra</xupdate:element>
  </xupdate:append>
</xupdate:modifications>"""

#: the coauthor denial hash-joins ``//aut`` by ``aut/name/text()``
_AUT_NAME = (("child", "name"), ("child", "text()"))


class TestValueIndex:
    """The column store's ``PathIndex`` is the one value index that
    outlives an evaluation."""

    def _attached(self):
        schema = make_schema()
        documents = list(generate_corpus(spec_for_size(32 * 1024)))
        IntegrityGuard(schema, documents)
        query = schema.constraint("conflict_of_interest").full_queries[1]
        return documents, query

    def _served(self, documents):
        return [store_of(document).value_index("aut", _AUT_NAME)
                for document in documents]

    def test_value_index_survives_unrelated_updates(self):
        documents, query = self._attached()
        assert query.truth(documents) is False
        served = self._served(documents)
        # an update touching only <title> elements keeps the same
        # index objects serving
        apply_text(documents[1], _TITLE_APPEND)
        assert query.truth(documents) is False
        assert all(after is before for after, before
                   in zip(self._served(documents), served))
        # a new aut/name key is probe-visible right after the update
        # that adds it, through the same objects
        merged = planner._columnar_probe_map("aut", _AUT_NAME, documents)
        assert merged.get(("str", "Brand New")) == ()
        apply_text(documents[0], _PUB_APPEND)
        (added,) = merged.get(("str", "Brand New"))
        assert added.tag == "aut" and added.document is documents[0]
        assert query.truth(documents) is False
        assert all(store_of(document).rebuilds == 0
                   for document in documents)

    def test_ablated_check_probes_the_store_after_a_write(
            self, monkeypatch):
        # with the frontier lowering ablated the hash join still
        # probes the store's index: a submission (new sub/auts/name
        # elements, no aut) triggers no O(|aut|) index build
        documents, query = self._attached()
        fetched: list[str] = []
        elements_by_tag = Document.elements_by_tag

        def counting(document, tag):
            fetched.append(tag)
            return elements_by_tag(document, tag)

        with planner.without_columns():
            assert query.truth(documents) is False
            served = self._served(documents)
            apply_text(documents[1], submission_xupdate(
                1, 1, "Fresh paper", "Nobody Known"))
            with monkeypatch.context() as patch:
                patch.setattr(Document, "elements_by_tag", counting)
                assert query.truth(documents) is False
            merged = planner._columnar_probe_map(
                "aut", _AUT_NAME, documents)
        assert "aut" not in fetched
        assert all(after is before for after, before
                   in zip(merged.indexes, served))
        assert all(store_of(document).rebuilds == 0
                   for document in documents)


class TestDeletionSafety:
    def test_running_example_is_deletion_safe(self):
        schema = make_schema(register_submission_pattern=False)
        assert schema.deletion_unsafe_constraints() == []

    def test_negation_marks_constraint_unsafe(self):
        referential = ("<- //sub/title/text() -> T "
                       "/\\ not(//pub[/title/text() -> T])")
        schema = ConstraintSchema(
            dtds=[PUB_DTD, REV_DTD],
            constraints=[CONFLICT_OF_INTEREST, referential],
            names=["conflict", "referential"])
        assert schema.deletion_unsafe_constraints() == ["referential"]
