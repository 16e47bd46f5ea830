"""Differential atomicity tests: failed updates leave no trace.

The paper's headline guarantee is that consistency never depends on
rollback working halfway: an illegal or failing update must restore the
*exact* pre-call state.  These tests seed every failure mode we know —
a later operation's select resolving nowhere, an ambiguous select, a
violation mid-sequence, an exception injected via a listener — into
every checker, and compare the serialized documents before and after
the failed ``try_execute`` byte for byte.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BruteForceChecker, ConstraintSchema, IntegrityGuard
from repro.datagen.running_example import PUB_DTD, REV_DTD, make_schema
from repro.errors import (
    AmbiguousSelectError,
    SchemaError,
    UpdateApplicationError,
)
from repro.service import CheckingService
from repro.xtree import parse_document, serialize
from repro.xupdate import TransactionLog, parse_modifications
from repro.xupdate.apply import AppliedOperation, resolve_select
from tests.conftest import PUB_XML, REV_XML

CHECKERS = [IntegrityGuard, BruteForceChecker]


def multi_update(*operations: str) -> str:
    return ('<xupdate:modifications version="1.0" '
            'xmlns:xupdate="http://www.xmldb.org/xupdate">'
            + "".join(operations) + "</xupdate:modifications>")


def append_sub(select: str, title: str, author: str) -> str:
    return (f'<xupdate:append select="{select}">'
            f'<sub><title>{title}</title>'
            f'<auts><name>{author}</name></auts></sub>'
            '</xupdate:append>')


GOOD = "/review/track[1]/rev[1]"
NOWHERE = "/review/track[9]/rev[9]"
AMBIGUOUS = "//rev[1]"  # first rev of *each* track — two matches


@pytest.fixture(scope="module")
def schema():
    return make_schema()


@pytest.fixture(params=CHECKERS, ids=lambda c: c.__name__)
def checker(request, schema):
    documents = [parse_document(PUB_XML), parse_document(REV_XML)]
    return request.param(schema, documents)


def snapshot(checker) -> list[str]:
    return [serialize(document) for document in checker.documents]


class TestSeededFailures:
    def test_bad_select_on_later_operation(self, checker):
        update = multi_update(
            append_sub(GOOD, "First", "Someone New"),
            append_sub(NOWHERE, "Second", "Someone Else"))
        before = snapshot(checker)
        with pytest.raises(UpdateApplicationError):
            checker.try_execute(update)
        assert snapshot(checker) == before

    def test_ambiguous_select_on_later_operation(self, checker):
        update = multi_update(
            append_sub(GOOD, "First", "Someone New"),
            append_sub(AMBIGUOUS, "Second", "Someone Else"))
        before = snapshot(checker)
        with pytest.raises(AmbiguousSelectError):
            checker.try_execute(update)
        assert snapshot(checker) == before

    def test_violation_mid_sequence_rolls_back_earlier(self, checker):
        # the second operation makes reviewer Alice review her own
        # paper → conflict_of_interest; the legal first operation must
        # be rolled back with it
        update = multi_update(
            append_sub(GOOD, "Legal", "Someone New"),
            append_sub(GOOD, "Self Review", "Alice"))
        before = snapshot(checker)
        decision = checker.try_execute(update)
        assert not decision.legal
        assert "conflict_of_interest" in decision.violated
        assert not decision.applied
        assert snapshot(checker) == before

    def test_listener_exception_rolls_back_legal_update(self, checker):
        class Boom(RuntimeError):
            pass

        def listener(update, decision):
            raise Boom("injected listener failure")

        checker.subscribe(listener)
        before = snapshot(checker)
        with pytest.raises(Boom):
            checker.try_execute(
                multi_update(append_sub(GOOD, "Legal", "Someone New")))
        assert snapshot(checker) == before

    def test_rollback_never_runs_twice_per_record(self, checker,
                                                  monkeypatch):
        counts: dict[int, int] = {}
        #: counted records stay referenced: a freed record's id() can
        #: be handed to the next update's record and read as a repeat
        alive: list[AppliedOperation] = []
        original = AppliedOperation.rollback

        def counting(self):
            alive.append(self)
            counts[id(self)] = counts.get(id(self), 0) + 1
            return original(self)

        monkeypatch.setattr(AppliedOperation, "rollback", counting)
        failures = [
            multi_update(append_sub(GOOD, "A", "Someone New"),
                         append_sub(NOWHERE, "B", "Someone Else")),
            multi_update(append_sub(GOOD, "C", "Someone New"),
                         append_sub(GOOD, "D", "Alice")),
        ]
        for update in failures:
            try:
                checker.try_execute(update)
            except UpdateApplicationError:
                pass
        assert counts  # something was rolled back...
        assert set(counts.values()) == {1}  # ...exactly once each

    @settings(max_examples=40)
    @given(data=st.data())
    def test_any_failure_position_restores_state(self, schema, data):
        """Property: wherever the failure lands in a multi-operation
        update, and whichever checker runs it, the serialized documents
        are byte-identical before and after the failed call."""
        checker_cls = data.draw(st.sampled_from(CHECKERS))
        total = data.draw(st.integers(min_value=1, max_value=4))
        fail_at = data.draw(st.integers(min_value=0, max_value=total - 1))
        fail_kind = data.draw(st.sampled_from(
            ["nowhere", "ambiguous", "violation"]))
        operations = []
        for index in range(total):
            if index == fail_at:
                if fail_kind == "nowhere":
                    operations.append(append_sub(NOWHERE, "x", "y"))
                elif fail_kind == "ambiguous":
                    operations.append(append_sub(AMBIGUOUS, "x", "y"))
                else:
                    operations.append(append_sub(GOOD, "x", "Alice"))
            else:
                operations.append(
                    append_sub(GOOD, f"T{index}", f"New Author {index}"))
        checker = checker_cls(
            schema, [parse_document(PUB_XML), parse_document(REV_XML)])
        before = snapshot(checker)
        try:
            decision = checker.try_execute(multi_update(*operations))
            assert not decision.legal
        except UpdateApplicationError:
            pass
        assert snapshot(checker) == before


def append_pub(title: str, *authors: str) -> str:
    names = "".join(f"<aut><name>{author}</name></aut>"
                    for author in authors)
    return ('<xupdate:append select="/dblp">'
            f"<pub><title>{title}</title>{names}</pub>"
            "</xupdate:append>")


REFERENTIAL = (
    "<- //sub/title/text() -> T /\\ not(//pub[/title/text() -> T])")


def _running_example():
    return make_schema(), [parse_document(PUB_XML),
                           parse_document(REV_XML)]


def _two_sub_transaction_registered():
    # conflict_of_interest cannot be simplified for the transaction
    # (XIC404): the probe decides it
    schema, documents = _running_example()
    schema.register_pattern(multi_update(
        append_sub(GOOD, "x", "y"), append_sub(GOOD, "x", "y")))
    return schema, documents


def _referential():
    # a deletion can violate a negated body: removals are probed
    schema = ConstraintSchema([PUB_DTD, REV_DTD], [REFERENTIAL])
    documents = [
        parse_document("<dblp><pub><title>Streams</title><aut><name>X"
                       "</name></aut></pub><pub><title>Unused</title>"
                       "<aut><name>Y</name></aut></pub></dblp>"),
        parse_document("<review><track><name>T</name><rev><name>R"
                       "</name><sub><title>Streams</title><auts><name>X"
                       "</name></auts></sub></rev></track></review>"),
    ]
    return schema, documents


#: case → (schema and documents, update, legal, applies, rollbacks)
APPLY_ONCE_CASES = {
    "legal-unregistered-append": (
        _running_example,
        multi_update(append_pub("Fresh", "Nobody One")), True, 1, 0),
    # Alice reviews Erin's submission, so co-authoring with Erin is a
    # conflict of interest
    "illegal-unregistered-append": (
        _running_example,
        multi_update(append_pub("Fresh", "Alice", "Erin")), False, 1, 1),
    "registered-pattern-with-fallback": (
        _two_sub_transaction_registered,
        multi_update(append_sub(GOOD, "First", "Someone New"),
                     append_sub(GOOD, "Second", "Someone Else")),
        True, 2, 0),
    "removal-under-deletion-unsafe-constraint": (
        _referential,
        multi_update('<xupdate:remove select="/dblp/pub[2]"/>'),
        True, 1, 0),
}


class TestAppliedOnce:
    """Every operation of an update is applied exactly once, and
    rolled back only when the update is refused — the guard's probe
    included, just as the brute-force oracle does it."""

    @pytest.mark.parametrize("checker_cls", CHECKERS,
                             ids=lambda c: c.__name__)
    @pytest.mark.parametrize("case", sorted(APPLY_ONCE_CASES))
    def test_apply_and_rollback_counts(self, case, checker_cls,
                                       monkeypatch):
        build, update, legal, applies, rollbacks = APPLY_ONCE_CASES[case]
        schema, documents = build()
        checker = checker_cls(schema, documents)
        counts = {"apply": 0, "rollback": 0}
        original_apply = TransactionLog.apply
        original_rollback = AppliedOperation.rollback

        def counting_apply(self, document, operation):
            counts["apply"] += 1
            return original_apply(self, document, operation)

        def counting_rollback(self):
            counts["rollback"] += 1
            return original_rollback(self)

        monkeypatch.setattr(TransactionLog, "apply", counting_apply)
        monkeypatch.setattr(AppliedOperation, "rollback",
                            counting_rollback)
        before = snapshot(checker)
        decision = checker.try_execute(update)
        assert (decision.legal, decision.applied) == (legal, legal)
        assert (counts["apply"], counts["rollback"]) \
            == (applies, rollbacks)
        if not legal:
            assert snapshot(checker) == before


class TestTransactionLog:
    def test_exit_without_commit_rolls_back(self, rev_doc):
        operations = parse_modifications(multi_update(
            append_sub(GOOD, "A", "B"), append_sub(GOOD, "C", "D")))
        before = serialize(rev_doc)
        with TransactionLog() as log:
            for operation in operations:
                log.apply(rev_doc, operation)
            assert serialize(rev_doc) != before
        assert serialize(rev_doc) == before
        assert log.state == "rolled-back"

    def test_commit_keeps_operations(self, rev_doc):
        operation = parse_modifications(
            multi_update(append_sub(GOOD, "A", "B")))[0]
        with TransactionLog() as log:
            log.apply(rev_doc, operation)
            log.commit()
        assert len(log) == 1
        titles = [s.first_child("title").text()
                  for s in rev_doc.iter_elements("sub")]
        assert "A" in titles

    def test_explicit_rollback_then_exit_is_safe(self, rev_doc):
        operation = parse_modifications(
            multi_update(append_sub(GOOD, "A", "B")))[0]
        before = serialize(rev_doc)
        with TransactionLog() as log:
            log.apply(rev_doc, operation)
            log.rollback()
        assert serialize(rev_doc) == before

    def test_double_rollback_rejected(self, rev_doc):
        operation = parse_modifications(
            multi_update(append_sub(GOOD, "A", "B")))[0]
        log = TransactionLog()
        log.apply(rev_doc, operation)
        log.rollback()
        with pytest.raises(UpdateApplicationError):
            log.rollback()

    def test_apply_after_commit_rejected(self, rev_doc):
        operation = parse_modifications(
            multi_update(append_sub(GOOD, "A", "B")))[0]
        log = TransactionLog()
        log.commit()
        with pytest.raises(UpdateApplicationError):
            log.apply(rev_doc, operation)

    def test_adopted_record_is_rolled_back(self, rev_doc):
        from repro.xupdate import apply_operation
        operation = parse_modifications(
            multi_update(append_sub(GOOD, "A", "B")))[0]
        before = serialize(rev_doc)
        with TransactionLog() as log:
            log.record(apply_operation(rev_doc, operation))
        assert serialize(rev_doc) == before


class TestAmbiguousSelect:
    def test_multi_match_select_rejected(self, rev_doc):
        with pytest.raises(AmbiguousSelectError):
            resolve_select(rev_doc, AMBIGUOUS)

    def test_unique_select_still_resolves(self, rev_doc):
        anchor = resolve_select(rev_doc, GOOD)
        assert anchor.tag == "rev"

    def test_apply_of_ambiguous_select_changes_nothing(self, rev_doc):
        from repro.xupdate import apply_text
        before = serialize(rev_doc)
        with pytest.raises(AmbiguousSelectError):
            apply_text(rev_doc, multi_update(append_sub(AMBIGUOUS,
                                                        "T", "A")))
        assert serialize(rev_doc) == before


class TestDuplicateRoots:
    @pytest.mark.parametrize("checker_cls", [*CHECKERS, CheckingService],
                             ids=lambda c: c.__name__)
    def test_shared_root_tag_rejected(self, schema, checker_cls):
        documents = [parse_document(REV_XML), parse_document(REV_XML)]
        with pytest.raises(SchemaError):
            checker_cls(schema, documents)
