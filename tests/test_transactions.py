"""Tests for multi-operation transactions (deferred checking).

Definition 2 treats an update as a *set* of added tuples, and section 2
notes the framework "complies with the semantics of deferred integrity
checking (integrity constraints do not have to hold in intermediate
transaction states)".  A registered multi-append transaction is
simplified as one pattern and checked once, before anything executes.
"""

import pytest

from repro.core import ConstraintSchema, IntegrityGuard
from repro.datagen.running_example import (
    CONFLICT_OF_INTEREST,
    PUB_DTD,
    REV_DTD,
    make_schema,
)
from repro.datalog import Parameter as P
from repro.errors import SimplificationError
from repro.service.net.worker import decision_to_json
from repro.xquery.translate import TranslatedQuery
from repro.xtree import parse_document, serialize
from repro.xupdate import parse_modifications
from repro.xupdate.analyze import analyze_transaction

REFERENTIAL = (
    "<- //sub/title/text() -> T /\\ not(//pub[/title/text() -> T])")


def pub_and_sub(title: str, author: str) -> str:
    """One transaction: register a publication AND assign a submission
    of the same title — legal only under deferred semantics when the
    submission precedes... here the sub comes FIRST, so per-operation
    checking would reject it while deferred checking accepts."""
    return f"""<xupdate:modifications version="1.0"
        xmlns:xupdate="http://www.xmldb.org/xupdate">
      <xupdate:append select="/review/track[1]/rev[1]">
        <sub><title>{title}</title><auts><name>{author}</name></auts></sub>
      </xupdate:append>
      <xupdate:append select="/dblp">
        <pub><title>{title}</title><aut><name>{author}</name></aut></pub>
      </xupdate:append>
    </xupdate:modifications>"""


def two_subs(first: str, second: str) -> str:
    return f"""<xupdate:modifications version="1.0"
        xmlns:xupdate="http://www.xmldb.org/xupdate">
      <xupdate:append select="/review/track[1]/rev[1]">
        <sub><title>{first}</title><auts><name>A One</name></auts></sub>
      </xupdate:append>
      <xupdate:append select="/review/track[1]/rev[1]">
        <sub><title>{second}</title><auts><name>A Two</name></auts></sub>
      </xupdate:append>
    </xupdate:modifications>"""


@pytest.fixture()
def docs():
    pub = parse_document(
        "<dblp><pub><title>Streams</title>"
        "<aut><name>Author X</name></aut></pub></dblp>")
    rev = parse_document(
        "<review><track><name>T</name><rev><name>Reviewer R</name>"
        "<sub><title>Streams</title><auts><name>Author X</name></auts>"
        "</sub></rev></track></review>")
    return [pub, rev]


class TestAnalysis:
    def test_combined_pattern_renames_parameters(self, relational_schema):
        operations = parse_modifications(two_subs("a", "b"))
        analyzed = analyze_transaction(operations, relational_schema)
        names = sorted(p.name for p in analyzed.pattern.parameters())
        assert len(names) == len(set(names))
        assert len(analyzed.pattern.additions) == 4  # 2 subs + 2 auts
        assert len(analyzed.pattern.fresh_parameters) == 4

    def test_hypotheses_follow_renaming(self, relational_schema):
        operations = parse_modifications(two_subs("a", "b"))
        analyzed = analyze_transaction(operations, relational_schema)
        hypothesis_params = set()
        for denial in analyzed.hypotheses:
            hypothesis_params |= denial.parameters()
        assert hypothesis_params <= analyzed.pattern.parameters()

    def test_single_operation_rejected(self, relational_schema):
        operations = parse_modifications(two_subs("a", "b"))[:1]
        with pytest.raises(SimplificationError):
            analyze_transaction(operations, relational_schema)

    def test_non_append_rejected(self, relational_schema):
        text = """<xupdate:modifications
            xmlns:xupdate="http://www.xmldb.org/xupdate">
          <xupdate:insert-after select="//sub[1]"><sub><title>x</title>
            <auts><name>y</name></auts></sub></xupdate:insert-after>
          <xupdate:append select="//rev[1]"><sub><title>z</title>
            <auts><name>w</name></auts></sub></xupdate:append>
        </xupdate:modifications>"""
        operations = parse_modifications(text)
        with pytest.raises(SimplificationError):
            analyze_transaction(operations, relational_schema)

    def test_position_offsets_for_shared_parent(self, relational_schema,
                                                docs):
        operations = parse_modifications(two_subs("a", "b"))
        analyzed = analyze_transaction(operations, relational_schema)
        bindings = analyzed.bind(operations, lambda op: docs[1])
        positions = sorted(
            value for name, value in bindings.items()
            if name.startswith("ps"))
        # the rev has name + 1 sub; the two new subs land at 3 and 4
        assert positions == [3, 4]


class TestDeferredSemantics:
    def test_deferred_accepts_what_per_op_rejects(self, docs):
        schema = ConstraintSchema([PUB_DTD, REV_DTD], [REFERENTIAL],
                                  names=["ref"])
        schema.register_pattern(pub_and_sub("x", "y"))
        guard = IntegrityGuard(schema, docs)
        # the sub's title only exists because the SAME transaction adds
        # the pub: deferred checking accepts
        decision = guard.try_execute(pub_and_sub("Fresh Title", "New A"))
        # REFERENTIAL cannot be simplified for this transaction (XIC404):
        # the probe decides it
        assert decision.legal and decision.applied
        assert not decision.optimized
        titles = [p.first_child("title").text()
                  for p in docs[0].iter_elements("pub")]
        assert "Fresh Title" in titles

    def test_probe_evaluates_only_the_fallback_constraints(
            self, docs, monkeypatch):
        schema = ConstraintSchema(
            [PUB_DTD, REV_DTD], [REFERENTIAL, CONFLICT_OF_INTEREST],
            names=["ref", "C1"])
        checks = schema.checks_for(
            schema.register_pattern(pub_and_sub("x", "y")))
        # REFERENTIAL needs the probe (XIC404); C1 has optimized checks
        assert [c.name for c in checks.fallback] == ["ref"]
        full = {name: {id(query)
                       for query in schema.constraint(name).full_queries}
                for name in ("ref", "C1")}
        evaluated = {"ref": 0, "C1": 0}
        real_truth = TranslatedQuery.truth

        def counting_truth(query, *args, **kwargs):
            for name, ids in full.items():
                if id(query) in ids:
                    evaluated[name] += 1
            return real_truth(query, *args, **kwargs)

        guard = IntegrityGuard(schema, docs)
        monkeypatch.setattr(TranslatedQuery, "truth", counting_truth)
        decision = guard.try_execute(pub_and_sub("Fresh Title", "New A"))
        assert decision.legal and decision.applied
        assert not decision.optimized
        # the probe ran REFERENTIAL's full check and nothing else
        assert evaluated == {"ref": 1, "C1": 0}

    def test_per_op_checking_still_rejects_unregistered(self, docs):
        schema = ConstraintSchema([PUB_DTD, REV_DTD], [REFERENTIAL],
                                  names=["ref"])
        # transaction NOT registered: falls back to per-operation
        # checking, and the sub comes before its pub → rejected
        guard = IntegrityGuard(schema, docs)
        snapshot = [serialize(doc) for doc in docs]
        decision = guard.try_execute(pub_and_sub("Fresh Title", "New A"))
        assert not decision.legal
        assert [serialize(doc) for doc in docs] == snapshot

    def test_transaction_violation_applies_nothing(self, docs):
        schema = ConstraintSchema(
            [PUB_DTD, REV_DTD],
            ["<- //rev[/name/text() -> R]/sub/auts/name/text() -> R"],
            names=["self_review"])
        schema.register_pattern(two_subs("a", "b"))
        guard = IntegrityGuard(schema, docs)
        snapshot = [serialize(doc) for doc in docs]
        bad = two_subs("ok", "bad").replace("A Two", "Reviewer R")
        decision = guard.try_execute(bad)
        assert not decision.legal
        assert decision.violated == ["self_review"]
        assert [serialize(doc) for doc in docs] == snapshot

    def test_legal_transaction_applies_all(self, docs):
        schema = ConstraintSchema(
            [PUB_DTD, REV_DTD],
            ["<- //rev[/name/text() -> R]/sub/auts/name/text() -> R"],
            names=["self_review"])
        schema.register_pattern(two_subs("a", "b"))
        guard = IntegrityGuard(schema, docs)
        decision = guard.try_execute(two_subs("First", "Second"))
        assert decision.legal and decision.applied
        subs = [s.first_child("title").text()
                for s in docs[1].iter_elements("sub")]
        assert subs == ["Streams", "First", "Second"]


class TestProbedTransactionsAreNotOptimized:
    """A decision that a probe took part in reports ``optimized: false``
    on the wire, for a transaction as for a single operation."""

    def _decide(self, schema, pattern, update, docs):
        schema.register_pattern(pattern)
        assert any(diagnostic.code == "XIC404"
                   for diagnostic in schema.diagnostics), \
            "the registered transaction must need a probe"
        decision = IntegrityGuard(schema, docs).try_execute(update)
        assert decision.legal and decision.applied
        return decision_to_json(decision)

    def test_only_constraint_brute_forced(self, docs):
        schema = ConstraintSchema([PUB_DTD, REV_DTD], [REFERENTIAL])
        wire = self._decide(schema, pub_and_sub("x", "y"),
                            pub_and_sub("Fresh Title", "New A"), docs)
        assert wire["optimized"] is False

    def test_one_of_two_constraints_brute_forced(self, docs):
        schema = make_schema()
        wire = self._decide(schema, two_subs("a", "b"),
                            two_subs("First", "Second"), docs)
        assert wire["optimized"] is False
