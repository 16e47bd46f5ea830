"""Cost-based check planner: correctness, statistics, and batching.

The contract under test is *verdict equivalence*: every planned,
streamed or batched evaluation returns exactly the verdict of the
unplanned engine — on the running example, on generated corpora, and
on hypothesis-generated documents and updates.  The planner may only
ever change how fast an answer arrives, never the answer.
"""

from __future__ import annotations

import gc
import random
import threading
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.guard import IntegrityGuard
from repro.datagen import CorpusSpec, generate_corpus
from repro.datagen.running_example import make_schema, submission_xupdate
from repro.datagen.workload import legal_submission
from repro.relational.columns import value_index, verify
from repro.service.store import CheckingService, DocumentStore
from repro.testing.failpoints import FailPointError, fail
from repro.xquery import parse_query
from repro.xquery.engine import query_truth
from repro.xquery.planner import (
    Statistics,
    _choose_order,
    explain_query,
    query_truth_planned,
    unplanned,
)
from repro.xquery.values import UntypedAtomic
from repro.xtree.node import Document, Element, Text
from repro.xtree.parser import parse_document
from repro.xtree.serializer import serialize
from repro.xupdate.apply import TransactionLog, apply_operation
from repro.xupdate.parser import parse_modifications
from tests.conftest import PUB_XML

SCHEMA = make_schema()

QUERIES = [
    # the running example's conflict check (full form)
    "some $Ir in //rev, $R in $Ir/name/text(), $Is in $Ir/sub, "
    "$Ia in $Is/auts satisfies $R = $Ia/name/text()",
    # the workload check: aggregates over predicated descendant steps
    "some $R in distinct-values(//track/rev/name/text()) satisfies "
    "count(//track[rev[name/text() = $R]]) >= 3 and "
    "count(//rev[name/text() = $R]/sub) > 10",
    # hash-joinable co-author form
    "some $Ir in //rev, $R in $Ir/name/text(), $Ia2 in //aut "
    "satisfies $R = $Ia2/name/text()",
    "every $p in //pub satisfies exists($p/aut)",
    "every $r in //rev satisfies count($r/sub) >= 1",
    "count(//pub) >= 2",
    "exists(//rev[name/text() = 'Alice'])",
    "//track[name/text() = 'Theory']/rev/name/text() = 'Alice'",
    "some $x in //aut satisfies $x/name/text() = //rev/name/text()",
    "empty(//nosuch)",
    "not(exists(//track[name/text() = 'Chemistry']))",
    "some $t in //track, $r in $t/rev satisfies "
    "$t/name/text() = 'Theory' and $r/name/text() = 'Alice'",
    "//pub[aut[name/text() = 'Carol']]/title/text() = 'Mouseton stories'",
    "some $s in //sub satisfies count($s/auts) > 1",
    # conjuncts outside key space become per-row filters: ordering
    # comparisons against a constant and against another variable
    "some $r in //rev satisfies $r/name/text() < 'Bob'",
    "some $r in //rev, $s in $r/sub satisfies "
    "$s/auts/name/text() >= $r/name/text()",
    "some $r in //rev, $s in $r/sub, $a in $s/auts "
    "satisfies $a/name/text() != $r/name/text()",
    # a count() conjunct over a variable a row filter reads
    "some $r in //rev, $R in $r/name/text() satisfies "
    "count(//rev[name/text() = $R]) >= 2 and $R != 'Cid'",
    # every, as not(some ... satisfies not(...))
    "every $r in //rev, $s in $r/sub satisfies "
    "$s/auts/name/text() != $r/name/text()",
    # an uncorrelated //tag after level 0
    "some $s in //sub, $p in //pub satisfies "
    "count($p/aut) > count($s/auts)",
    # a correlated source with a predicate
    "some $r in //rev, $s in $r/sub[auts/name/text() = 'Ann'] "
    "satisfies $s/title/text() != $r/name/text()",
    # a join whose key side is not a downpath
    "some $r in //rev, $a in //aut satisfies "
    "$a//text() = $r/name/text()",
    # a carried column of atoms: 1 and true() are one Python key
    "some $x in (1, true()), $a in //aut satisfies "
    "concat(string($x), $a/name/text()) = 'trueAlice'",
    # key-filtered child steps, answered by a correlated probe of the
    # child tag's value index grouped by parent: a number, a typed
    # string and an untyped variable as the probe side ("1" = 1 and
    # "1.0" = 1, but "1" != "1.0")
    "some $p in //pub, $a in $p/aut satisfies $a/name/text() = 1",
    "some $p in //pub, $a in $p/aut satisfies $a/name/text() = '1.0'",
    "some $r in //rev, $R in $r/name/text(), $s in $r/sub, "
    "$a in $s/auts satisfies $a/name/text() = $R",
    # a multi-atom key: a sub's key is every auts name under it
    "some $r in //rev, $R in $r/name/text(), $s in $r/sub "
    "satisfies $s/auts/name/text() = $R",
    # a constant probe side, a key value shared by many elements
    "some $t in //track, $r in $t/rev satisfies $r/name/text() = 'Alice'",
    "some $s in //sub, $a in $s/auts satisfies $a/name/text() = 'Erin'",
    # parents in both documents, probed by keys from the other one
    "some $n in //name, $p in $n/.., $c in $p/name "
    "satisfies $c/text() = //rev/name/text()",
    "some $r in //rev, $n in $r/name satisfies $n/text() = //aut/name/text()",
    # a probe inside every: the outer row's value is the constant side
    "every $r in //rev satisfies some $t in //track, $x in $t/rev "
    "satisfies $x/name/text() = $r/name/text()",
]


def _text_el(tag, value):
    element = Element(tag)
    element.append(Text(value))
    return element


#: text values whose untyped/numeric readings disagree: equal as
#: numbers, distinct as strings (or not numbers at all) — the inputs
#: on which a value index keyed too coarsely answers differently from
#: ``compare_atomics``
NUMERIC_SPELLINGS = ("1", "1.0", "01", "1e0", " 1", "-0", "0", "nan", "inf")

#: join shapes over reviewer/author names that the fixed corpus above
#: only exercises with names no two spellings of which are equal
NAME_JOIN_QUERIES = [
    "some $x in //aut, $y in //rev satisfies "
    "$x/name/text() = $y/name/text()",
    "some $x in //auts, $y in //rev satisfies $x/name = $y/name",
    "exists(//auts[name/text() = //rev/name/text()])",
    "//aut/name/text() = //rev/name/text()",
    "some $x in //aut, $y in //rev satisfies "
    "$x/name/text() + 0 = $y/name/text()",
]


@st.composite
def random_corpora(draw, names=("Ann", "Bob", "Cid")):
    review = Element("review")
    for track_index in range(draw(st.integers(1, 2))):
        track = Element("track")
        track.append(_text_el("name", f"T{track_index}"))
        for _ in range(draw(st.integers(1, 2))):
            rev = Element("rev")
            rev.append(_text_el("name", draw(st.sampled_from(names))))
            for _ in range(draw(st.integers(1, 3))):
                sub = Element("sub")
                sub.append(_text_el("title", "S"))
                for _ in range(draw(st.integers(1, 2))):
                    auts = Element("auts")
                    auts.append(_text_el(
                        "name", draw(st.sampled_from(names))))
                    sub.append(auts)
                rev.append(sub)
            track.append(rev)
        review.append(track)
    dblp = Element("dblp")
    for _ in range(draw(st.integers(0, 3))):
        pub = Element("pub")
        pub.append(_text_el("title", "P"))
        for _ in range(draw(st.integers(1, 2))):
            aut = Element("aut")
            aut.append(_text_el("name", draw(st.sampled_from(names))))
            pub.append(aut)
        dblp.append(pub)
    return Document(dblp), Document(review)


class TestDifferentialQueries:
    @pytest.mark.parametrize("query", QUERIES)
    def test_fixed_queries_agree(self, query, documents):
        expression = parse_query(query)
        assert query_truth_planned(expression, documents) \
            == query_truth(expression, documents)

    @pytest.mark.parametrize("query", QUERIES)
    def test_generated_corpus_agrees(self, query, small_corpus):
        documents = list(small_corpus)
        expression = parse_query(query)
        assert query_truth_planned(expression, documents) \
            == query_truth(expression, documents)

    @pytest.mark.parametrize("stored", [0, 1], ids=["pub", "rev"])
    @pytest.mark.parametrize("query", QUERIES)
    def test_one_store_agrees(self, query, stored, documents):
        # one document answers from the indexes an earlier read built
        # (and its deltas kept), the other from indexes this read
        # builds: a probe spanning both must not care
        expression = parse_query(query)
        query_truth_planned(expression, [documents[stored]])
        assert documents[1 - stored].value_indexes == {}
        assert query_truth_planned(expression, documents) \
            == query_truth(expression, documents)

    @given(random_corpora())
    @settings(max_examples=40)
    def test_hypothesis_corpora_agree(self, corpus):
        documents = list(corpus)
        for query in QUERIES:
            expression = parse_query(query)
            assert query_truth_planned(expression, documents) \
                == query_truth(expression, documents), query

    @given(random_corpora())
    @settings(max_examples=25)
    def test_full_constraint_checks_agree(self, corpus):
        documents = list(corpus)
        for constraint in SCHEMA.constraints:
            for query in constraint.full_queries:
                planned = query_truth_planned(
                    query.prepared, documents)
                assert planned == query_truth(
                    query.prepared, documents), constraint.name

    @given(random_corpora(names=NUMERIC_SPELLINGS))
    @settings(max_examples=40)
    def test_numeric_spellings_agree(self, corpus):
        documents = list(corpus)
        queries = [parse_query(query)
                   for query in QUERIES + NAME_JOIN_QUERIES]
        queries += [query.prepared for constraint in SCHEMA.constraints
                    for query in constraint.full_queries]
        for expression in queries:
            assert query_truth_planned(expression, documents) \
                == query_truth(expression, documents), str(expression)


def _decision_key(decision):
    return (decision.legal, decision.applied, decision.rolled_back,
            tuple(decision.violated))


def _fresh_documents():
    spec = CorpusSpec(tracks=3, revs_per_track=4, subs_per_rev=3,
                      pubs=20, busy_reviewers=1, seed=42)
    return list(generate_corpus(spec))


def _update_mix(rev_doc, seed):
    rng = random.Random(seed)
    updates = [legal_submission(rev_doc, rng) for _ in range(6)]
    # same-pattern updates with a mix of legal and conflicting authors
    updates.append(submission_xupdate(1, 1, "Sneaky", "Bob"))
    updates.append(submission_xupdate(2, 1, "Fine", "Nobody Known"))
    rng.shuffle(updates)
    return updates


def _multi_submission(parts):
    """One modification document appending several submissions."""
    blocks = []
    for track, rev, title, author in parts:
        select = f"/review/track[{track}]/rev[{rev}]"
        blocks.append(
            f'  <xupdate:append select="{select}">\n'
            f'    <xupdate:element name="sub">\n'
            f'      <title>{title}</title>\n'
            f'      <auts><name>{author}</name></auts>\n'
            f'    </xupdate:element>\n'
            f'  </xupdate:append>')
    return ('<?xml version="1.0"?>\n'
            '<xupdate:modifications version="1.0"\n'
            '    xmlns:xupdate="http://www.xmldb.org/xupdate">\n'
            + "\n".join(blocks)
            + '\n</xupdate:modifications>')


class TestDifferentialUpdates:
    def test_guard_decisions_match_unplanned(self):
        planned_docs = _fresh_documents()
        planned = [
            IntegrityGuard(SCHEMA, planned_docs).try_execute(update)
            for update in _update_mix(planned_docs[1], 11)]
        with unplanned():
            baseline_docs = _fresh_documents()
            baseline = [
                IntegrityGuard(SCHEMA, baseline_docs).try_execute(update)
                for update in _update_mix(baseline_docs[1], 11)]
        assert [_decision_key(d) for d in planned] \
            == [_decision_key(d) for d in baseline]
        assert [serialize(d) for d in planned_docs] \
            == [serialize(d) for d in baseline_docs]

    def test_check_batch_matches_sequential(self):
        batch_docs = _fresh_documents()
        batched = IntegrityGuard(SCHEMA, batch_docs).check_batch(
            _update_mix(batch_docs[1], 23))
        sequential_docs = _fresh_documents()
        guard = IntegrityGuard(SCHEMA, sequential_docs)
        sequential = [guard.try_execute(update)
                      for update in _update_mix(sequential_docs[1], 23)]
        assert [_decision_key(d) for d in batched] \
            == [_decision_key(d) for d in sequential]
        assert [serialize(d) for d in batch_docs] \
            == [serialize(d) for d in sequential_docs]

    @given(st.integers(0, 10_000))
    @settings(max_examples=15)
    def test_check_batch_matches_sequential_random(self, seed):
        batch_docs = _fresh_documents()
        batched = IntegrityGuard(SCHEMA, batch_docs).check_batch(
            _update_mix(batch_docs[1], seed))
        with unplanned():
            baseline_docs = _fresh_documents()
            guard = IntegrityGuard(SCHEMA, baseline_docs)
            baseline = [
                guard.try_execute(update)
                for update in _update_mix(baseline_docs[1], seed)]
        assert [_decision_key(d) for d in batched] \
            == [_decision_key(d) for d in baseline]
        assert [serialize(d) for d in batch_docs] \
            == [serialize(d) for d in baseline_docs]

    def test_check_batch_multi_operation_updates_match_sequential(self):
        # multi-operation updates check operation k after operations
        # 1..k-1 of the same update applied, so mid-batch checks
        # probe indexes over a partially applied state
        def updates():
            return [
                _multi_submission([(1, 2, "A", "Nobody A"),
                                   (2, 1, "B", "Nobody B")]),
                submission_xupdate(1, 1, "Sneaky", "Bob"),
                _multi_submission([(1, 3, "C", "Nobody C"),
                                   (1, 1, "Own", "Bob")]),
                _multi_submission([(3, 1, "D", "Nobody D"),
                                   (3, 2, "E", "Nobody E")]),
                submission_xupdate(2, 2, "F", "Nobody F"),
                _multi_submission([(2, 1, "G", "Nobody G"),
                                   (2, 3, "H", "Nobody H")]),
            ]
        batch_docs = _fresh_documents()
        batched = IntegrityGuard(SCHEMA, batch_docs).check_batch(
            updates())
        with unplanned():
            baseline_docs = _fresh_documents()
            guard = IntegrityGuard(SCHEMA, baseline_docs)
            baseline = [guard.try_execute(update)
                        for update in updates()]
        assert [_decision_key(d) for d in batched] \
            == [_decision_key(d) for d in baseline]
        assert [serialize(d) for d in batch_docs] \
            == [serialize(d) for d in baseline_docs]

    def test_service_check_batch_commit_log(self):
        documents = _fresh_documents()
        service = CheckingService(SCHEMA, documents)
        decisions = service.check_batch(_update_mix(documents[1], 5))
        committed = service.committed_updates()
        assert len(committed) == sum(1 for d in decisions if d.applied)
        assert [c.sequence for c in committed] \
            == list(range(len(committed)))


class TestStatistics:
    def test_tag_counts_track_mutations(self, rev_doc):
        before = rev_doc.tag_count("rev")
        operation = parse_modifications(
            submission_xupdate(1, 1, "New", "Someone"))[0]
        apply_operation(rev_doc, operation)
        assert rev_doc.tag_count("sub") \
            == len(list(rev_doc.iter_elements("sub")))
        assert rev_doc.tag_count("rev") == before

    def test_distinct_count_invalidates_per_revision(self, rev_doc):
        first = rev_doc.tag_distinct_count("name")
        values = {element.text()
                  for element in rev_doc.iter_elements("name")}
        assert first == len(values)
        operation = parse_modifications(
            submission_xupdate(1, 1, "T", "Completely New Author"))[0]
        apply_operation(rev_doc, operation)
        assert rev_doc.tag_distinct_count("name") == first + 1

    def test_child_count_separates_parents(self, rev_doc):
        # ``name`` sits under track, rev and auts: a child step from a
        # rev yields that parent's share, not every name of the document
        counts = {parent: rev_doc.child_count(parent, "name")
                  for parent in ("track", "rev", "auts", "sub")}
        assert counts == {"track": 2, "rev": 3, "auts": 5, "sub": 0}
        assert sum(counts.values()) == rev_doc.tag_count("name")
        operation = parse_modifications(
            submission_xupdate(1, 1, "T", "Someone"))[0]
        apply_operation(rev_doc, operation)
        assert rev_doc.child_count("auts", "name") == 6
        assert Statistics((rev_doc,)).children("rev", "name") == 3.0

    def test_counts_are_the_live_counts(self, rev_doc):
        # exact at every state, the empty one included: nothing stands
        # in for a correct zero
        assert Statistics((Document(Element("review")),)).count("rev") \
            == 0.0
        assert Statistics((rev_doc,)).count("rev") \
            == len(list(rev_doc.iter_elements("rev")))


class TestStatisticsRace:
    """A statistics refresh must not race a writer.

    Reader threads hammer the per-tag statistics (counts and distinct
    counts) while a writer applies real updates through the tag index.
    A document takes no lock of its own; the store mutex the service
    holds around every call is what serializes them, so both sides
    hold it here.  Every read must observe an internally consistent
    bucket — no exceptions, no impossible values.
    """

    def test_stats_reads_race_concurrent_writer(self):
        documents = _fresh_documents()
        rev_doc = documents[1]
        rng = random.Random(3)
        operations = [
            parse_modifications(legal_submission(rev_doc, rng))[0]
            for _ in range(40)]
        store = DocumentStore(documents)
        errors: list[BaseException] = []
        stop = threading.Event()

        def reader():
            try:
                while not stop.is_set():
                    with store.read_locked():
                        assert rev_doc.tag_count("name") > 0
                        assert rev_doc.tag_distinct_count("name") > 0
                        for tag in ("rev", "sub", "name"):
                            unique = rev_doc.tag_distinct_count(tag)
                            assert 0 <= unique <= rev_doc.tag_count(tag), \
                                tag
                        stats = Statistics(tuple(documents))
                        assert stats.count("sub") >= 0
            except BaseException as error:  # noqa: BLE001
                errors.append(error)

        readers = [threading.Thread(target=reader) for _ in range(4)]
        for thread in readers:
            thread.start()
        try:
            for operation in operations:
                with store.write_locked():
                    apply_operation(rev_doc, operation)
        finally:
            stop.set()
            for thread in readers:
                thread.join(timeout=10)
        assert not errors, errors
        assert not any(thread.is_alive() for thread in readers)
        # the final snapshot agrees with a full walk
        assert rev_doc.tag_count("sub") \
            == len(list(rev_doc.iter_elements("sub")))


def _fresh_check():
    """The conflict constraint's prepared full check, from a fresh
    schema: it holds no plan yet."""
    return make_schema().constraints[0].full_queries[0]


def _submission(rev_doc, index, author):
    operation = parse_modifications(
        submission_xupdate(1, 1, f"Paper {index}", author))[0]
    apply_operation(rev_doc, operation)


def _reviewer(rev_doc):
    rev = rev_doc.root.first_child("track").first_child("rev")
    return rev.first_child("name").text()


#: counts plans made (each reads the statistics once) without firing
COUNT_PLANS = {"planner.stats.refresh": "prob:0"}


class TestPlanCache:
    """A prepared check owns its plans, one per size class of its
    documents; ad-hoc queries are planned per call."""

    def test_plan_revalidates_after_mutation(self, documents):
        query = parse_query(QUERIES[0])
        assert query_truth_planned(query, documents) \
            == query_truth(query, documents)
        rev_doc = documents[1]
        operation = parse_modifications(
            submission_xupdate(1, 1, "T", "Alice"))[0]
        apply_operation(rev_doc, operation)  # Alice reviews herself
        assert query_truth_planned(query, documents) is True
        assert query_truth(query, documents) is True

    def test_unplanned_scope_restores(self, documents):
        with unplanned():
            from repro.xquery import planner
            assert not planner.enabled()
        from repro.xquery import planner
        assert planner.enabled()

    def test_in_class_writes_do_not_replan(self):
        documents = _fresh_documents()
        rev_doc = documents[1]
        check = _fresh_check()
        assert check.truth(documents) is False
        size_class = rev_doc.element_count().bit_length()
        with fail.armed(COUNT_PLANS) as handle:
            for index in range(3):
                _submission(rev_doc, index, f"Fresh Author {index}")
                assert rev_doc.element_count().bit_length() == size_class
                assert check.truth(documents) is False
            _submission(rev_doc, 3, _reviewer(rev_doc))
            assert rev_doc.element_count().bit_length() == size_class
            assert check.truth(documents) is True
        assert handle.hits("planner.stats.refresh") == 0
        assert len(check.plans) == 1

    def test_growing_past_a_power_of_two_replans_once(self):
        documents = _fresh_documents()
        rev_doc = documents[1]
        check = _fresh_check()
        assert check.truth(documents) is False
        size_class = rev_doc.element_count().bit_length()
        with fail.armed(COUNT_PLANS) as handle:
            index = 0
            while rev_doc.element_count().bit_length() == size_class:
                _submission(rev_doc, index, f"Fresh Author {index}")
                index += 1
                assert check.truth(documents) is False
            for more in range(3):
                _submission(rev_doc, index + more, "Another Author")
                assert check.truth(documents) is False
        assert index > 1
        assert handle.hits("planner.stats.refresh") == 1
        assert len(check.plans) == 2

    def test_fault_on_first_sight_stores_no_plan(self):
        documents = _fresh_documents()
        _submission(documents[1], 0, _reviewer(documents[1]))
        check = _fresh_check()
        with fail.armed({"planner.stats.refresh": "count:1"}) as handle:
            with pytest.raises(FailPointError):
                check.truth(documents)
        assert handle.fired("planner.stats.refresh")
        assert check.plans == {}
        assert check.truth(documents) \
            == query_truth(check.prepared, documents) is True
        assert len(check.plans) == 1

    def test_a_checks_plans_hold_no_document(self):
        check = _fresh_check()
        local_docs = _fresh_documents()
        assert check.truth(local_docs) \
            == query_truth(check.prepared, local_docs)
        assert check.plans
        references = [weakref.ref(document) for document in local_docs]
        del local_docs
        gc.collect()
        # the plan stays on the check; the document trees do not
        assert all(reference() is None for reference in references)


class TestPlannedErrorFallback:
    """Reordering must not surface errors the engine's order avoids."""

    def test_hoisted_factor_error_defers_to_engine(self, documents):
        # the condition has no quantifier variables, so planning hoists
        # it before the (empty) source is ever iterated; the engine
        # never evaluates it and returns a verdict
        query = parse_query("some $x in //nosuch satisfies 1 div 0 = 1")
        assert query_truth(query, documents) is False
        assert query_truth_planned(query, documents) is False

    def test_join_probe_error_defers_to_engine(self, documents):
        # the planner evaluates the probe side of the hash join before
        # it looks at the (empty) source; the engine's nested loop
        # never reaches the condition
        query = parse_query(
            "some $x in //nosuch satisfies $x/title/text() = 1 div 0")
        assert query_truth(query, documents) is False
        assert query_truth_planned(query, documents) is False

    def test_errors_the_engine_raises_still_raise(self, documents):
        from repro.errors import XQueryEvaluationError
        query = parse_query(
            "some $x in //aut satisfies $x/name/text() = 1 div 0")
        with pytest.raises(XQueryEvaluationError):
            query_truth(query, documents)
        with pytest.raises(XQueryEvaluationError):
            query_truth_planned(query, documents)

    def test_explain_reports_the_unplanned_fallback(self, documents):
        text = explain_query(
            "some $x in //nosuch satisfies 1 div 0 = 1", documents)
        assert "backend: unplanned fallback (division by zero)" in text
        assert "verdict: false" in text

    def test_explain_raises_what_the_engine_raises(self, documents):
        from repro.errors import XQueryEvaluationError
        with pytest.raises(XQueryEvaluationError):
            explain_query(
                "some $x in //aut satisfies $x/name/text() = 1 div 0",
                documents)


class TestHashJoinScope:
    """A hash-join index is shared across an evaluation only when it
    depends on the documents alone."""

    @pytest.mark.parametrize("xml, query, expected", [
        # $c ranges over the outer $a: the first a's index (k=5) must
        # not answer for the second a (k=2, the witness)
        ("<r><a><z><k>5</k></z></a><a><z><k>2</k></z></a>"
         "<y><k>2</k></y></r>",
         "some $a in //a satisfies (some $b in //y, $c in $a/z "
         "satisfies $b/k/text() = $c/k/text())", True),
        # ./c ranges over the focus: the first a's c (t=2) must not
        # match the second a's b (t=2)
        ("<r><a><b><t>1</t></b><c><t>2</t></c></a>"
         "<a><b><t>2</t></b><c><t>9</t></c></a></r>",
         "exists(//a[some $x in ./b, $y in ./c satisfies "
         "$x/t/text() = $y/t/text()])", False),
    ], ids=["outer-variable", "focus"])
    def test_correlated_index_is_rebuilt_per_binding(
            self, xml, query, expected):
        document = parse_document(xml)
        assert query_truth(query, document) is expected
        assert query_truth_planned(query, document) is expected


class TestExplain:
    def test_explain_shows_order_and_cardinalities(self, documents):
        text = explain_query(QUERIES[0], documents)
        assert "some quantifier" in text
        assert "$Ir in //rev" in text
        assert "est~" in text
        assert "examined=" in text
        assert text.endswith("verdict: false")

    def test_explain_marks_hash_joins(self, documents):
        text = explain_query(QUERIES[2], documents)
        assert "[hash join]" in text

    def test_conflict_full_queries_probe_key_filtered_steps(
            self, documents):
        # one name per rev: $R is bound second, est~1; each key-
        # filtered child step (auts by $R, aut by $R) is an index probe
        # grouped by parent, not an expansion filtered afterwards
        first, second = (explain_query(query.prepared, documents)
                         for query in SCHEMA.constraints[0].full_queries)
        for text in (first, second):
            assert "  2. $R in $Ir/name/text()  [correlated scan]  est~1 " \
                in text
        assert "$Ia in $Is/auts  [correlated probe]" in first
        assert "$Ia3 in $Ip/aut  [correlated probe]" in second
        assert "$Ia in $Is/auts  [correlated scan]" in second

    def test_cli_explain_runs(self, capsys):
        from repro import cli
        import os
        corpus = os.path.join(os.path.dirname(__file__), "..",
                              "examples", "corpus")
        code = cli.main([
            "explain",
            "--dtd", os.path.join(corpus, "pub.dtd"),
            "--dtd", os.path.join(corpus, "rev.dtd"),
            "--constraints-file",
            os.path.join(corpus, "constraints.txt"),
            os.path.join(corpus, "submission.xml"),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "quantifier" in out
        assert "est~" in out


#: the key path both mid-update expressions probe ``//sub`` by
_SUB_TITLE = (("child", "title"), ("child", "text()"))


def _mid_update_expressions(title):
    """The same witness question as a quantifier and as a value-index
    probe step."""
    return [
        parse_query("some $x in //sub satisfies "
                    f"$x/title/text() = '{title}'"),
        parse_query(f"exists(//sub[title/text() = '{title}'])"),
    ]


def _mid_update_documents(guarded):
    documents = _fresh_documents()
    if guarded:
        IntegrityGuard(SCHEMA, documents)
    return documents


def _assert_indexes_settled(documents):
    """The served ``PathIndex`` equals a cold rebuild and files every
    element once, attached to its document."""
    for document in documents:
        assert verify(document) == []
        index = value_index(document, "sub", _SUB_TITLE)
        for bucket in index.buckets.values():
            elements = list(bucket.values())
            assert len({id(element) for element in elements}) \
                == len(elements)
            assert all(element.document is document
                       for element in elements)


@pytest.mark.parametrize("guarded", [True, False],
                         ids=["guard-attached", "bare"])
class TestMidUpdateIndexes:
    def test_rejected_mid_update_rebuild_is_dropped(self, guarded):
        # a check evaluated while an update is partially applied sees
        # the inserted nodes; after the update rolls back those nodes
        # are detached, and no index may resurrect them as phantom
        # witnesses
        documents = _mid_update_documents(guarded)
        rev_doc = documents[1]
        operation = parse_modifications(
            submission_xupdate(1, 1, "Phantom", "Nobody Known"))[0]
        for expression in _mid_update_expressions("Phantom"):
            assert query_truth_planned(expression, documents) is False
            with TransactionLog() as log:
                log.apply(rev_doc, operation)
                assert query_truth_planned(expression, documents) \
                    is True
                log.rollback()
            assert query_truth(expression, documents) is False
            assert query_truth_planned(expression, documents) is False
        _assert_indexes_settled(documents)

    def test_applied_mid_update_rebuild_is_dropped(self, guarded):
        # a check evaluated after the update's first operation already
        # saw that operation's elements; committing the whole update
        # must not file them twice
        documents = _mid_update_documents(guarded)
        rev_doc = documents[1]
        operations = parse_modifications(_multi_submission([
            (1, 2, "Dup", "Nobody A"), (2, 1, "Dup", "Nobody B")]))
        expressions = _mid_update_expressions("Dup")
        for expression in expressions:
            assert query_truth_planned(expression, documents) is False
        with TransactionLog() as log:
            log.apply(rev_doc, operations[0])
            for expression in expressions:
                assert query_truth_planned(expression, documents) \
                    is True
            log.apply(rev_doc, operations[1])
            log.commit()
        for expression in expressions:
            assert query_truth_planned(expression, documents) is True
            assert query_truth(expression, documents) is True
        _assert_indexes_settled(documents)


class TestIndexedSteps:
    def test_indexed_descendant_step_matches_walk(self, documents):
        from repro.xquery.engine import evaluate_query
        indexed = evaluate_query("//rev", documents)
        walked = [element
                  for document in documents
                  for element in document.root.iter_elements("rev")]
        assert indexed == walked

    def test_indexed_predicated_step_matches_walk(self, documents):
        from repro.xquery.engine import evaluate_query
        indexed = evaluate_query(
            "//rev[name/text() = 'Alice']", documents)
        assert [element.tag for element in indexed] == ["rev", "rev"]
        walked = [element
                  for document in documents
                  for element in document.root.iter_elements("rev")
                  if any(child.text() == "Alice"
                         for child in element.children
                         if isinstance(child, Element)
                         and child.tag == "name")]
        assert indexed == walked


class TestJoinDiscount:
    def test_join_is_discounted_by_the_key_paths_distinct_values(
            self, documents):
        # $a joins on aut/name/text(): 5 auts over 4 names, so a probe
        # returns 1.25 elements — fewer than the 4/3 subs per rev.  The
        # direct text of ``aut`` (element-only, one empty value) would
        # leave the join undiscounted at 5.
        query = parse_query(
            "some $r in //rev, $s in $r/sub, $a in //aut "
            "satisfies $a/name/text() = $r/name/text()")
        assert _choose_order(query, Statistics(tuple(documents))) \
            == (0, 2, 1)
        assert query_truth_planned(query, documents) \
            == query_truth(query, documents)


def _gate_document(shared):
    """One ``d`` with one ``e`` keyed ``x``, next to 1,000 more ``e``
    keyed ``x`` too (``shared``) or each by its own value."""
    keys = "".join(f"<e><k>{'x' if shared else f'v{i}'}</k></e>"
                   for i in range(1000))
    return parse_document(f"<r><d><e><k>x</k></e></d><o>{keys}</o></r>")


class TestCorrelatedProbeGate:
    QUERY = "some $d in //d, $e in $d/e satisfies $e/k/text() = 'x'"

    @pytest.mark.parametrize("shared, kind", [
        # a key shared by 1,001 elements: probing would touch 1,001
        # to find the one child a one-row frontier expands to
        (True, "correlated scan"),
        # a key held by one element: the probe touches one
        (False, "correlated probe"),
    ], ids=["hits-exceed-fan-out", "hits-within-fan-out"])
    def test_gate_compares_key_hits_with_fan_out(self, shared, kind):
        document = _gate_document(shared)
        text = explain_query(self.QUERY, document)
        # fan-out 1: the one e under the one d, not 1,001 e per d
        assert f"$e in $d/e  [{kind}]  est~1 " in text
        assert text.endswith("verdict: true")
        assert query_truth(self.QUERY, document) is True


class TestCorrelatedProbeFallback:
    def test_parent_outside_the_runtime_documents_expands(self, pub_doc):
        # a parent in no runtime document has no index to ask: its row
        # expands and filters, and agrees with the probed rows
        from repro.xquery import columnar
        steps = (("child", "name"), ("child", "text()"))
        op = columnar._Probe(
            "a", "p", "aut", steps,
            columnar._SideConst(lambda rt: [UntypedAtomic("Carol")]))
        attached = pub_doc.elements_by_tag("pub")
        detached = parse_document(PUB_XML).elements_by_tag("pub")
        rt = columnar.Runtime((pub_doc,), {})
        take, values = op.expand(rt, {"p": attached + detached}, 6)
        assert take == [1, 2, 4, 5]
        assert [aut.document is pub_doc for aut in values] \
            == [True, True, False, False]
        assert {aut.first_child("name").text() for aut in values} \
            == {"Carol"}
