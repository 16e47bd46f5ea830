"""Value indexes of the columnar backend: units and maintenance
differentials.

Covers the two layers of the columnar backend separately from query
evaluation (:mod:`tests.test_columnar` owns the verdict
differentials):

* :class:`~repro.relational.columns.PathIndex` key maintenance
  (add, discard, rekeying) and the
  :func:`~repro.relational.columns.chain_reaches` reachability filter;
* the documents' value-index delta maintenance
  (:meth:`~repro.xtree.node.Document._patch_value_indexes`) under a
  seeded mixed update workload (the faultcheck harness's step
  vocabulary) and under random element/text appends and removes (a
  hypothesis property), asserting after every step that the
  incrementally-patched indexes equal a cold rebuild over the live
  documents;
* exact deltas: a ``sub`` append or remove rekeys no index entry, and
  its key computations do not grow with the corpus;
* the write-ahead invalidation protocol: an injected fault inside the
  delta leaves the indexes dirty and the next read self-heals with a
  full rebuild;
* documents no checker wraps: planned queries build each index once
  and keep it exact.
"""

from __future__ import annotations

import random
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.guard import IntegrityGuard
from repro.datagen import generate_corpus, spec_for_size
from repro.datagen.running_example import make_schema, submission_xupdate
from repro.datagen.workload import _normal_reviewer_targets
from repro.relational.columns import (
    PathIndex,
    chain_reaches,
    value_index,
    verify,
)
from repro.service.store import CheckingService
from repro.testing import harness
from repro.testing.failpoints import FailPointError, fail
from repro.xquery import parse_query
from repro.xquery.engine import query_truth
from repro.xquery.optimizer import probe_keys
from repro.xquery.values import UntypedAtomic
from repro.xquery.planner import explain_query, query_truth_planned
from repro.xtree.node import Document, Element, Text
from repro.xtree.parser import parse_document

NAME_TEXT = (("child", "name"), ("child", "text()"))
REV_NAME_TEXT = (("child", "rev"),) + NAME_TEXT

PUB_XML = """<dblp>
 <pub><title>Duckburg tales</title>
   <aut><name>Alice</name></aut><aut><name>Bob</name></aut></pub>
 <pub><title>Mouseton stories</title>
   <aut><name>Carol</name></aut></pub>
</dblp>"""

REV_XML = """<review>
 <track><name>Theory</name>
  <rev><name>Alice</name>
   <sub><title>Streams</title><auts><name>Erin</name></auts></sub>
  </rev>
 </track>
</review>"""


def _text_el(tag: str, value: str) -> Element:
    element = Element(tag)
    element.append(Text(value))
    return element


@pytest.fixture
def schema():
    return make_schema()


@pytest.fixture
def documents(schema):
    pub = parse_document(PUB_XML)
    rev = parse_document(REV_XML)
    # a guard wraps the documents on the production path
    IntegrityGuard(schema, [pub, rev])
    return pub, rev


def _dirty(document: Document) -> bool:
    return document.indexes_revision != document.revision


class TestChainReaches:
    def test_direct_child_mutation_always_reaches(self):
        # text among the owner's children: a text node adds no entry
        assert chain_reaches(NAME_TEXT, ())

    def test_chain_spelled_by_steps_reaches(self):
        assert chain_reaches(NAME_TEXT, ("name",))

    def test_chain_diverging_from_steps_is_skipped(self):
        assert not chain_reaches(NAME_TEXT, ("sub",))

    def test_chain_deeper_than_steps_is_skipped(self):
        # mutation below name/text() depth cannot change the atoms
        assert not chain_reaches(NAME_TEXT, ("name", "text()"))
        assert not chain_reaches(NAME_TEXT, ("name", "x", "y"))

    def test_attribute_steps_never_match_an_element_chain(self):
        steps = (("attribute", "year"),)
        assert chain_reaches(steps, ())
        assert not chain_reaches(steps, ("year",))

    def test_element_valued_steps_reach_into_their_subtree(self):
        # the key of ``rev/name`` is name's string value: a mutation
        # inside name (or deeper) changes it
        steps = (("child", "name"),)
        assert chain_reaches(steps, ("name",))
        assert chain_reaches(steps, ("name", "x"))
        assert not chain_reaches(steps, ("sub",))

    def test_chain_ends_at_the_mutated_element(self):
        # a sub added under a rev spells rev/sub at the track: its
        # rev/name/text() keys cannot see it
        assert not chain_reaches(REV_NAME_TEXT, ("rev", "sub"))
        # an adopted name element is what name/text() selects through
        assert chain_reaches(REV_NAME_TEXT, ("rev", "name"))
        # a rev adopted under the track (or text under a rev) reaches
        assert chain_reaches(REV_NAME_TEXT, ("rev",))


class TestPathIndex:
    def test_probe_roundtrip(self, documents, schema):
        _pub, rev = documents
        index = value_index(rev, "rev", NAME_TEXT)
        (key,) = probe_keys(["Alice"])
        assert [el.tag for el in index.probe(key)] == ["rev"]
        (absent,) = probe_keys(["Nobody"])
        assert index.probe(absent) == []

    def test_rekey_moves_buckets(self, documents, schema):
        _pub, rev = documents
        index = value_index(rev, "rev", NAME_TEXT)
        rev_el = rev.elements_by_tag("rev")[0]
        name = rev_el.first_child("name")
        assert name is not None
        name.remove(name.children[0])
        name.append(Text("Brianna"))
        # the document's delta rekeys through chain_reaches
        (old_key,) = probe_keys(["Alice"])
        (new_key,) = probe_keys(["Brianna"])
        assert index.probe(old_key) == []
        assert index.probe(new_key) == [rev_el]
        assert verify(rev) == []

    def test_element_valued_index_follows_text_mutations(
            self, documents, schema):
        _pub, rev = documents
        index = value_index(rev, "rev", (("child", "name"),))
        rev_el = rev.elements_by_tag("rev")[0]
        name = rev_el.first_child("name")
        assert name is not None
        name.remove(name.children[0])
        name.append(Text("Brianna"))
        (key,) = probe_keys(["Brianna"])
        assert index.probe(key) == [rev_el]
        assert verify(rev) == []

    def test_discard_unbuckets(self):
        index = PathIndex("aut", NAME_TEXT)
        aut = Element("aut")
        aut.append(_text_el("name", "Ann"))
        Document(Element("root")).root.append(aut)  # assign node ids
        index.add(aut)
        index.add(aut)  # adding again is a no-op
        (key,) = probe_keys(["Ann"])
        assert index.probe(key) == [aut]
        index.discard(aut)
        assert index.probe(key) == []
        assert len(index) == 0

    def test_numeric_spellings_stay_apart(self):
        # indexed text is untyped: it meets an untyped probe on its
        # text and a numeric probe on its value
        index = PathIndex("aut", NAME_TEXT)
        root = Document(Element("root")).root
        auts = []
        for spelling in ("1", "1.0"):
            aut = Element("aut")
            aut.append(_text_el("name", spelling))
            root.append(aut)
            index.add(aut)
            auts.append(aut)

        def probe(value):
            return [element for key in probe_keys([value])
                    for element in index.probe(key)]

        assert probe(UntypedAtomic("1")) == [auts[0]]
        assert probe(UntypedAtomic("1.0")) == [auts[1]]
        assert probe("1") == [auts[0]]
        assert probe(1) == auts


#: a root-tag index over the longest downpath of each document, so the
#: ancestor refresh sees chains as deep as the documents
DEEP_INDEXES = {
    "dblp": (("child", "pub"), ("child", "aut"), ("child", "name"),
             ("child", "text()")),
    "review": (("child", "track"), ("child", "rev"), ("child", "sub"),
               ("child", "auts"), ("child", "name"), ("child", "text()")),
}


class TestWorkloadDifferential:
    """Satellite: incrementally-maintained value indexes equal a cold
    rebuild after every accepted update of a seeded mixed workload
    (the faultcheck harness's step vocabulary, fault-free)."""

    @pytest.mark.parametrize("seed", [11, 29])
    def test_columns_track_mixed_workload(self, seed):
        pub_doc, rev_doc = harness._fresh_corpus(seed)
        _, twin_rev = harness._fresh_corpus(seed)
        schema = make_schema()
        guard = IntegrityGuard(schema, [pub_doc, rev_doc])
        # materialize a shallow and a deep index per document, so the
        # workload exercises real deltas and long ancestor chains
        for document in (pub_doc, rev_doc):
            value_index(document, "rev", NAME_TEXT)
            value_index(document, document.root.tag,
                        DEEP_INDEXES[document.root.tag])
        rng = random.Random(seed)
        accepted = 0
        for kind in harness._weighted_kinds(rng, 24):
            step = harness._make_step(kind, twin_rev, rng)
            if step is None:
                guard.verify_consistency()
            elif isinstance(step, list):
                decisions = guard.check_batch(step)
                accepted += sum(d.applied for d in decisions)
            else:
                try:
                    decision = guard.try_execute(step)
                except Exception:
                    decision = None  # bad-select style steps
                if decision is not None and decision.applied:
                    accepted += 1
            for document in (pub_doc, rev_doc):
                assert verify(document) == [], (seed, kind)
        assert accepted > 0  # the workload really mutated state


#: a review with every indexed tag at several depths, ``id``
#: attributes on its subs, and reviewer names that collide across
#: tracks so buckets hold more than one element
DELTA_XML = """<review>
 <track><name>Theory</name>
  <rev><name>Alice</name>
   <sub id="s1"><title>Streams</title><auts><name>Erin</name></auts></sub>
  </rev>
  <rev><name>Bob</name><sub id="s2"><title>Trees</title></sub></rev>
 </track>
 <track><name>Systems</name>
  <rev><name>Alice</name></rev>
 </track>
</review>"""

#: one index per downpath shape the document maintains: ending in
#: ``text()``, element-valued, on an attribute, and three steps deep
DELTA_INDEXES = [
    ("rev", NAME_TEXT),
    ("track", (("child", "rev"), ("child", "name"))),
    ("sub", (("attribute", "id"),)),
    ("track", REV_NAME_TEXT),
]

DELTA_TAGS = ["name", "rev", "sub", "other"]
DELTA_VALUES = ["Alice", "Bob", "Carol"]


def _delta_element(data) -> Element:
    """A small subtree whose root tag, text, ``id`` and one nested
    ``name`` child are drawn."""
    element = Element(data.draw(st.sampled_from(DELTA_TAGS), label="tag"))
    if data.draw(st.booleans(), label="id"):
        element.attributes["id"] = data.draw(
            st.sampled_from(["s1", "s2", "s3"]))
    if data.draw(st.booleans(), label="text"):
        element.append(Text(data.draw(st.sampled_from(DELTA_VALUES))))
    if data.draw(st.booleans(), label="nested name"):
        element.append(
            _text_el("name", data.draw(st.sampled_from(DELTA_VALUES))))
    return element


def _delta_step(document: Document, data) -> None:
    """Apply one drawn append or remove of an element or a text node
    somewhere in ``document``."""
    elements = list(document.root.iter_elements())
    texts = [node for element in elements for node in element.children
             if isinstance(node, Text)]
    kinds = ["append element", "append text"]
    if len(elements) > 1:
        kinds.append("remove element")
    if texts:
        kinds.append("remove text")
    kind = data.draw(st.sampled_from(kinds), label="kind")
    if kind == "remove element":
        victim = data.draw(st.sampled_from(elements[1:]), label="victim")
        assert victim.parent is not None
        victim.parent.remove(victim)
    elif kind == "remove text":
        victim = data.draw(st.sampled_from(texts), label="victim")
        assert victim.parent is not None
        victim.parent.remove(victim)
    else:
        parent = data.draw(st.sampled_from(elements), label="parent")
        child = _delta_element(data) if kind == "append element" \
            else Text(data.draw(st.sampled_from(DELTA_VALUES)))
        position = data.draw(
            st.integers(0, len(parent.children)), label="position")
        parent.insert(position, child)


class TestExactDeltaProperty:
    """Random appends and removes of indexed and unindexed elements
    and of text at every depth leave every materialized index equal to
    a cold rebuild — the check that catches a reach test that is too
    tight."""

    @given(st.data())
    def test_random_mutations_keep_indexes_exact(self, data):
        document = parse_document(DELTA_XML)
        for tag, steps in DELTA_INDEXES:
            value_index(document, tag, steps)
        for _ in range(data.draw(st.integers(1, 12), label="steps")):
            _delta_step(document, data)
            # the delta itself kept the indexes in sync: no swallowed
            # fault and no rebuild to hide a missed rekey
            assert document.index_delta_failures == 0
            assert not _dirty(document)
            assert verify(document) == []


class TestExactDeltaCounts:
    """A ``sub`` append and its remove rekey nothing and compute the
    same number of keys at 32 KiB and at 512 KiB."""

    @staticmethod
    def _pair_counts(kib: int, monkeypatch) -> "list[dict[str, int]]":
        pub, rev = generate_corpus(
            replace(spec_for_size(kib * 1024), seed=1))
        service = CheckingService(make_schema(), [pub, rev])
        for tag, steps in (("rev", NAME_TEXT), ("track", REV_NAME_TEXT)):
            value_index(rev, tag, steps)
        track, rev_number, _ = _normal_reviewer_targets(rev)[0]
        subs = len(rev.root.element_children("track")[track - 1]
                   .element_children("rev")[rev_number - 1]
                   .element_children("sub"))
        removal = ('<xupdate:modifications version="1.0" '
                   'xmlns:xupdate="http://www.xmldb.org/xupdate">'
                   '<xupdate:remove select="/review/track'
                   f'[{track}]/rev[{rev_number}]/sub[{subs + 1}]"/>'
                   '</xupdate:modifications>')
        counts = {"rekey": 0, "compute": 0}
        for name in counts:
            method = getattr(PathIndex, name)

            def counted(self, element, _name=name, _method=method):
                counts[_name] += 1
                return _method(self, element)

            monkeypatch.setattr(PathIndex, name, counted)
        per_update = []
        for round_number in range(3):  # the first round warms caches
            for text in (submission_xupdate(
                    track, rev_number, f"Delta Sub {round_number}",
                    f"Delta Author {round_number}"), removal):
                counts.update(rekey=0, compute=0)
                assert service.try_execute(text).applied
                if round_number:
                    per_update.append(dict(counts))
        assert verify(rev) == []
        monkeypatch.undo()
        return per_update

    def test_sub_pair_is_size_independent(self, monkeypatch):
        small = self._pair_counts(32, monkeypatch)
        large = self._pair_counts(512, monkeypatch)
        assert all(counts["rekey"] == 0 for counts in small + large)
        assert [c["compute"] for c in small] \
            == [c["compute"] for c in large]


class TestCrashConsistency:
    def test_delta_fault_leaves_dirty_then_self_heals(self, documents):
        _pub, rev = documents
        value_index(rev, "rev", NAME_TEXT)
        failures = rev.index_delta_failures
        rebuilds = rev.index_rebuilds
        with fail.armed({"columns.delta.apply": "count:1"}) as armed:
            rev.elements_by_tag("track")[0].append(
                _text_el("name", "Ghost"))
            armed.assert_fired("columns.delta.apply")
        assert rev.index_delta_failures == failures + 1
        assert _dirty(rev)
        # the next read rebuilds from the DOM and is consistent again
        index = value_index(rev, "rev", NAME_TEXT)
        assert rev.index_rebuilds == rebuilds + 1
        assert not _dirty(rev)
        assert len(index) == len(rev.elements_by_tag("rev"))
        assert verify(rev) == []

    def test_fault_in_rebuild_keeps_store_dirty(self, documents):
        _pub, rev = documents
        value_index(rev, "rev", NAME_TEXT)
        with fail.armed({"columns.delta.settle": "count:1",
                         "columns.rebuild": "count:1"}) as armed:
            rev.elements_by_tag("track")[0].append(
                _text_el("name", "Ghost"))
            with pytest.raises(Exception):
                # the rebuild itself crashes
                value_index(rev, "rev", NAME_TEXT)
            armed.assert_fired("columns.delta.settle",
                               "columns.rebuild")
        assert _dirty(rev)  # swap never happened
        value_index(rev, "rev", NAME_TEXT)  # second read succeeds
        assert verify(rev) == []

    #: the same witness question as a value-index probe step and as a
    #: quantifier (a frontier plan)
    GHOST_QUERIES = [
        "exists(//rev[name/text() = 'Ghost'])",
        "some $r in //rev, $n in $r/name/text() satisfies $n = 'Ghost'",
        # a key-filtered child step: a correlated probe of the index
        "some $t in //track, $r in $t/rev "
        "satisfies $r/name/text() = 'Ghost'",
    ]

    def test_rebuild_fault_fails_the_check_then_heals(self, schema):
        # a planned check that hits a dirty document whose rebuild
        # crashes fails like any other injected fault; the indexes stay
        # dirty, and the next check rebuilds them and answers what the
        # reference engine answers
        for text in self.GHOST_QUERIES:
            pub = parse_document(PUB_XML)
            rev = parse_document(REV_XML)
            IntegrityGuard(schema, [pub, rev])
            query = parse_query(text)
            assert query_truth_planned(query, [pub, rev]) is False
            if "$t/rev" in text:
                assert "[correlated probe]" in explain_query(
                    query, [pub, rev])
            ghost = Element("rev")
            ghost.append(_text_el("name", "Ghost"))
            with fail.armed({"columns.delta.apply": "count:1",
                             "columns.rebuild": "count:1"}) as armed:
                rev.elements_by_tag("track")[0].append(ghost)
                with pytest.raises(FailPointError):
                    query_truth_planned(query, [pub, rev])
                armed.assert_fired("columns.delta.apply",
                                   "columns.rebuild")
            assert _dirty(rev)
            rebuilds = rev.index_rebuilds
            assert query_truth_planned(query, [pub, rev]) is True
            assert query_truth(query, [pub, rev]) is True
            assert rev.index_rebuilds == rebuilds + 1
            assert not _dirty(rev)
            assert verify(rev) == []

    def test_unmaterialized_store_stays_trivially_synced(self):
        document = parse_document("<zoo><animal/></zoo>")
        document.root.append(Element("animal"))
        assert not _dirty(document)
        assert document.index_rebuilds == 0
        assert document.value_indexes == {}


class TestDocumentOwnsItsIndexes:
    def test_second_checker_keeps_the_indexes(self, documents):
        # a second guard over the same documents serves the indexes
        # the first one's checks built: nothing rebuilds or replaces
        pub, rev = documents
        index = value_index(pub, "aut", NAME_TEXT)
        IntegrityGuard(make_schema(), [pub, rev])
        assert value_index(pub, "aut", NAME_TEXT) is index
        assert pub.index_rebuilds == 0

    #: planned queries that read value indexes: a probe step and a
    #: hash join
    BARE_QUERIES = [
        "exists(//aut[name/text() = 'Carol'])",
        "some $s in //sub, $p in //pub "
        "satisfies $s/title/text() = $p/title/text()",
    ]

    def test_bare_document_builds_each_index_once(self, monkeypatch):
        # no checker wraps the documents: repeated planned queries
        # build each index on the first read only, and the deltas keep
        # them exact across appends and removes
        pub = parse_document(PUB_XML)
        rev = parse_document(REV_XML)
        built: list[tuple] = []
        init = PathIndex.__init__

        def counting(self, tag, steps):
            built.append((tag, steps))
            init(self, tag, steps)

        monkeypatch.setattr(PathIndex, "__init__", counting)
        queries = [parse_query(text) for text in self.BARE_QUERIES]

        def verdicts() -> list[bool]:
            planned = [query_truth_planned(query, [pub, rev])
                       for query in queries]
            assert planned == [query_truth(query, [pub, rev])
                               for query in queries]
            return planned

        assert verdicts() == [True, False]
        first = list(built)
        # one build per (document, tag, downpath) the queries read
        assert first and len(first) == sum(
            len(by_steps) for document in (pub, rev)
            for by_steps in document.value_indexes.values())
        assert verdicts() == [True, False]
        assert built == first
        # a pub titled like the sub, by an aut that the aut index files
        added = Element("pub")
        added.append(_text_el("title", "Streams"))
        aut = Element("aut")
        aut.append(_text_el("name", "Zed"))
        added.append(aut)
        pub.root.append(added)
        (key,) = probe_keys(["Zed"])
        assert value_index(pub, "aut", NAME_TEXT).probe(key) == [aut]
        assert verdicts() == [True, True]
        pub.root.remove(added)
        assert value_index(pub, "aut", NAME_TEXT).probe(key) == []
        assert verdicts() == [True, False]
        assert built == first
        for document in (pub, rev):
            assert document.index_rebuilds == 0
            assert not _dirty(document)
            assert verify(document) == []
