"""Columnar relation storage: units and maintenance differentials.

Covers the two layers of the columnar backend separately from query
evaluation (:mod:`tests.test_columnar` owns the verdict
differentials):

* :class:`~repro.relational.columns.TagTable` /
  :class:`~repro.relational.columns.PathIndex` row/key maintenance
  (swap-remove, position refresh, rekeying) and the
  :func:`~repro.relational.columns.chain_reaches` reachability filter;
* :class:`~repro.relational.incremental.ColumnStore` delta
  maintenance under a seeded mixed update workload (the faultcheck
  harness's step vocabulary), asserting after every step that the
  incrementally-patched columns equal a cold re-shred of the live
  documents;
* the write-ahead invalidation protocol: an injected fault inside the
  delta leaves the store dirty and the next read self-heals with a
  full rebuild.
"""

from __future__ import annotations

import random

import pytest

from repro.core.guard import IntegrityGuard
from repro.datagen.running_example import make_schema
from repro.relational.columns import (
    PathIndex,
    TagTable,
    chain_reaches,
)
from repro.relational.incremental import attach, detach, store_of
from repro.relational.shredder import iter_facts
from repro.testing import harness
from repro.testing.failpoints import fail
from repro.xquery import parse_query
from repro.xquery.engine import query_truth
from repro.xquery.optimizer import probe_keys
from repro.xquery.values import UntypedAtomic
from repro.xquery.planner import query_truth_planned
from repro.xtree.node import Document, Element, Text
from repro.xtree.parser import parse_document

NAME_TEXT = (("child", "name"), ("child", "text()"))

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
    # attaching through the guard is the production path
    IntegrityGuard(schema, [pub, rev])
    return pub, rev


class TestChainReaches:
    def test_direct_child_mutation_always_reaches(self):
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


class TestTagTable:
    def _table(self, document: Document, schema, tag: str) -> TagTable:
        store = store_of(document)
        assert store is not None
        return store.table(tag)

    def test_rows_match_cold_shred(self, documents, schema):
        pub, _rev = documents
        table = self._table(pub, schema, "pub")
        shredded = sorted(row for fact_tag, row in
                          iter_facts(pub, schema.relational)
                          if fact_tag == "pub")
        assert sorted(table.rows()) == shredded

    def test_swap_remove_keeps_row_map_consistent(self, documents,
                                                  schema):
        pub, _rev = documents
        table = self._table(pub, schema, "aut")
        elements = list(table.elements)
        assert len(elements) == 3
        # discard a *middle* row: the last row must swap in
        victim = table.elements[0]
        table.discard(victim)
        assert len(table) == 2
        for row, element in enumerate(table.elements):
            assert table.row_of[element.node_id] == row
            assert table.ids[row] == element.node_id
        # discarding again is a no-op
        rows = table.rows()
        table.discard(victim)
        assert len(table) == 2
        assert table.rows() == rows

    def test_append_is_idempotent(self, documents, schema):
        pub, _rev = documents
        table = self._table(pub, schema, "pub")
        rows = table.rows()
        table.append(table.elements[0])
        assert len(table) == len(rows)
        assert table.rows() == rows

    def test_mutation_refreshes_positions(self, documents, schema):
        pub, _rev = documents
        table = self._table(pub, schema, "pub")
        first = pub.root.children[0]
        pub.root.remove(first)
        # the store listener repositions the remaining siblings
        rows = {element: table.pos[table.row_of[element.node_id]]
                for element in table.elements}
        for element, position in rows.items():
            assert position == element.child_position

    def test_value_columns_follow_text_mutations(self, documents,
                                                 schema):
        _pub, rev = documents
        store = store_of(rev)
        assert store is not None
        table = store.table("rev")
        rev_el = table.elements[0]
        name = rev_el.first_child("name")
        assert name is not None
        old_text = name.children[0]
        name.remove(old_text)
        name.append(Text("Zoé"))
        row = table.row_of[rev_el.node_id]
        assert table.values["name"][row] == "Zoé"
        assert store.verify() == []


class TestPathIndex:
    def test_probe_roundtrip(self, documents, schema):
        _pub, rev = documents
        store = store_of(rev)
        assert store is not None
        index = store.value_index("rev", NAME_TEXT)
        (key,) = probe_keys(["Alice"])
        assert [el.tag for el in index.probe(key)] == ["rev"]
        (absent,) = probe_keys(["Nobody"])
        assert index.probe(absent) == []

    def test_rekey_moves_buckets(self, documents, schema):
        _pub, rev = documents
        store = store_of(rev)
        assert store is not None
        index = store.value_index("rev", NAME_TEXT)
        rev_el = rev.elements_by_tag("rev")[0]
        name = rev_el.first_child("name")
        assert name is not None
        name.remove(name.children[0])
        name.append(Text("Brianna"))
        # the mutation listener rekeys through chain_reaches
        (old_key,) = probe_keys(["Alice"])
        (new_key,) = probe_keys(["Brianna"])
        assert index.probe(old_key) == []
        assert index.probe(new_key) == [rev_el]
        assert store.verify() == []

    def test_element_valued_index_follows_text_mutations(
            self, documents, schema):
        _pub, rev = documents
        store = store_of(rev)
        assert store is not None
        index = store.value_index("rev", (("child", "name"),))
        rev_el = rev.elements_by_tag("rev")[0]
        name = rev_el.first_child("name")
        assert name is not None
        name.remove(name.children[0])
        name.append(Text("Brianna"))
        (key,) = probe_keys(["Brianna"])
        assert index.probe(key) == [rev_el]
        assert store.verify() == []

    def test_discard_unbuckets(self):
        index = PathIndex("aut", NAME_TEXT)
        aut = Element("aut")
        aut.append(_text_el("name", "Ann"))
        Document(Element("root")).root.append(aut)  # assign node ids
        index.add(aut)
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


class TestWorkloadDifferential:
    """Satellite: incrementally-maintained columns equal a cold
    re-shred after every accepted update of a seeded mixed workload
    (the faultcheck harness's step vocabulary, fault-free)."""

    @pytest.mark.parametrize("seed", [11, 29])
    def test_columns_track_mixed_workload(self, seed):
        pub_doc, rev_doc = harness._fresh_corpus(seed)
        _, twin_rev = harness._fresh_corpus(seed)
        schema = make_schema()
        guard = IntegrityGuard(schema, [pub_doc, rev_doc])
        # materialize the structures the planner would use, plus one
        # table per document, so the workload exercises real deltas
        for document in (pub_doc, rev_doc):
            store = store_of(document)
            assert store is not None
            store.table(document.root.tag)
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
                store = store_of(document)
                assert store is not None
                assert store.verify() == [], (seed, kind)
        assert accepted > 0  # the workload really mutated state


class TestCrashConsistency:
    def test_delta_fault_leaves_dirty_then_self_heals(self, documents):
        _pub, rev = documents
        store = store_of(rev)
        assert store is not None
        store.table("rev")
        failures = store.delta_failures
        rebuilds = store.rebuilds
        with fail.armed({"columns.delta.apply": "count:1"}) as armed:
            rev.elements_by_tag("track")[0].append(
                _text_el("name", "Ghost"))
            armed.assert_fired("columns.delta.apply")
        assert store.delta_failures == failures + 1
        assert store.dirty
        # the next read rebuilds from the DOM and is consistent again
        table = store.table("rev")
        assert store.rebuilds == rebuilds + 1
        assert not store.dirty
        assert len(table) == len(rev.elements_by_tag("rev"))
        assert store.verify() == []

    def test_fault_in_rebuild_keeps_store_dirty(self, documents):
        _pub, rev = documents
        store = store_of(rev)
        assert store is not None
        store.table("rev")
        with fail.armed({"columns.delta.settle": "count:1",
                         "columns.rebuild": "count:1"}) as armed:
            rev.elements_by_tag("track")[0].append(
                _text_el("name", "Ghost"))
            with pytest.raises(Exception):
                store.table("rev")  # rebuild itself crashes
            armed.assert_fired("columns.delta.settle",
                               "columns.rebuild")
        assert store.dirty  # swap never happened
        store.table("rev")  # second read succeeds
        assert store.verify() == []

    def test_value_index_fault_degrades_to_per_evaluation_map(
            self, documents):
        # a planned probe whose store crashes while rebuilding answers
        # from a throw-away map over the DOM — the unplanned engine's
        # verdict — and leaves the store dirty to heal on a later read
        pub, rev = documents
        store = store_of(rev)
        assert store is not None
        probe = parse_query("exists(//rev[name/text() = 'Ghost'])")
        assert query_truth_planned(probe, [pub, rev]) is False
        ghost = Element("rev")
        ghost.append(_text_el("name", "Ghost"))
        with fail.armed({"columns.delta.apply": "count:1",
                         "columns.rebuild": "count:1"}) as armed:
            rev.elements_by_tag("track")[0].append(ghost)
            assert query_truth_planned(probe, [pub, rev]) is True
            armed.assert_fired("columns.delta.apply", "columns.rebuild")
        assert query_truth(probe, [pub, rev]) is True
        assert store.dirty
        assert query_truth_planned(probe, [pub, rev]) is True
        assert not store.dirty
        assert store.verify() == []

    def test_unmaterialized_store_stays_trivially_synced(self):
        document = parse_document("<zoo><animal/></zoo>")
        store = attach(document)
        document.root.append(Element("animal"))
        assert not store.dirty
        assert store.rebuilds == 0


class TestAttachDetach:
    def test_attach_reuses_equivalent_store(self, documents, schema):
        pub, _rev = documents
        store = store_of(pub)
        assert attach(pub, schema.relational) is store
        assert attach(pub) is store  # schema-less reuse

    def test_detach_stops_maintenance(self, documents, schema):
        pub, _rev = documents
        store = store_of(pub)
        assert store is not None
        table = store.table("pub")
        count = len(table)
        detach(pub)
        assert store_of(pub) is None
        pub.root.append(Element("pub"))
        assert len(table) == count  # listener removed
