"""Snapshot isolation: the MVCC-lite read path and its guarantees.

Three layers of coverage:

* :class:`~repro.xtree.node.Document.clone` — the copy-on-write
  substrate: structural equality, node-id preservation, and the
  frozen-document immutability contract;
* :class:`~repro.service.SnapshotManager` — publication, pinning,
  copy-on-write reuse, invalidation/repair and epoch reclamation;
* :class:`~repro.service.CheckingService` read paths — differential
  tests against a sequential oracle, pinned-view stability across
  commits, and the headline regression: a long-running read never
  blocks a writer and a writer holding the store lock never blocks a
  snapshot read.
"""

from __future__ import annotations

import string
import threading

import pytest
from hypothesis import given, strategies as st

from repro.core import IntegrityGuard
from repro.core.guard import verify_documents
from repro.datagen.running_example import make_schema, submission_xupdate
from repro.errors import FrozenDocumentError
from repro.service import CheckingService, SnapshotManager
from repro.xtree import parse_document, serialize
from repro.xtree.node import Document, Element, Text
from tests.conftest import PUB_XML, REV_XML


@pytest.fixture(scope="module")
def schema():
    return make_schema()


def fresh_documents():
    return [parse_document(PUB_XML), parse_document(REV_XML)]


# ---------------------------------------------------------------------------
# Document.clone / freeze
# ---------------------------------------------------------------------------

_tag = st.sampled_from(["a", "b", "item", "node"])
_text = st.text(alphabet=string.ascii_letters + " ",
                min_size=1, max_size=8).filter(lambda s: s.strip())


def _elements(depth: int):
    children = st.lists(
        st.one_of(
            st.builds(Text, _text),
            _elements(depth - 1) if depth > 0 else st.builds(Text, _text),
        ),
        max_size=3,
    )
    return st.builds(_build, _tag,
                     st.dictionaries(st.sampled_from(["k", "id"]),
                                     _text, max_size=2),
                     children)


def _build(tag, attrs, kids):
    element = Element(tag, attrs)
    for kid in kids:
        element.append(kid)
    return element


documents_strategy = _elements(2).map(Document)


class TestDocumentClone:
    def test_clone_serializes_identically(self):
        document = parse_document(PUB_XML)
        clone = document.clone()
        assert serialize(clone) == serialize(document)
        assert clone.frozen and not document.frozen
        assert clone.uid != document.uid

    def test_clone_preserves_node_ids(self):
        document = parse_document(REV_XML)
        clone = document.clone()
        originals = {n.node_id for n in document.root.iter()}
        copies = {n.node_id for n in clone.root.iter()}
        assert originals == copies
        # id-indexed lookup works on the clone exactly as on the source
        for node_id in originals:
            found = clone.node_by_id(node_id)
            assert found is not None
            assert found.node_id == node_id

    def test_frozen_clone_rejects_structural_mutation(self):
        clone = parse_document(PUB_XML).clone()
        with pytest.raises(FrozenDocumentError):
            clone.adopt(Element("pub"))
        with pytest.raises(FrozenDocumentError):
            clone.orphan(clone.root.element_children()[0])

    def test_unfrozen_clone_allocates_ids_above_source(self):
        document = parse_document(PUB_XML)
        clone = document.clone(freeze=False)
        high_water = max(n.node_id for n in document.root.iter())
        extra = Element("pub")
        clone.root.append(extra)
        clone.adopt(extra)
        assert extra.node_id > high_water

    @given(documents_strategy)
    def test_clone_is_equal_and_independent(self, document):
        clone = document.clone()
        before = serialize(clone)
        assert before == serialize(document)
        # mutating the source must never reach the frozen clone
        extra = Element("added")
        document.root.append(extra)
        document.adopt(extra)
        assert serialize(clone) == before


# ---------------------------------------------------------------------------
# SnapshotManager
# ---------------------------------------------------------------------------

class TestSnapshotManager:
    def test_publish_pin_unpin_lifecycle(self):
        manager = SnapshotManager()
        documents = fresh_documents()
        published = manager.publish(documents)
        pinned = manager.pin()
        assert pinned is published
        assert pinned.version == 1
        assert manager.stats()["pins"] == {1: 1}
        manager.unpin(pinned)
        stats = manager.stats()
        assert stats["pins"] == {} and stats["retired"] == 0

    def test_copy_on_write_reuses_unchanged_documents(self):
        manager = SnapshotManager()
        documents = fresh_documents()
        manager.publish(documents)
        # mutate only the publication document; the review document's
        # (uid, revision) key is unchanged and its clone is reused
        extra = Element("pub")
        documents[0].root.append(extra)
        documents[0].adopt(extra)
        second = manager.publish(documents)
        stats = manager.stats()
        assert stats["cloned"] == 3  # 2 at first publish + 1 changed
        assert stats["reused"] == 1
        first = manager.pin()
        assert first is second
        manager.unpin(first)

    def test_retired_version_survives_until_unpinned(self):
        manager = SnapshotManager()
        documents = fresh_documents()
        manager.publish(documents)
        old = manager.pin()
        manager.publish(documents)  # supersedes v1 while it is pinned
        assert manager.stats()["retired"] == 1
        assert serialize(old.documents[0])  # still fully usable
        manager.unpin(old)
        stats = manager.stats()
        assert stats["retired"] == 0
        assert stats["reclaimed"] == 1

    def test_invalidate_forces_repair(self):
        manager = SnapshotManager()
        documents = fresh_documents()
        manager.publish(documents)
        manager.invalidate()
        assert manager.pin() is None  # dirty: no lock-free snapshot
        repaired = manager.repair(documents)
        stats = manager.stats()
        assert not stats["dirty"]
        assert stats["repairs"] == 1
        assert stats["pins"] == {repaired.version: 1}
        manager.unpin(repaired)
        # clean again: the fast path is back
        assert manager.pin() is not None

    def test_repair_fast_path_pins_published(self):
        manager = SnapshotManager()
        documents = fresh_documents()
        published = manager.publish(documents)
        pinned = manager.repair(documents)
        assert pinned is published
        assert manager.stats()["repairs"] == 0
        manager.unpin(pinned)


# ---------------------------------------------------------------------------
# Service read paths
# ---------------------------------------------------------------------------

class TestServiceSnapshotReads:
    def test_reads_match_sequential_oracle(self, schema):
        service = CheckingService(schema, fresh_documents())
        oracle = IntegrityGuard(schema, fresh_documents())
        assert service.snapshot() == \
            [serialize(d) for d in oracle.documents]
        for index in range(6):
            update = submission_xupdate(
                1 + index % 2, 1, f"T{index}", f"Author {index}")
            decision = service.try_execute(update)
            assert decision.applied
            assert oracle.try_execute(update).applied
            assert service.snapshot() == \
                [serialize(d) for d in oracle.documents]
            assert service.verify_consistency() == []
            assert service.verify_consistency_locked() == []

    def test_pinned_view_is_immune_to_later_commits(self, schema):
        service = CheckingService(schema, fresh_documents())
        with service.read_view() as view:
            before = [serialize(d) for d in view.documents]
            decision = service.try_execute(
                submission_xupdate(1, 1, "New", "New Author"))
            assert decision.applied
            # the pinned view still shows the pre-commit state...
            assert [serialize(d) for d in view.documents] == before
        # ...and a fresh read sees the commit
        assert service.snapshot() != before

    def test_snapshot_documents_are_frozen(self, schema):
        service = CheckingService(schema, fresh_documents())
        with service.read_view() as view:
            with pytest.raises(FrozenDocumentError):
                view.documents[0].adopt(Element("pub"))

    def test_read_view_documents_satisfy_schema(self, schema):
        service = CheckingService(schema, fresh_documents())
        with service.read_view() as view:
            assert verify_documents(schema, list(view.documents)) == []

    def test_explain_reports_every_live_constraint(self, schema):
        service = CheckingService(schema, fresh_documents())
        reports = service.explain()
        assert reports
        assert all(report.startswith("constraint ")
                   for report in reports)

    def test_locked_mode_still_works(self, schema):
        service = CheckingService(schema, fresh_documents(),
                                  snapshot_reads=False)
        assert service.snapshots.stats()["publishes"] == 0
        decision = service.try_execute(
            submission_xupdate(1, 1, "T", "A"))
        assert decision.applied
        assert service.verify_consistency() == []
        with service.read_view() as view:
            assert len(view.documents) == 2
            assert view.version == 0  # live documents, not a snapshot

    def test_writer_fault_invalidates_then_reads_repair(self, schema):
        from repro.testing.failpoints import fail

        service = CheckingService(schema, fresh_documents())
        with fail.armed("service.store.pre_commit_append=count:1"):
            with pytest.raises(Exception):
                service.try_execute(
                    submission_xupdate(1, 1, "Doomed", "Author X"))
        assert service.snapshots.stats()["dirty"]
        # the read path repairs from the live (rolled-back) tree
        assert service.verify_consistency() == []
        stats = service.snapshots.stats()
        assert not stats["dirty"] and stats["repairs"] == 1


class TestNoBlockingRegression:
    def test_long_running_read_does_not_block_writer(self, schema):
        service = CheckingService(schema, fresh_documents())
        view_held = threading.Event()
        release = threading.Event()
        outcome: list = []

        def reader():
            with service.read_view():
                view_held.set()
                assert release.wait(timeout=10)

        def writer():
            outcome.append(service.try_execute(
                submission_xupdate(1, 1, "T", "A")))

        reader_thread = threading.Thread(target=reader)
        reader_thread.start()
        assert view_held.wait(timeout=5)
        writer_thread = threading.Thread(target=writer)
        writer_thread.start()
        # the writer must finish while the read view is still open
        writer_thread.join(timeout=5)
        assert not writer_thread.is_alive(), \
            "writer blocked behind an open read view"
        assert outcome and outcome[0].applied
        release.set()
        reader_thread.join(timeout=5)
        assert not reader_thread.is_alive()

    def test_reads_proceed_while_writer_holds_store_lock(self, schema):
        service = CheckingService(schema, fresh_documents())
        locked = threading.Event()
        release = threading.Event()

        def slow_writer():
            with service.store.write_locked():
                locked.set()
                assert release.wait(timeout=10)

        writer_thread = threading.Thread(target=slow_writer)
        writer_thread.start()
        assert locked.wait(timeout=5)
        results: list = []

        def reads():
            results.append(service.verify_consistency())
            results.append(service.snapshot())

        reader_thread = threading.Thread(target=reads)
        reader_thread.start()
        # both reads complete while the write lock is held: the
        # snapshot path never touches the store lock
        reader_thread.join(timeout=5)
        assert not reader_thread.is_alive(), \
            "snapshot read blocked behind the store write lock"
        assert results[0] == [] and len(results[1]) == 2
        release.set()
        writer_thread.join(timeout=5)


@pytest.mark.stress
@pytest.mark.slow
class TestSnapshotDifferentialStress:
    def test_concurrent_readers_see_committed_prefixes(self, schema):
        """Every concurrent view equals some sequential-oracle prefix.

        One writer applies a deterministic update sequence; each
        reader repeatedly pins a view and matches it byte-for-byte
        against the oracle state with the same number of commits —
        never a torn or intermediate state.
        """
        updates = [submission_xupdate(1 + i % 2, 1, f"T{i}", f"A {i}")
                   for i in range(30)]
        oracle = IntegrityGuard(schema, fresh_documents())
        states = {0: [serialize(d) for d in oracle.documents]}
        for count, update in enumerate(updates, start=1):
            assert oracle.try_execute(update).applied
            states[count] = [serialize(d) for d in oracle.documents]
        marker = "<title>T"  # one per committed submission

        service = CheckingService(schema, fresh_documents())
        done = threading.Event()
        errors: list[BaseException] = []

        def reader():
            try:
                while not done.is_set():
                    with service.read_view() as view:
                        serialized = [serialize(d)
                                      for d in view.documents]
                    count = sum(s.count(marker) for s in serialized)
                    assert serialized == states[count], \
                        f"view is not the {count}-commit prefix"
            except BaseException as error:  # noqa: B036 - reported
                errors.append(error)

        readers = [threading.Thread(target=reader) for _ in range(4)]
        for thread in readers:
            thread.start()
        try:
            for update in updates:
                assert service.try_execute(update).applied
        finally:
            done.set()
            for thread in readers:
                thread.join(timeout=30)
        assert not errors, errors
        assert service.snapshot() == states[len(updates)]
        stats = service.snapshots.stats()
        assert stats["pins"] == {} and stats["retired"] == 0
        assert stats["reused"] > 0  # copy-on-write did its job


@pytest.mark.fault
class TestSnapshotFaultSchedules:
    def test_mvcc_schedule_holds_invariants(self):
        from repro.testing.harness import run_scenario

        report = run_scenario(5, "mvcc", ops=30)
        assert report.faults_fired > 0

    def test_read_heavy_mix_exercises_pin_faults(self):
        from repro.testing.harness import run_scenario

        report = run_scenario(7, "mvcc", ops=30, mix="read-heavy")
        assert report.mix == "read-heavy"
        hits, fires = report.site_counts.get(
            "service.snapshots.pin", (0, 0))
        assert fires > 0
        assert "--mix read-heavy" in report.repro_command

    def test_unknown_mix_rejected(self):
        from repro.testing.harness import run_scenario

        with pytest.raises(ValueError):
            run_scenario(1, "mvcc", ops=10, mix="nope")
