"""Concurrency stress harness for the thread-safe checking service.

N writer threads hammer one shared :class:`CheckingService` with a mix
of legal updates, constraint-violating updates and updates whose select
fails, while readers run full consistency checks throughout.  The
assertions are the service's whole contract:

* no torn states — every read sees either none or all of an update,
  so concurrent readers see exactly the committed prefixes;
* ``verify_consistency()`` is clean at every point in time;
* the final store equals a *sequential oracle replay* of the commit
  log on fresh documents — concurrency changed nothing but the order.

Readers and writers alike run on the live tree under the store's one
mutex; there is no other read path.

Sized by ``REPRO_STRESS_THREADS`` × ``REPRO_STRESS_OPS`` (default
8 × 200, the ``make stress`` configuration).
"""

from __future__ import annotations

import os
import threading
import time

import pytest

from repro.core import IntegrityGuard
from repro.datagen.running_example import make_schema, submission_xupdate
from repro.errors import UpdateApplicationError
from repro.service import CheckingService
from repro.testing.failpoints import FailPointError, fail
from repro.xtree import parse_document, serialize
from tests.conftest import PUB_XML, REV_XML

THREADS = int(os.environ.get("REPRO_STRESS_THREADS", "8"))
OPS = int(os.environ.get("REPRO_STRESS_OPS", "200"))


@pytest.fixture(scope="module")
def schema():
    return make_schema()


def fresh_documents():
    return [parse_document(PUB_XML), parse_document(REV_XML)]


class TestCheckingService:
    def test_legal_update_applies_and_logs(self, schema):
        service = CheckingService(schema, fresh_documents())
        decision = service.try_execute(
            submission_xupdate(1, 1, "New Title", "New Author"))
        assert decision.legal and decision.applied
        log = service.committed_updates()
        assert len(log) == 1 and log[0].sequence == 0

    def test_explain_reports_every_live_constraint(self, schema):
        service = CheckingService(schema, fresh_documents())
        reports = service.explain()
        live = [constraint.name for constraint in schema.constraints
                if not constraint.dead
                for query in constraint.full_queries
                if query.prepared is not None]
        assert live
        assert [report.split(":", 1)[0] for report in reports] \
            == [f"constraint {name}" for name in live]

    def test_benchmark_compat_names_read_zero(self, schema):
        # benchmarks/e2e passes snapshot_reads=False, wraps publish in
        # its tracer and sums stats()["cloned"]
        with pytest.raises(ValueError):
            CheckingService(schema, fresh_documents(), snapshot_reads=True)
        stand_in = CheckingService(schema, fresh_documents(),
                                   snapshot_reads=False).snapshots
        assert stand_in.stats() == {"cloned": 0}
        with pytest.raises(NotImplementedError):
            stand_in.publish([])

    def test_illegal_update_rejected_and_unlogged(self, schema):
        service = CheckingService(schema, fresh_documents())
        before = service.snapshot()
        decision = service.try_execute(
            submission_xupdate(1, 1, "Self Review", "Alice"))
        assert not decision.legal
        assert service.committed_updates() == []
        assert service.snapshot() == before

    def test_execute_raises_on_violation(self, schema):
        from repro.errors import IntegrityViolationError
        service = CheckingService(schema, fresh_documents())
        with pytest.raises(IntegrityViolationError):
            service.execute(submission_xupdate(1, 1, "Bad", "Alice"))

    def test_listener_exception_rolls_back_through_service(self, schema):
        service = CheckingService(schema, fresh_documents())

        def listener(update, decision):
            raise RuntimeError("injected")

        service.subscribe(listener)
        before = service.snapshot()
        with pytest.raises(RuntimeError):
            service.try_execute(submission_xupdate(1, 1, "T", "A"))
        assert service.snapshot() == before
        assert service.committed_updates() == []
        # the mutex must have been released despite the exception
        assert service.verify_consistency() == []

    def test_writer_excludes_readers(self, schema):
        """A read waits for the writer: while a listener blocks inside
        ``try_execute``, a concurrent ``verify_consistency`` does not
        return, and it returns once the listener is released."""
        service = CheckingService(schema, fresh_documents())
        writer_in = threading.Event()
        release = threading.Event()
        order: list[str] = []

        def listener(update, decision):
            writer_in.set()
            release.wait(timeout=5)
            order.append("write-done")

        service.subscribe(listener)
        writer = threading.Thread(target=service.try_execute, args=(
            submission_xupdate(1, 1, "T", "A"),))
        writer.start()
        assert writer_in.wait(timeout=5)
        reads: list[list[str]] = []

        def reader():
            reads.append(service.verify_consistency())
            order.append("read")

        reader_thread = threading.Thread(target=reader)
        reader_thread.start()
        reader_thread.join(timeout=0.2)
        assert reader_thread.is_alive() and order == [], \
            "a read returned while the writer held the mutex"
        release.set()
        writer.join(timeout=5)
        reader_thread.join(timeout=5)
        assert order == ["write-done", "read"]
        assert reads == [[]]
        assert len(service.committed_updates()) == 1

    def test_writer_fault_leaves_later_reads_correct(self, schema):
        service = CheckingService(schema, fresh_documents())
        before = service.snapshot()
        with fail.armed("service.store.pre_commit_append=count:1"):
            with pytest.raises(FailPointError):
                service.try_execute(
                    submission_xupdate(1, 1, "Doomed", "Author X"))
        # the fault rolled the update back; reads see the prior state
        assert service.snapshot() == before
        assert service.committed_updates() == []
        assert service.verify_consistency() == []
        # and the next writer commits normally
        assert service.try_execute(
            submission_xupdate(1, 1, "Later", "Author Y")).applied
        assert service.verify_consistency() == []


@pytest.mark.stress
@pytest.mark.slow
class TestStressHarness:
    def test_mixed_workload_matches_sequential_oracle(self, schema):
        service = CheckingService(schema, fresh_documents())
        start = threading.Barrier(THREADS + 1, timeout=30)
        writers_done = threading.Event()
        errors: list[BaseException] = []

        def writer(thread_id: int):
            try:
                start.wait()
                for index in range(OPS):
                    kind = index % 4
                    if kind == 0:
                        # violates conflict_of_interest: Alice reviews
                        # her own submission
                        decision = service.try_execute(submission_xupdate(
                            1, 1, f"Bad {thread_id}-{index}", "Alice"))
                        assert not decision.legal, "illegal update passed"
                        assert not decision.applied
                    elif kind == 1:
                        # select resolves nowhere: must raise, must
                        # leave no trace
                        try:
                            service.try_execute(submission_xupdate(
                                9, 9, f"Lost {thread_id}-{index}", "X"))
                        except UpdateApplicationError:
                            pass
                        else:
                            raise AssertionError(
                                "bad select did not raise")
                    else:
                        track = 1 + (index % 2)
                        decision = service.try_execute(submission_xupdate(
                            track, 1, f"T {thread_id}-{index}",
                            f"Author {thread_id}-{index}"))
                        assert decision.legal and decision.applied
                    if index % 25 == 0:
                        assert service.verify_consistency() == [], \
                            "store inconsistent mid-stress"
            except BaseException as error:  # noqa: B036 - repropagated
                errors.append(error)

        def reader():
            try:
                start.wait()
                while not writers_done.is_set():
                    assert service.verify_consistency() == [], \
                        "reader saw an inconsistent store"
                    snapshot = service.snapshot()
                    assert len(snapshot) == 2
                    time.sleep(0.005)
            except BaseException as error:  # noqa: B036 - repropagated
                errors.append(error)

        reader_thread = threading.Thread(target=reader)
        writer_threads = [
            threading.Thread(target=writer, args=(thread_id,))
            for thread_id in range(THREADS)]
        reader_thread.start()
        for thread in writer_threads:
            thread.start()
        for thread in writer_threads:
            thread.join(timeout=300)
        writers_done.set()
        reader_thread.join(timeout=60)
        assert not errors, f"worker failures: {errors[:3]}"
        assert not any(t.is_alive()
                       for t in writer_threads + [reader_thread])

        # every legal update committed, nothing else did
        committed = service.committed_updates()
        legal_per_thread = sum(1 for i in range(OPS) if i % 4 >= 2)
        assert len(committed) == THREADS * legal_per_thread
        assert [record.sequence for record in committed] \
            == list(range(len(committed)))

        # the final store equals a sequential replay of the commit log
        # on fresh documents — zero torn states
        oracle_documents = fresh_documents()
        oracle = IntegrityGuard(schema, oracle_documents)
        for record in committed:
            decision = oracle.try_execute(record.update)
            assert decision.legal and decision.applied
        assert [serialize(document) for document in oracle_documents] \
            == service.snapshot()
        assert service.verify_consistency() == []

    def test_concurrent_readers_see_committed_prefixes(self, schema):
        """Every concurrent read equals some sequential-oracle prefix.

        One writer applies a deterministic update sequence; each
        reader repeatedly serializes the store and matches it
        byte-for-byte against the oracle state with the same number of
        commits — never a torn or intermediate state.
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
                    serialized = service.snapshot()
                    count = sum(s.count(marker) for s in serialized)
                    assert serialized == states[count], \
                        f"read is not the {count}-commit prefix"
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
