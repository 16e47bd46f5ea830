"""Service reads: what ``snapshot()`` and the locked live tree show.

The checking service has one read path: :meth:`CheckingService.snapshot`,
:meth:`CheckingService.verify_consistency` and
:meth:`CheckingService.explain` all read the live documents under the
store's mutex.  These tests hold that path to a sequential oracle,
to a free-standing full check of the schema, and keep the
``snapshot_reads=False`` construction the benchmark uses working.
"""

from __future__ import annotations

import pytest

from repro.core import IntegrityGuard
from repro.core.guard import verify_documents
from repro.datagen.running_example import make_schema, submission_xupdate
from repro.service import CheckingService
from repro.xtree import parse_document, serialize
from tests.conftest import PUB_XML, REV_XML


@pytest.fixture(scope="module")
def schema():
    return make_schema()


def fresh_documents():
    return [parse_document(PUB_XML), parse_document(REV_XML)]


class TestServiceSnapshotReads:
    def test_reads_match_sequential_oracle(self, schema):
        service = CheckingService(schema, fresh_documents())
        oracle = IntegrityGuard(schema, fresh_documents())
        assert service.snapshot() == \
            [serialize(d) for d in oracle.documents]
        for index in range(6):
            update = submission_xupdate(
                1 + index % 2, 1, f"T{index}", f"Author {index}")
            assert service.try_execute(update).applied
            assert oracle.try_execute(update).applied
            assert service.snapshot() == \
                [serialize(d) for d in oracle.documents]
            assert service.verify_consistency() == []

    def test_read_view_documents_satisfy_schema(self, schema):
        service = CheckingService(schema, fresh_documents())
        # a free-standing full check of the live documents, not only
        # the guard's own verdict, before and after commits
        for index in range(3):
            with service.store.read_locked():
                assert verify_documents(
                    schema, service.store.documents) == []
            assert service.try_execute(submission_xupdate(
                1, 1, f"T{index}", f"Author {index}")).applied
        with service.store.read_locked():
            assert verify_documents(schema, service.store.documents) == []

    def test_locked_mode_still_works(self, schema):
        # benchmarks/e2e constructs the service with snapshot_reads=False
        service = CheckingService(schema, fresh_documents(),
                                  snapshot_reads=False)
        before = service.snapshot()
        decision = service.try_execute(submission_xupdate(1, 1, "T", "A"))
        assert decision.applied
        assert service.snapshot() != before
        assert len(service.snapshot()) == 2
        assert service.verify_consistency() == []
        assert [entry.sequence for entry in service.committed_updates()] \
            == [0]
