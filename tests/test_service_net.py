"""End-to-end suite for the networked sharded checking service.

Two populations live here:

* fast, socket-free unit tests of the building blocks (frame codec,
  uid validation, the edge's HTTP request reader, config plumbing) —
  part of the default tier-1 run;
* ``e2e``-marked tests that spawn real worker processes behind the
  asyncio HTTP edge: the **differential conformance suite** (seeded
  mixed workloads through the HTTP edge with 1, 2 and 4 workers must
  produce verdicts and final document bytes identical to a
  single-process ``CheckingService`` oracle) and the **chaos suite**
  (a worker killed mid-batch by an armed failpoint is restarted by the
  supervisor, recovers from its write-ahead log, and every acknowledged
  update survives).  These run in their own CI leg (``service-e2e``).

The workload reuses the fault-injection harness's step vocabulary
(:func:`repro.testing.harness._make_step`), generated against a twin
corpus so the step text is a pure function of the seed — the property
that makes the oracle comparison exact.
"""

from __future__ import annotations

import asyncio
import json
import random
import socket

import pytest

from repro.datagen import generate_corpus
from repro.datagen.corpus import CorpusSpec
from repro.datagen.running_example import (
    CONFERENCE_WORKLOAD,
    CONFLICT_OF_INTEREST,
    PUB_DTD,
    REV_DTD,
    submission_xupdate,
)
from repro.errors import ReproError, SchemaError
from repro.service.net import (
    HashRing,
    ServerThread,
    ServiceClient,
    ServiceConfig,
    ShardedService,
)
from repro.service.net.frames import (
    MAX_FRAME,
    FrameError,
    recv_frame,
    send_frame,
)
from repro.service.net.http import RequestRefusedError
from repro.service.net.worker import decision_to_json
from repro.service.store import CheckingService, DocumentStore
from repro.testing.harness import _make_step, _weighted_kinds
from repro.xtree.serializer import serialize
from repro.xupdate.parser import canonical_update_text

e2e = pytest.mark.e2e

#: corpus seed shared by the service config, the oracle and the step
#: generator — all three must see the same initial documents
CORPUS_SEED = 20060328

_SPEC = CorpusSpec(tracks=2, revs_per_track=3, subs_per_rev=2,
                   auts_per_sub=2, pubs=6, auts_per_pub=2,
                   busy_reviewers=1, author_pool=30,
                   seed=CORPUS_SEED)


def _twin_corpus():
    """A fresh parse of the exact corpus the service is seeded with."""
    return generate_corpus(_SPEC)


def make_config(**overrides) -> ServiceConfig:
    pub_doc, rev_doc = _twin_corpus()
    settings = dict(
        dtds=(PUB_DTD, REV_DTD),
        constraints=(CONFLICT_OF_INTEREST, CONFERENCE_WORKLOAD),
        constraint_names=("conflict_of_interest",
                          "conference_workload"),
        patterns=(submission_xupdate(1, 1, "x", "y", kind="append"),
                  submission_xupdate(1, 1, "x", "y", kind="after")),
        documents=(serialize(pub_doc), serialize(rev_doc)),
        snapshot_interval=8)
    settings.update(overrides)
    return ServiceConfig(**settings)


def make_oracle(config: ServiceConfig) -> CheckingService:
    """The single-process twin every service answer is compared to."""
    return CheckingService(config.build_schema(),
                           config.initial_documents())


def workload(seed: int, steps: int):
    """(kind, step) pairs for one seed — deterministic, corpus-pure."""
    _pub_doc, rev_doc = _twin_corpus()
    rng = random.Random(seed)
    kinds = _weighted_kinds(rng, steps)
    return [(kind, _make_step(kind, rev_doc, rng)) for kind in kinds]


# ---------------------------------------------------------------------------
# fast unit tests (tier-1): building blocks, no processes
# ---------------------------------------------------------------------------


class TestUidValidation:
    @pytest.mark.parametrize("uid", [
        "a", "tenant-1", "A.b_c-d", "0" * 64, "track2.shard-7"])
    def test_accepts_path_safe_uids(self, uid):
        assert DocumentStore.validate_uid(uid) == uid

    @pytest.mark.parametrize("uid", [
        "", "..", "../evil", "a/b", "a\\b", ".hidden", "-rf",
        "a" * 65, "sp ace", "uid\x00null", "tab\tbed"])
    def test_rejects_path_unsafe_uids(self, uid):
        with pytest.raises(SchemaError):
            DocumentStore.validate_uid(uid)

    def test_store_validates_its_uid(self, documents):
        assert DocumentStore(documents, uid="group-1").uid == "group-1"
        with pytest.raises(SchemaError):
            DocumentStore(documents, uid="../../escape")


class TestFrames:
    def test_roundtrip_over_a_socketpair(self):
        left, right = socket.socketpair()
        with left, right:
            payload = {"op": "update", "text": "<x>é</x>" * 100}
            send_frame(left, payload)
            assert recv_frame(right) == payload

    def test_clean_eof_decodes_to_none(self):
        left, right = socket.socketpair()
        with right:
            left.close()
            assert recv_frame(right) is None

    def test_eof_mid_frame_raises(self):
        left, right = socket.socketpair()
        with right:
            left.sendall(b"\x00\x00\x01\x00partial")
            left.close()
            with pytest.raises(FrameError):
                recv_frame(right)

    def test_oversized_length_prefix_raises(self):
        left, right = socket.socketpair()
        with left, right:
            left.sendall(b"\xff\xff\xff\xff")
            with pytest.raises(FrameError):
                recv_frame(right)


class _FakeWriter:
    """The slice of ``asyncio.StreamWriter`` the edge uses."""

    def __init__(self) -> None:
        self.data = bytearray()
        self.closed = False

    def write(self, data: bytes) -> None:
        assert not self.closed
        self.data += data

    async def drain(self) -> None:
        pass

    def close(self) -> None:
        self.closed = True

    async def wait_closed(self) -> None:
        pass


def _stream(data: bytes, eof: bool = True) -> asyncio.StreamReader:
    reader = asyncio.StreamReader()
    reader.feed_data(data)
    if eof:
        reader.feed_eof()
    return reader


def _read_requests(data: bytes, count: int = 1) -> list:
    async def main():
        reader = _stream(data)
        return [await ShardedService._read_request(reader)
                for _ in range(count)]
    return asyncio.run(main())


def _refusal(head: bytes) -> tuple[RequestRefusedError, bytes]:
    """Read one request that must be refused; the body bytes fed
    behind its head (and no EOF) show whether any body was read."""
    async def main():
        reader = _stream(head + b"BODY", eof=False)
        with pytest.raises(RequestRefusedError) as refused:
            await asyncio.wait_for(
                ShardedService._read_request(reader), timeout=5)
        return refused.value, await reader.read(4)
    return asyncio.run(main())


_BODY = b'{"uid": "a"}'
_REQUEST = (b"POST /update HTTP/1.1\r\nHost: edge\r\n"
            b"Content-Type: application/json\r\n"
            b"Content-Length: 12\r\n\r\n" + _BODY)


class TestEdgeRequestReader:
    """``ShardedService._read_request`` and ``_serve_connection`` over
    an in-memory stream: the edge half of the HTTP/1.1 codec."""

    def test_requests_in_one_chunk(self):
        get = b"GET /status HTTP/1.1\r\nHost: edge\r\n\r\n"
        assert _read_requests(_REQUEST + get + _REQUEST, count=4) == [
            ("POST", "/update", _BODY), ("GET", "/status", b""),
            ("POST", "/update", _BODY), None]

    def test_request_byte_by_byte(self):
        async def main():
            reader = asyncio.StreamReader()

            async def trickle():
                for index in range(len(_REQUEST)):
                    reader.feed_data(_REQUEST[index:index + 1])
                    await asyncio.sleep(0)
                reader.feed_eof()

            feeder = asyncio.create_task(trickle())
            first = await ShardedService._read_request(reader)
            second = await ShardedService._read_request(reader)
            await feeder
            return first, second

        assert asyncio.run(main()) == (("POST", "/update", _BODY), None)

    def test_eof_mid_head_raises(self):
        with pytest.raises(asyncio.IncompleteReadError):
            _read_requests(_REQUEST[:20])

    @pytest.mark.parametrize("length, status", [
        ("-1", 400), ("12abc", 400), ("", 400), ("0x10", 400),
        ("\u00b2", 400), (str(MAX_FRAME + 1), 413),
        ("9" * 40, 413), ("9" * 5000, 413),
    ])
    def test_bad_content_length_is_refused_unread(self, length, status):
        head = (f"POST /update HTTP/1.1\r\nContent-Length: {length}"
                "\r\n\r\n").encode("latin-1")
        refused, rest = _refusal(head)
        assert refused.status == status
        assert refused.payload["code"] == (
            "too-large" if status == 413 else "bad-request")
        assert rest == b"BODY"

    def test_leading_zeros_do_not_count_as_digits(self):
        head = (b"POST /update HTTP/1.1\r\nContent-Length: "
                + b"0" * 5000 + b"1\r\n\r\n")
        assert _read_requests(head + b"x") == [("POST", "/update", b"x")]

    def test_length_at_the_limit_is_accepted(self):
        async def main():
            reader = _stream(b"POST /update HTTP/1.1\r\nContent-Length:"
                             + str(MAX_FRAME).encode() + b"\r\n\r\n",
                             eof=False)
            task = asyncio.create_task(
                ShardedService._read_request(reader))
            await asyncio.sleep(0.01)
            assert not task.done()  # waiting for the body
            task.cancel()

        asyncio.run(main())

    @pytest.mark.parametrize("line", [
        b"GARBAGE", b"POST /update", b"POST /update HTTP/1.1 extra",
        b"",
    ])
    def test_malformed_request_line_is_refused(self, line):
        refused, rest = _refusal(line + b"\r\nHost: edge\r\n\r\n")
        assert (refused.status, refused.payload["code"]) == (
            400, "bad-request")
        assert rest == b"BODY"


@pytest.fixture
def edge(tmp_path):
    """A front end whose workers never start: only requests the edge
    answers itself reach a response."""
    service = ShardedService(make_config(), tmp_path / "state",
                             workers=1)
    yield service
    service.supervisor.join_all()


def _serve(edge: ShardedService, data: bytes) -> _FakeWriter:
    writer = _FakeWriter()

    async def main():
        await asyncio.wait_for(
            edge._serve_connection(_stream(data), writer), timeout=10)

    asyncio.run(main())
    assert writer.closed
    return writer


class TestEdgeConnection:
    _NOT_FOUND = (b"POST /nope HTTP/1.1\r\nContent-Length: 12\r\n\r\n"
                  + _BODY)

    def test_keep_alive_answers_every_request(self, edge):
        writer = _serve(edge, self._NOT_FOUND * 3)
        assert writer.data.count(b"HTTP/1.1 404 Not Found\r\n") == 3
        assert writer.data.count(b"Connection: keep-alive\r\n") == 3

    @pytest.mark.parametrize("bad, status", [
        (b"NONSENSE\r\n\r\n", b"400 Bad Request"),
        (b"POST /update HTTP/1.1\r\nContent-Length: -5\r\n\r\n",
         b"400 Bad Request"),
        (b"POST /update HTTP/1.1\r\nContent-Length: "
         + str(1 << 40).encode() + b"\r\n\r\n",
         b"413 Content Too Large"),
    ])
    def test_refusal_answers_then_closes(self, edge, bad, status):
        writer = _serve(edge, self._NOT_FOUND + bad + self._NOT_FOUND)
        first, _, refusal = bytes(writer.data).partition(
            b"HTTP/1.1 " + status + b"\r\n")
        assert first.startswith(b"HTTP/1.1 404 Not Found\r\n")
        assert b"Connection: close\r\n" in refusal
        assert b"HTTP/1.1" not in refusal  # nothing after the refusal
        payload = json.loads(refusal.partition(b"\r\n\r\n")[2])
        assert payload["ok"] is False
        assert payload["code"] in ("bad-request", "too-large")

    def test_oversized_header_block_gets_431_then_closes(self, edge):
        big = (b"POST /update HTTP/1.1\r\nX-Padding: " + b"a" * 70_000
               + b"\r\nContent-Length: 0\r\n\r\n")
        writer = _serve(edge, self._NOT_FOUND + big + self._NOT_FOUND)
        first, _, refusal = bytes(writer.data).partition(
            b"HTTP/1.1 431 Request Header Fields Too Large\r\n")
        assert first.startswith(b"HTTP/1.1 404 Not Found\r\n")
        assert b"Connection: close\r\n" in refusal
        assert b"HTTP/1.1" not in refusal  # nothing after the refusal
        payload = json.loads(refusal.partition(b"\r\n\r\n")[2])
        assert payload == {"ok": False, "code": "headers-too-large",
                           "error": payload["error"]}

    def test_eof_mid_request_closes_silently(self, edge):
        writer = _serve(edge, self._NOT_FOUND[:-3])
        assert writer.data == b""


class TestConfig:
    def test_schema_and_documents_rebuild(self):
        config = make_config()
        schema = config.build_schema()
        assert [c.name for c in schema.constraints] == [
            "conflict_of_interest", "conference_workload"]
        documents = config.initial_documents()
        assert [d.root.tag for d in documents] == ["dblp", "review"]

    def test_config_is_picklable(self):
        import pickle
        config = make_config()
        clone = pickle.loads(pickle.dumps(config))
        assert clone == config


_XUPDATE_HEAD = ('<?xml version="1.0"?>\n<xupdate:modifications '
                 'version="1.0"\n    '
                 'xmlns:xupdate="http://www.xmldb.org/xupdate">\n')


def _reviewers():
    """(track, rev, reviewer name, sub count) of every non-busy
    reviewer of the seed corpus, in document order."""
    entries = []
    tracks = _twin_corpus()[1].root.element_children("track")
    for track_no, track in enumerate(tracks, start=1):
        for rev_no, rev in enumerate(track.element_children("rev"),
                                     start=1):
            name = rev.first_child("name").text()
            if not name.startswith("Busy Reviewer"):
                entries.append((track_no, rev_no, name,
                                len(rev.element_children("sub"))))
    return entries


def _removal(track: int, rev: int, position: int) -> str:
    return (f'{_XUPDATE_HEAD}  <xupdate:remove select='
            f'"/review/track[{track}]/rev[{rev}]/sub[{position}]"/>\n'
            '</xupdate:modifications>')


def _two_author_append(track: int, rev: int, tag: str) -> str:
    """A legal append no registered pattern matches (two ``auts``)."""
    return (f'{_XUPDATE_HEAD}  <xupdate:append '
            f'select="/review/track[{track}]/rev[{rev}]">\n'
            '    <xupdate:element name="sub">\n'
            f'      <title>Joint Sub {tag}</title>\n'
            f'      <auts><name>Joint Author {tag}a</name></auts>\n'
            f'      <auts><name>Joint Author {tag}b</name></auts>\n'
            '    </xupdate:element>\n'
            '  </xupdate:append>\n</xupdate:modifications>')


class TestShardWorkerReadsLiveTree:
    """A shard worker's durable services work on the live documents:
    every value index is built on a live document and never rebuilt,
    so every commit pays for its delta only, and the reads answer
    exactly what the in-process oracle answers."""

    def test_commits_publish_nothing_and_match_snapshot_oracle(
            self, tmp_path, monkeypatch):
        from repro.relational import columns
        from repro.service.net.worker import ShardWorker

        config = make_config()
        worker = ShardWorker(0, 1, tmp_path / "state", config)
        oracle = make_oracle(config)
        uid = "main"

        built: list = []
        spying = False
        real_build = columns._build

        def spy_build(document, tag, steps):
            if spying:
                built.append(document)
            return real_build(document, tag, steps)

        monkeypatch.setattr(columns, "_build", spy_build)

        def built_on_live_documents_only() -> None:
            live = worker.services[uid].store.documents
            assert all(any(document is doc for doc in live)
                       for document in built)
            assert all(document.index_rebuilds == 0 for document in live)
            built.clear()

        def call(request: dict) -> dict:
            nonlocal spying
            spying = True
            try:
                return worker.handle(request)
            finally:
                spying = False

        def update(text: str) -> None:
            assert call({"op": "update", "uid": uid, "update": text}) \
                == {"ok": True,
                    "decision": decision_to_json(
                        oracle.try_execute(text))}

        def check_and_read() -> None:
            assert call({"op": "check", "uid": uid}) == {
                "ok": True, "violations": oracle.verify_consistency()}
            assert call({"op": "read", "uid": uid, "with_log": True}) \
                == {"ok": True, "documents": oracle.snapshot(),
                    "log": [canonical_update_text(entry.update)
                            for entry in oracle.committed_updates()]}

        # first touch: opens the shard, and the full check builds the
        # indexes it reads on the live documents
        check_and_read()
        assert built
        built_on_live_documents_only()

        (t1, r1, _, subs1), (t2, r2, name2, subs2) = _reviewers()[:2]
        # legal appends and removes
        update(submission_xupdate(t1, r1, "Live Sub 1", "Live Author 1"))
        update(submission_xupdate(t2, r2, "Live Sub 2", "Live Author 2"))
        update(_removal(t1, r1, subs1 + 1))
        # an illegal reject: the author is the reviewer
        update(submission_xupdate(t2, r2, "Conflicted", name2))
        # one check_batch: appends, a reject and removes
        batch = [submission_xupdate(t1, r1, "Batch Sub", "Batch Author"),
                 submission_xupdate(t2, r2, "Batch Conflict", name2),
                 _removal(t1, r1, subs1 + 1),
                 _removal(t2, r2, subs2 + 1)]
        assert call({"op": "check_batch", "uid": uid,
                     "updates": batch}) \
            == {"ok": True,
                "decisions": [decision_to_json(d)
                              for d in oracle.check_batch(batch)]}
        # an unregistered two-author probe, then its removal
        update(_two_author_append(t1, r1, "probe"))
        update(_removal(t1, r1, subs1 + 1))
        check_and_read()
        built_on_live_documents_only()

        # forced from-disk recovery: indexes are built on the recovered
        # live documents, never on a copy
        response = call({"op": "recover", "uid": uid})
        recovered = worker.services[uid]
        assert response["ok"] is True
        assert response["violations"] == oracle.verify_consistency()
        assert response["committed"] == len(oracle.committed_updates())
        built_on_live_documents_only()

        update(submission_xupdate(t2, r2, "After Recover", "Late Author"))
        update(_removal(t2, r2, subs2 + 1))
        check_and_read()
        built_on_live_documents_only()
        assert worker.services[uid].snapshot() == oracle.snapshot()
        worker.close()


def test_too_deep_update_is_a_parse_error(tmp_path):
    """Hostile nesting is refused by the parser, not met as a
    ``RecursionError`` deeper in: the worker answers a parse error and
    the document is untouched."""
    from repro.service.net.worker import ShardWorker

    worker = ShardWorker(0, 1, tmp_path / "state", make_config())
    before = worker.handle({"op": "read", "uid": "main"})
    assert before["ok"]
    content = "<sub>" + "<x>" * 299 + "</x>" * 299 + "</sub>"
    update = ('<xupdate:modifications version="1.0" '
              'xmlns:xupdate="http://www.xmldb.org/xupdate">'
              '<xupdate:append select="/review/track[1]/rev[1]">'
              f"{content}</xupdate:append></xupdate:modifications>")
    response = worker.handle({"op": "update", "uid": "main",
                              "update": update})
    assert (response["ok"], response["code"]) == (False, "XMLParseError")
    assert "elements nest deeper than 256" in response["error"]
    assert worker.handle({"op": "read", "uid": "main"}) == before
    worker.close()


def test_unreadable_snapshot_answers_its_recovery_code(tmp_path):
    """A shard whose snapshot holds a document the parser refuses
    (257 deep) answers the coded recovery error, not the raw parse
    error."""
    from repro.service.net.worker import ShardWorker
    from repro.service.persistence import write_snapshot

    worker = ShardWorker(0, 1, tmp_path / "state", make_config())
    deep = "<review>" + "<x>" * 256 + "</x>" * 256 + "</review>"
    pub_text = make_config().documents[0]
    write_snapshot(worker.shard_dir("main"), 0, [pub_text, deep])
    response = worker.handle({"op": "read", "uid": "main"})
    assert (response["ok"], response["code"]) \
        == (False, "recover.snapshot-corrupt")
    assert "elements nest deeper than 256" in response["error"]
    worker.close()


def test_stacked_insert_past_the_depth_limit_is_refused(tmp_path):
    """Each fragment parses, but the second insert would nest the
    document deeper than the parser re-reads: it is refused when
    applied, and the checkpointed 256-deep document recovers."""
    from repro.service.net.worker import ShardWorker
    from repro.service.persistence import load_snapshot

    def update(worker, select, content):
        return worker.handle({"op": "update", "uid": "main", "update": (
            '<xupdate:modifications version="1.0" '
            'xmlns:xupdate="http://www.xmldb.org/xupdate">'
            f'<xupdate:append select="{select}">{content}'
            "</xupdate:append></xupdate:modifications>")})

    # rev[1] is the third level: a chain of 253 reaches 256 exactly
    height = 253
    config = make_config(snapshot_interval=1)
    worker = ShardWorker(0, 1, tmp_path / "state", config)
    response = update(worker, "/review/track[1]/rev[1]",
                      "<deep>" + "<x>" * (height - 1)
                      + "</x>" * (height - 1) + "</deep>")
    assert response["ok"] and response["decision"]["applied"]
    before = worker.handle({"op": "read", "uid": "main"})
    deepest = "/review/track[1]/rev[1]/deep" + "/x" * (height - 1)
    response = update(worker, deepest, "<x/>")
    assert (response["ok"], response["code"]) \
        == (False, "UpdateApplicationError")
    assert "nest 257 deep, deeper than 256" in response["error"]
    assert worker.handle({"op": "read", "uid": "main"}) == before
    worker.close()

    restarted = ShardWorker(0, 1, tmp_path / "state", config)
    assert restarted.handle({"op": "read", "uid": "main"}) == before
    snapshot = load_snapshot(restarted.shard_dir("main"))
    assert snapshot is not None and snapshot.lsn == 1
    assert any("<deep>" in text for text in snapshot.documents)
    restarted.close()


def test_restarted_worker_parses_only_the_snapshot(tmp_path, monkeypatch):
    """A shard with durable state is recovered from it, so a restarted
    worker must not parse the seed corpus only to throw it away."""
    from repro.service import store as store_module
    from repro.service.net import config as config_module
    from repro.service.net.worker import ShardWorker
    from repro.service.persistence import load_snapshot

    parsed: list = []
    real_parse = config_module.parse_document

    def spy(text, *args, **kwargs):
        parsed.append(text)
        return real_parse(text, *args, **kwargs)

    monkeypatch.setattr(config_module, "parse_document", spy)
    monkeypatch.setattr(store_module, "parse_document", spy)
    config = make_config()
    (t1, r1, _, _) = _reviewers()[0]
    first = ShardWorker(0, 1, tmp_path / "state", config)
    update = submission_xupdate(t1, r1, "Before Restart", "Restart Author")
    assert first.handle({"op": "update", "uid": "main",
                         "update": update})["ok"]
    assert parsed == list(config.documents)  # a new shard: the seed
    first.close()

    parsed.clear()
    restarted = ShardWorker(0, 1, tmp_path / "state", config)
    assert restarted.handle({"op": "check", "uid": "main"})["ok"]
    snapshot = load_snapshot(restarted.shard_dir("main"))
    assert snapshot is not None and snapshot.lsn == 0
    assert parsed == list(snapshot.documents)
    assert len(restarted.services["main"].committed_updates()) == 1
    restarted.close()


def test_failed_group_fsync_exits_worker(tmp_path, monkeypatch):
    """A check_batch whose one fsync fails leaves updates in memory the
    disk may have lost: the worker must die without replying, so the
    supervisor restarts it and recovery decides what survived."""
    import os

    from repro.service.net import worker as worker_module

    class Exited(Exception):
        pass

    def fake_exit(status: int) -> None:
        raise Exited(status)

    worker = worker_module.ShardWorker(
        0, 1, tmp_path / "state", make_config())
    assert worker.handle({"op": "check", "uid": "main"})["ok"]
    (t1, r1, _, _), (t2, r2, _, _) = _reviewers()[:2]
    batch = [submission_xupdate(t1, r1, "Unsynced 1", "Sync Author 1"),
             submission_xupdate(t2, r2, "Unsynced 2", "Sync Author 2")]

    def broken(fd: int) -> None:
        raise OSError("fsync failed")

    monkeypatch.setattr(worker_module.os, "_exit", fake_exit)
    monkeypatch.setattr(os, "fsync", broken)
    with pytest.raises(Exited) as exited:
        worker.handle({"op": "check_batch", "uid": "main",
                       "updates": batch})
    assert exited.value.args == (worker_module.KILLED_EXIT_STATUS,)
    assert worker.services["main"].wal_crashed
    monkeypatch.undo()
    worker.close()


# ---------------------------------------------------------------------------
# e2e: differential conformance against the single-process oracle
# ---------------------------------------------------------------------------


def _oracle_step(oracle: CheckingService, step):
    """Outcome of one step on the oracle, in wire-comparable form."""
    try:
        if step is None:
            return ("read", oracle.snapshot())
        if isinstance(step, list):
            return ("batch", [decision_to_json(d)
                              for d in oracle.check_batch(step)])
        return ("update", decision_to_json(oracle.try_execute(step)))
    except ReproError as error:
        return ("error", type(error).__name__)


def _service_step(client: ServiceClient, uid: str, step):
    """The same step through the HTTP edge, same outcome shape."""
    if step is None:
        status, body = client.read(uid)
        assert status == 200, body
        return ("read", body["documents"])
    if isinstance(step, list):
        status, body = client.check_batch(uid, step)
        if status == 422:
            return ("error", body["code"])
        assert status == 200, body
        return ("batch", body["decisions"])
    status, body = client.update(uid, step)
    if status == 422:
        return ("error", body["code"])
    assert status == 200, body
    return ("update", body["decision"])


@e2e
@pytest.mark.parametrize("workers", [1, 2, 4])
def test_conformance_matches_single_process_oracle(workers, tmp_path):
    """The tentpole acceptance test: for every worker count and every
    seed, verdicts and final bytes through the sharded HTTP edge are
    identical to the single-process service."""
    seeds = [11, 22, 33]
    steps_per_seed = 14
    config = make_config()
    with ServerThread(config, tmp_path / "state",
                      workers=workers) as server:
        client = ServiceClient(server.host, server.port)
        for seed in seeds:
            uid = f"seed-{seed}"
            oracle = make_oracle(config)
            for index, (kind, step) in enumerate(
                    workload(seed, steps_per_seed)):
                expected = _oracle_step(oracle, step)
                actual = _service_step(client, uid, step)
                assert actual == expected, (
                    f"workers={workers} seed={seed} step={index} "
                    f"({kind}): service {actual} != oracle {expected}")
            # end-of-workload battery: consistency verdict, commit
            # log, and the exact final document bytes
            status, body = client.check(uid)
            assert status == 200
            assert body["violations"] == oracle.verify_consistency()
            status, body = client.read(uid, with_log=True)
            assert status == 200
            assert body["documents"] == oracle.snapshot()
            assert body["log"] == [
                canonical_update_text(entry.update)
                for entry in oracle.committed_updates()]
        # every live worker took part and none restarted
        status, body = client.status()
        assert status == 200
        assert body["alive"] == [True] * workers
        assert all(count == 0 for count in body["restarts"].values())
        client.close()


@e2e
def test_worker_enforces_ownership(tmp_path):
    """A frame routed to the wrong worker is refused worker-side: the
    ring is re-derived inside each worker, so a confused router can
    never make two workers serve one uid."""
    uid = "owned-tenant"
    ring = HashRing(range(2))
    owner = ring.owner(uid)
    wrong = 1 - owner
    with ServerThread(make_config(), tmp_path / "state",
                      workers=2) as server:
        path = server.service.supervisor.socket_path(wrong)
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
            sock.settimeout(30.0)
            sock.connect(path)
            send_frame(sock, {"op": "read", "uid": uid})
            response = recv_frame(sock)
        assert response is not None
        assert response["ok"] is False
        assert response["code"] == "not-owner"
        assert response["owner"] == owner


@e2e
def test_http_edge_validates_uids_and_routes(tmp_path):
    with ServerThread(make_config(), tmp_path / "state",
                      workers=2) as server:
        client = ServiceClient(server.host, server.port)
        status, body = client.read("../escape")
        assert status == 400 and body["code"] == "bad-uid"
        status, body = client.request("/read", {"updates": []})
        assert status == 400 and body["code"] == "bad-uid"
        status, body = client.request("/read", None)
        assert status == 400 and body["code"] == "bad-uid"
        status, body = client.request("/nope", {"uid": "a"})
        assert status == 404 and body["code"] == "not-found"
        status, body = client.request("/update", {"uid": "a"})
        assert status == 400 and body["code"] == "bad-request"
        status, body = client.request("/status", None, method="GET")
        assert status == 200 and body["workers"] == 2
        # arm is refused when test ops are disabled (the default here)
        status, body = client.arm(0, "persistence.pre_fsync=count:1")
        assert status == 403 and body["code"] == "forbidden"
        client.close()


# ---------------------------------------------------------------------------
# e2e: chaos — kill a worker mid-batch, supervisor recovers it
# ---------------------------------------------------------------------------


def _other_uid(ring: HashRing, not_owned_by: int) -> str:
    for index in range(1000):
        uid = f"bystander-{index}"
        if ring.owner(uid) != not_owned_by:
            return uid
    raise AssertionError("no uid avoided the owner")  # pragma: no cover


@e2e
@pytest.mark.parametrize("site", [
    "persistence.pre_fsync",
    "persistence.post_append_pre_apply",
    "service.store.pre_commit_append",
])
def test_killed_worker_recovers_with_no_lost_ack(site, tmp_path):
    """Kill-at-failpoint chaos (the PR 8 restart matrix, but through
    the network): a worker dies mid-batch at an instrumented seam, the
    supervisor restarts it, the shard recovers from snapshot + WAL,
    and the per-shard invariant battery holds — acknowledged updates
    are a prefix of the recovered commit log, the recovered state is
    consistent, and a single-process replay of that log reproduces the
    final bytes exactly.  The other worker's shard is untouched."""
    uid = "tenant-chaos"
    ring = HashRing(range(2))
    owner = ring.owner(uid)
    bystander = _other_uid(ring, owner)
    config = make_config(allow_test_ops=True)
    state_dir = tmp_path / "state"
    with ServerThread(config, state_dir, workers=2) as server:
        client = ServiceClient(server.host, server.port)
        acked: list[str] = []
        rev_doc = _twin_corpus()[1]
        rng = random.Random(4242)
        from repro.datagen import legal_submission
        for _ in range(3):
            update = legal_submission(rev_doc, rng, kind="append")
            status, body = client.update(uid, update)
            assert status == 200 and body["decision"]["applied"], body
            acked.append(canonical_update_text(update))
        status, body = client.update(
            bystander, legal_submission(rev_doc, rng, kind="append"))
        assert status == 200 and body["decision"]["applied"], body

        # arm the kill inside the owning worker, then batch into it
        status, body = client.arm(owner, f"{site}=count:2", kill=True)
        assert status == 200 and body["kill"] is True, body
        batch = [legal_submission(rev_doc, rng, kind="append")
                 for _ in range(4)]
        status, body = client.check_batch(uid, batch)
        assert status == 503, body
        assert body["code"] == "worker-restarted", body
        assert body["restarted"] is True, body

        # the read is retried against the restarted worker, which
        # recovers the shard from its WAL on first touch
        status, body = client.read(uid, with_log=True)
        assert status == 200, body
        log = body["log"]
        # invariant: every acknowledged update survived, in order, as
        # a prefix; un-acked batch work may or may not have been
        # logged before the kill (both are valid crash outcomes)
        assert log[:len(acked)] == acked, (
            f"acked updates lost after {site} kill: {log}")
        assert len(log) <= len(acked) + len(batch)

        # recovered shard passes the consistency check
        status, check = client.check(uid)
        assert status == 200 and check["violations"] == [], check

        # single-process oracle replay of the recovered commit log
        # must land on the exact same bytes the service now serves
        oracle = make_oracle(config)
        for entry in log:
            decision = oracle.try_execute(entry)
            assert decision.applied, (site, entry)
        assert body["documents"] == oracle.snapshot()

        # the bystander shard on the surviving worker is untouched
        status, other = client.read(bystander, with_log=True)
        assert status == 200 and len(other["log"]) == 1, other

        # supervisor accounting: one restart, everyone alive again
        status, stat = client.status()
        assert stat["alive"] == [True, True]
        assert stat["restarts"][str(owner)] == 1
        assert stat["restarts"][str(1 - owner)] == 0
        client.close()
        final_documents = body["documents"]
        final_log = log

    # offline half of the battery: the shard directory recovers
    # deterministically with plain CheckingService.recover, byte- and
    # log-identical to what the live service served
    schema = config.build_schema()
    shard = state_dir / f"shard-{uid}"
    for _ in range(2):
        recovered = CheckingService.recover(schema, shard)
        try:
            assert recovered.snapshot() == final_documents
            assert [canonical_update_text(entry.update)
                    for entry in recovered.committed_updates()] \
                == final_log
            assert recovered.verify_consistency() == []
        finally:
            recovered.close()


@e2e
def test_graceful_shutdown_drains_and_preserves_state(tmp_path):
    """A clean stop drains every worker; reopening the same state
    directory recovers every shard with nothing lost."""
    config = make_config()
    state_dir = tmp_path / "state"
    rev_doc = _twin_corpus()[1]
    rng = random.Random(99)
    from repro.datagen import legal_submission
    sent = {}
    with ServerThread(config, state_dir, workers=2) as server:
        client = ServiceClient(server.host, server.port)
        for uid in ("alpha", "beta", "gamma"):
            update = legal_submission(rev_doc, rng, kind="append")
            status, body = client.update(uid, update)
            assert status == 200 and body["decision"]["applied"]
            sent[uid] = canonical_update_text(update)
        client.close()
    # same state dir, fresh processes: everything committed survives
    with ServerThread(config, state_dir, workers=2) as server:
        client = ServiceClient(server.host, server.port)
        for uid, update in sent.items():
            status, body = client.read(uid, with_log=True)
            assert status == 200, body
            assert body["log"] == [update]
        client.close()
