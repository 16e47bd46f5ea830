"""Cached compact serialization equals a cold one after any mutation.

``serialize`` caches the compact text of the root's children and
grandchildren in ``Element.compact_xml``, and ``Element.insert`` /
``Element.remove`` clear it on the mutated parent and every ancestor.
A seeded random sequence of updates drives the live documents through
:class:`IntegrityGuard` and raw :class:`TransactionLog` transactions —
committed and rolled-back, brute-force probes that apply and roll back
with the caches warmed mid-probe, insert-after, removals, and a warm
subtree detached, edited and re-inserted — and after every step the
cached serialization must equal

* a cold one: ``serialize(_cold_copy(doc))``, built from fresh
  elements whose caches are empty, and
* the corpus-text oracle: the initial corpus text parsed afresh with
  every committed update replayed on it.
"""

from __future__ import annotations

import random

import pytest

from repro.core import guard as guard_module
from repro.core.guard import IntegrityGuard
from repro.datagen import make_schema
from repro.datagen.corpus import CorpusSpec, generate_corpus
from repro.datagen.running_example import submission_xupdate
from repro.datagen.workload import illegal_submission, legal_submission
from repro.xtree import parse_document, serialize
from repro.xtree.node import Document, Element, Text
from repro.xupdate import parse_modifications
from repro.xupdate.apply import TransactionLog, apply_operation

_SPEC = CorpusSpec(tracks=3, revs_per_track=3, subs_per_rev=2,
                   auts_per_sub=2, pubs=5, auts_per_pub=2,
                   busy_reviewers=1, author_pool=30)

_STEPS = ["legal", "legal-after", "illegal", "probe-legal",
          "probe-illegal", "remove", "txn-commit", "txn-rollback",
          "reinsert-warm", "detached-edit"]


def _remove_text(select: str) -> str:
    return ('<?xml version="1.0"?>\n'
            '<xupdate:modifications version="1.0"\n'
            '    xmlns:xupdate="http://www.xmldb.org/xupdate">\n'
            f'  <xupdate:remove select="{select}"/>\n'
            '</xupdate:modifications>')


def _pub_text(authors: list[str]) -> str:
    auts = "".join(f"<aut><name>{author}</name></aut>"
                   for author in authors)
    return ('<?xml version="1.0"?>\n'
            '<xupdate:modifications version="1.0"\n'
            '    xmlns:xupdate="http://www.xmldb.org/xupdate">\n'
            '  <xupdate:append select="/dblp">\n'
            '    <xupdate:element name="pub">\n'
            f'      <title>Probe Paper</title>{auts}\n'
            '    </xupdate:element>\n'
            '  </xupdate:append>\n'
            '</xupdate:modifications>')


def _sub(title: str, author: str) -> Element:
    """The element ``submission_xupdate(..., title, author)`` adds."""
    name = Element("name")
    name.append(Text(author))
    auts = Element("auts")
    auts.append(name)
    title_element = Element("title")
    title_element.append(Text(title))
    sub = Element("sub")
    sub.append(title_element)
    sub.append(auts)
    return sub


def _subs(rev_doc: Document,
          spare_busy: bool = False) -> list[tuple[int, int, int]]:
    """(track, rev, sub) positions, 1-based; ``spare_busy`` leaves out
    the busy reviewers, whom one more submission would overload (the
    raw transactions below bypass the guard)."""
    return [(t, r, s)
            for t, track in enumerate(rev_doc.root.element_children(
                "track"), 1)
            for r, rev in enumerate(track.element_children("rev"), 1)
            if not (spare_busy and rev.first_child("name").text()
                    .startswith("Busy"))
            for s, _ in enumerate(rev.element_children("sub"), 1)]


def _oracle(corpus: list[str], committed: list[str]) -> list[str]:
    documents = [parse_document(text) for text in corpus]
    by_root = {document.root.tag: document for document in documents}
    for text in committed:
        for operation in parse_modifications(text):
            root = operation.select.lstrip("/").split("/")[0]
            apply_operation(by_root[root.split("[")[0]], operation)
    return [serialize(document) for document in documents]


def _cold_copy(document: Document) -> Document:
    """A document equal to ``document`` built from fresh elements, so
    no serialization cache is filled."""
    def copy(element: Element) -> Element:
        fresh = Element(element.tag, dict(element.attributes))
        for child in element.children:
            fresh.append(Text(child.value) if isinstance(child, Text)
                         else copy(child))
        return fresh
    return Document(copy(document.root))


class _Run:
    def __init__(self, seed: int, monkeypatch) -> None:
        self.rng = random.Random(seed)
        self.pub, self.rev = generate_corpus(
            CorpusSpec(**{**_SPEC.__dict__, "seed": seed}))
        self.documents = [self.pub, self.rev]
        self.corpus = [serialize(document) for document in self.documents]
        self.committed: list[str] = []
        self.guard = IntegrityGuard(make_schema(), self.documents)
        full_check = guard_module.verify_documents

        def warm_then_check(schema, documents, constraints=None):
            # a brute-force probe checks the applied state: warm every
            # cache on it, so the probe's rollback has to clear them
            for document in documents:
                serialize(document)
            return full_check(schema, documents, constraints)

        monkeypatch.setattr(guard_module, "verify_documents",
                            warm_then_check)

    def assert_serializations(self) -> None:
        expected = _oracle(self.corpus, self.committed)
        for document, oracle in zip(self.documents, expected):
            warm = serialize(document)
            assert warm == serialize(_cold_copy(document))
            assert warm == oracle

    def guarded(self, text: str, expect_applied: bool) -> None:
        decision = self.guard.try_execute(text)
        assert decision.applied is expect_applied
        if decision.applied:
            self.committed.append(text)

    def step(self, kind: str) -> None:
        rng, rev = self.rng, self.rev
        if kind == "legal":
            self.guarded(legal_submission(rev, rng), True)
        elif kind == "legal-after":
            self.guarded(legal_submission(rev, rng, kind="after"), True)
        elif kind == "illegal":
            self.guarded(illegal_submission(rev, rng), False)
        elif kind == "probe-legal":
            self.guarded(_pub_text([f"Fresh Author {rng.randrange(10 ** 6)}",
                                    f"New Author {rng.randrange(10 ** 6)}"]),
                         True)
        elif kind == "probe-illegal":
            track = rev.root.element_children("track")[0]
            reviewer = track.element_children("rev")[0].first_child("name")
            author = track.element_children("rev")[0].element_children(
                "sub")[0].first_child("auts").first_child("name")
            self.guarded(_pub_text([reviewer.text(), author.text()]), False)
        elif kind == "remove":
            t, r, s = rng.choice(_subs(rev))
            self.guarded(_remove_text(
                f"/review/track[{t}]/rev[{r}]/sub[{s}]"), True)
        elif kind in ("txn-commit", "txn-rollback"):
            self.transaction(commit=kind == "txn-commit")
        elif kind == "reinsert-warm":
            self.reinsert_warm()
        else:
            assert kind == "detached-edit"
            self.detached_edit()

    def transaction(self, commit: bool) -> None:
        """Raw TransactionLog: an append, an insert-after and a removal,
        with the caches warmed on the mid-transaction state."""
        t, r, s = self.rng.choice(_subs(self.rev, spare_busy=True))
        texts = [
            submission_xupdate(t, r, f"Txn {self.rng.randrange(10 ** 6)}",
                               "Txn Author"),
            submission_xupdate(t, r, "Txn After", "Txn Author",
                               kind="after"),
            _remove_text(f"/review/track[{t}]/rev[{r}]/sub[{s}]"),
        ]
        with TransactionLog() as log:
            for text in texts:
                for operation in parse_modifications(text):
                    log.apply(self.rev, operation)
                self.warm_and_compare()
            if commit:
                log.commit()
                self.committed.extend(texts)
            else:
                log.rollback()

    def warm_and_compare(self) -> None:
        warm = serialize(self.rev)
        assert warm == serialize(_cold_copy(self.rev))

    def reinsert_warm(self) -> None:
        """Detach a warm subtree (a rev or a whole track), let the rest
        warm without it, and put the same object back."""
        serialize(self.rev)
        tracks = self.rev.root.element_children("track")
        track = self.rng.choice(tracks)
        target = (track if self.rng.random() < 0.3
                  else self.rng.choice(track.element_children("rev")))
        assert target.compact_xml is not None
        parent = target.parent
        index = parent.children.index(target)
        parent.remove(target)
        self.warm_and_compare()
        parent.insert(index, target)

    def detached_edit(self) -> None:
        """Edit a warm subtree while it is detached, then re-insert it:
        the cache must be cleared by ``Element.insert`` itself, not by
        the document's adopt/orphan bookkeeping."""
        serialize(self.rev)
        t, r, _ = self.rng.choice(_subs(self.rev, spare_busy=True))
        target = self.rev.root.element_children("track")[t - 1] \
            .element_children("rev")[r - 1]
        assert target.compact_xml is not None
        parent = target.parent
        index = parent.children.index(target)
        parent.remove(target)
        title = f"Detached {self.rng.randrange(10 ** 6)}"
        target.append(_sub(title, "Detached Author"))
        parent.insert(index, target)
        self.committed.append(submission_xupdate(
            t, r, title, "Detached Author"))


@pytest.mark.parametrize("seed", range(8))
def test_cached_serialization_matches_cold_and_oracle(seed, monkeypatch):
    run = _Run(seed, monkeypatch)
    run.assert_serializations()
    kinds = _STEPS + [run.rng.choice(_STEPS) for _ in range(20)]
    run.rng.shuffle(kinds)
    for kind in kinds:
        run.step(kind)
        run.assert_serializations()
    # the run mutated below the cached depths and the caches are warm
    assert all(child.compact_xml is not None
               for document in run.documents
               for child in document.root.element_children())


def test_only_depths_one_and_two_are_cached():
    document = parse_document(
        "<r><a><b><c>x</c></b></a><t>y</t></r>")
    serialize(document)
    root = document.root
    a = root.first_child("a")
    b = a.first_child("b")
    assert root.compact_xml is None
    assert a.compact_xml == "<a><b><c>x</c></b></a>"
    assert b.compact_xml == "<b><c>x</c></b>"
    assert b.first_child("c").compact_xml is None
    b.first_child("c").append(Element("d"))
    assert a.compact_xml is None and b.compact_xml is None
    assert root.first_child("t").compact_xml == "<t>y</t>"


def test_pretty_printing_ignores_the_cache():
    document = parse_document("<r><a><b>x</b></a></r>")
    compact = serialize(document)
    pretty = serialize(document, indent=2)
    assert pretty == serialize(_cold_copy(document), indent=2)
    assert "\n  <a>" in pretty and compact.endswith("<r><a><b>x</b></a></r>")
