"""Ablation A4 — foreign keys via negation (library extension).

The referential constraint "every submission title matches some
publication" is the constraint class the paper's related work singles
out.  Compiled through the same pipeline, its optimized check collapses
to a single membership probe (``not(some $Ip in //pub satisfies
$Ip/title/text() = %{t})``) while the full check joins every submission
against every publication.
"""

import pytest

from repro.core import ConstraintSchema, IntegrityGuard
from repro.datagen.running_example import (
    PUB_DTD,
    REV_DTD,
    submission_xupdate,
)
from repro.xtree import parse_document, serialize

REFERENTIAL = (
    "<- //sub/title/text() -> T /\\ not(//pub[/title/text() -> T])")


@pytest.fixture()
def referential_setup(corpus):
    pub_doc, rev_doc, _ = corpus
    schema = ConstraintSchema([PUB_DTD, REV_DTD], [REFERENTIAL],
                              names=["ref"])
    schema.register_pattern(submission_xupdate(1, 1, "x", "y"))
    # make the corpus consistent with the FK: give every submission
    # title a matching publication (on copies, to keep the shared
    # corpus pristine for the other benchmarks)
    pub_copy = parse_document(serialize(pub_doc))
    rev_copy = parse_document(serialize(rev_doc))
    from repro.xtree.node import Element, Text
    dblp = pub_copy.root
    for sub in rev_copy.iter_elements("sub"):
        title = sub.first_child("title")
        pub = Element("pub")
        title_el = Element("title")
        title_el.append(Text(title.text() if title else ""))
        pub.append(title_el)
        aut = Element("aut")
        name = Element("name")
        name.append(Text("Catalog Bot"))
        aut.append(name)
        pub.append(aut)
        dblp.append(pub)
    return schema, [pub_copy, rev_copy]


def test_full_check(benchmark, referential_setup, size_kib):
    benchmark.group = f"referential-{size_kib}KiB"
    schema, documents = referential_setup
    query = schema.constraint("ref").full_queries[0]
    violated = benchmark(query.truth, documents)
    assert violated is False


def test_optimized_check_existing_title(benchmark, referential_setup,
                                        size_kib):
    benchmark.group = f"referential-{size_kib}KiB"
    schema, documents = referential_setup
    guard = IntegrityGuard(schema, documents)
    rev_doc = documents[1]
    existing_title = next(rev_doc.iter_elements("sub")) \
        .first_child("title").text()
    update = submission_xupdate(1, 1, existing_title, "Someone")

    def attempt():
        decision = guard.try_execute(update)
        assert decision.legal
        # undo so every round starts from the same state
        inserted = [sub for sub in rev_doc.iter_elements("sub")
                    if sub.first_child("title").text() == existing_title]
        inserted[-1].parent.remove(inserted[-1])
        return decision

    decision = benchmark(attempt)
    assert decision.optimized


def test_optimized_check_phantom_title(benchmark, referential_setup,
                                       size_kib):
    benchmark.group = f"referential-{size_kib}KiB"
    schema, documents = referential_setup
    guard = IntegrityGuard(schema, documents)
    update = submission_xupdate(1, 1, "No Such Publication Anywhere",
                                "Someone")
    decision = benchmark(guard.try_execute, update)
    assert not decision.legal and not decision.applied
