"""Shared fixtures: the paper's running example, small documents.

Also registers the hypothesis *settings profiles* used across the
property-test suite.  ``HYPOTHESIS_PROFILE`` selects one:

* ``dev`` (default) — 50 examples, quick local iteration;
* ``ci`` — 100 examples, what the tier-1 CI job runs;
* ``nightly`` — 500 examples, for scheduled deep runs.

All profiles disable the per-example deadline: corpus-backed
properties routinely blow the 200 ms default on shared runners.
Individual tests only override ``max_examples`` when their generator
is too expensive for even the dev budget (the planner and atomicity
suites); everything else inherits the profile unmodified.
"""

from __future__ import annotations

import os
import random

import pytest
from hypothesis import settings

from repro.datagen import (
    CorpusSpec,
    generate_corpus,
    make_schema,
)
from repro.datagen.running_example import PUB_DTD, REV_DTD
from repro.relational import RelationalSchema
from repro.xtree import parse_document, parse_dtd

settings.register_profile("dev", max_examples=50, deadline=None)
settings.register_profile("ci", max_examples=100, deadline=None)
settings.register_profile("nightly", max_examples=500, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))


@pytest.fixture(scope="session")
def pub_dtd():
    return parse_dtd(PUB_DTD)


@pytest.fixture(scope="session")
def rev_dtd():
    return parse_dtd(REV_DTD)


@pytest.fixture(scope="session")
def relational_schema(pub_dtd, rev_dtd) -> RelationalSchema:
    return RelationalSchema.from_dtds([pub_dtd, rev_dtd])


@pytest.fixture(scope="session")
def constraint_schema():
    """The fully compiled running-example schema (both constraints,
    submission patterns registered)."""
    return make_schema()


PUB_XML = """<dblp>
 <pub><title>Duckburg tales</title>
   <aut><name>Alice</name></aut><aut><name>Bob</name></aut></pub>
 <pub><title>Mouseton stories</title>
   <aut><name>Carol</name></aut></pub>
 <pub><title>Calisota chronicles</title>
   <aut><name>Carol</name></aut><aut><name>Dan</name></aut></pub>
</dblp>"""

REV_XML = """<review>
 <track><name>Databases</name>
  <rev><name>Alice</name>
   <sub><title>Streams</title><auts><name>Erin</name></auts></sub>
   <sub><title>Joins</title><auts><name>Frank</name></auts></sub>
  </rev>
  <rev><name>Grace</name>
   <sub><title>Views</title><auts><name>Erin</name></auts>
        <auts><name>Heidi</name></auts></sub>
  </rev>
 </track>
 <track><name>Theory</name>
  <rev><name>Alice</name>
   <sub><title>Automata</title><auts><name>Ivan</name></auts></sub>
  </rev>
 </track>
</review>"""


@pytest.fixture()
def pub_doc():
    return parse_document(PUB_XML)


@pytest.fixture()
def rev_doc():
    return parse_document(REV_XML)


@pytest.fixture()
def documents(pub_doc, rev_doc):
    return [pub_doc, rev_doc]


@pytest.fixture()
def small_corpus():
    spec = CorpusSpec(tracks=3, revs_per_track=4, subs_per_rev=3, pubs=20,
                      busy_reviewers=1, seed=42)
    return generate_corpus(spec)


@pytest.fixture()
def rng():
    return random.Random(20060328)
