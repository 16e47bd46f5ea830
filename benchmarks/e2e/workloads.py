"""The benchmark's workloads: deployments and seeded op streams.

Every workload is a *deployment* (worker count, document groups,
corpus size) plus an endless, deterministic stream of **cycles**.  A
cycle is the smallest run of ops that leaves every document exactly as
it found it (an append is always followed by the removal of the same
``sub``), so documents stay the same size however long a run lasts and
a run may stop after any whole cycle.  Streams and corpora are pure
functions of ``--seed``; the server only ever sees the generated files
and requests.

The one-line rationale of each workload is its ``why`` (it is also the
``why`` recorded in ``BENCHMARK.json``); the longer argument — which
layer each one stresses and which it bypasses — is in ``README.md``.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, replace
from typing import Callable, Iterator

from repro.datagen import generate_corpus, spec_for_size
from repro.datagen.running_example import (
    CONFERENCE_WORKLOAD,
    CONFLICT_OF_INTEREST,
    PUB_DTD,
    REV_DTD,
    submission_xupdate,
)
from repro.service.net import ServiceConfig
from repro.xtree.serializer import serialize

#: WAL checkpoint cadence of every deployment (``--snapshot-interval``)
SNAPSHOT_INTERVAL = 64
#: updates per ``/check_batch`` request in ``batch_write_128k``
BATCH_SIZE = 32

_XUPDATE_HEAD = ('<?xml version="1.0"?>\n<xupdate:modifications '
                 'version="1.0"\n    '
                 'xmlns:xupdate="http://www.xmldb.org/xupdate">\n')


@dataclass(frozen=True)
class Op:
    """One request: ``kind`` is the endpoint, ``klass`` the latency
    class it is reported under, ``count`` the ops it stands for (a
    batch request decides ``BATCH_SIZE`` updates)."""

    kind: str  # update | check | check_batch | read
    uid: str
    klass: str
    payload: "str | tuple[str, ...] | None" = None
    count: int = 1


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    size_kib: int
    workers: int
    groups: int
    #: latency class whose median is the workload's ``p50_ms``
    primary: str
    #: untimed cycles before measuring: caches fill, lazy set-up ends
    warmup_cycles: int
    #: measured cycles of an in-process replay per second of
    #: ``--seconds`` (a frozen count, so per-layer counts repeat
    #: exactly); sized so a replay takes about a quarter of the run
    trace_cycles_per_s: float
    #: (reviewer iterator, rng, uids) -> endless stream of cycles
    make_cycles: "Callable[[Iterator[Target], random.Random, list[str]], Iterator[list[Op]]]"

    def uids(self) -> list[str]:
        if self.groups == 1:
            return ["main"]
        return [f"g{index:02d}" for index in range(self.groups)]


Target = tuple  # (track, rev, reviewer name, sub count)


def reviewer_targets(rev_doc) -> "list[Target]":
    """The non-busy reviewers of a corpus, in document order.

    The sub count addresses the ``sub`` an append creates
    (``count + 1``) so the matching removal can select it.
    """
    entries = []
    tracks = rev_doc.root.element_children("track")
    for track_no, track in enumerate(tracks, start=1):
        revs = track.element_children("rev")
        for rev_no, rev in enumerate(revs, start=1):
            name = rev.first_child("name").text()
            if not name.startswith("Busy Reviewer"):
                entries.append((track_no, rev_no, name,
                                len(rev.element_children("sub"))))
    return entries


# -- update texts -----------------------------------------------------------
# Titles and author names are fixed-width so that bytes logged per byte
# submitted repeat exactly from run to run.


def _serial(rng: random.Random) -> str:
    return f"{rng.randrange(10 ** 9):09d}"


def legal_append(target, rng: random.Random) -> str:
    """Pattern-U append with a never-seen author: passes both checks."""
    track, rev, _name, _subs = target
    return submission_xupdate(track, rev, f"Bench Sub {_serial(rng)}",
                              f"Fresh Author {_serial(rng)}")


def illegal_append(target, rng: random.Random) -> str:
    """Pattern-U append whose author *is* the reviewer (``A = R``)."""
    track, rev, name, _subs = target
    return submission_xupdate(track, rev, f"Conflict {_serial(rng)}",
                              name)


def two_author_append(target, rng: random.Random) -> str:
    """A legal append no registered pattern matches (two ``auts``), so
    the guard falls back to apply / full check / roll back."""
    track, rev, _name, _subs = target
    return (f'{_XUPDATE_HEAD}  <xupdate:append '
            f'select="/review/track[{track}]/rev[{rev}]">\n'
            '    <xupdate:element name="sub">\n'
            f'      <title>Joint Sub {_serial(rng)}</title>\n'
            f'      <auts><name>Fresh Author {_serial(rng)}</name></auts>\n'
            f'      <auts><name>Fresh Author {_serial(rng)}</name></auts>\n'
            '    </xupdate:element>\n'
            '  </xupdate:append>\n</xupdate:modifications>')


def removal(target) -> str:
    """Remove the ``sub`` the preceding append put last."""
    track, rev, _name, subs = target
    return (f'{_XUPDATE_HEAD}  <xupdate:remove select='
            f'"/review/track[{track}]/rev[{rev}]/sub[{subs + 1}]"/>\n'
            '</xupdate:modifications>')


# -- cycle generators -------------------------------------------------------


def _legal_write(targets, rng, uids):
    uid = uids[0]
    while True:
        target = next(targets)
        yield [Op("update", uid, "append", legal_append(target, rng)),
               Op("update", uid, "remove", removal(target))]


def _illegal_reject(targets, rng, uids):
    uid = uids[0]
    while True:
        yield [Op("update", uid, "reject",
                  illegal_append(next(targets), rng))]


def _batch_write(targets, rng, uids):
    uid = uids[0]
    half = BATCH_SIZE // 2
    while True:
        batch = [next(targets) for _ in range(half)]
        updates = [legal_append(target, rng) for target in batch]
        updates += [removal(target) for target in batch]
        yield [Op("check_batch", uid, "batch", tuple(updates),
                  count=BATCH_SIZE)]


def _read_check(targets, rng, uids):
    uid = uids[0]
    while True:
        target = next(targets)
        yield [Op("update", uid, "append", legal_append(target, rng)),
               Op("check", uid, "check"),
               Op("check", uid, "check"),
               Op("check", uid, "check"),
               Op("read", uid, "read"),
               Op("update", uid, "remove", removal(target))]


def _probe_fallback(targets, rng, uids):
    uid = uids[0]
    while True:
        target = next(targets)
        yield [Op("update", uid, "probe", two_author_append(target, rng)),
               Op("update", uid, "remove", removal(target))]


def _many_groups(targets, rng, uids):
    # 4 balanced legal writes to 1 illegal submission, one group after
    # the other: each request lands on a document the previous 31
    # requests' caches were not built for
    while True:
        for uid in uids:
            first, second = next(targets), next(targets)
            yield [
                Op("update", uid, "append", legal_append(first, rng)),
                Op("update", uid, "remove", removal(first)),
                Op("update", uid, "append", legal_append(second, rng)),
                Op("update", uid, "remove", removal(second)),
                Op("update", uid, "reject",
                   illegal_append(next(targets), rng))]


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        "legal_write_128k",
        "legal pattern-U append + remove: the paper's happy path; "
        "snapshot publish, WAL and apply do the work, the check "
        "almost none",
        size_kib=128, workers=1, groups=1,
        primary="append", warmup_cycles=16,
        trace_cycles_per_s=6.0, make_cycles=_legal_write),
    Workload(
        "illegal_reject_128k",
        "100% conflict-of-interest rejects with unique titles: early "
        "detection, no WAL, no clone; codec, parse, bind and the "
        "optimized check are the whole cost",
        size_kib=128, workers=1, groups=1,
        primary="reject", warmup_cycles=64,
        trace_cycles_per_s=500.0, make_cycles=_illegal_reject),
    Workload(
        "batch_write_128k",
        "check_batch of 32 (16 appends, 16 removes): one HTTP/lock/"
        "publish round but 32 WAL appends, so group commit shows "
        "here and O(delta) publish does not",
        size_kib=128, workers=1, groups=1,
        primary="batch", warmup_cycles=3,
        trace_cycles_per_s=4.0, make_cycles=_batch_write),
    Workload(
        "read_check_128k",
        "append, 3x /check, /read, remove: full-constraint checks and "
        "whole-document reads right after a write, so cost pushed "
        "onto the next reader shows as a loss",
        size_kib=128, workers=1, groups=1,
        primary="check", warmup_cycles=3,
        trace_cycles_per_s=2.5, make_cycles=_read_check),
    Workload(
        "probe_fallback_128k",
        "legal two-author append (no registered pattern) + remove: "
        "apply, full check, roll back, commit; fig. 1 curve (iii) at "
        "the service boundary",
        size_kib=128, workers=1, groups=1,
        primary="probe", warmup_cycles=4,
        trace_cycles_per_s=4.0, make_cycles=_probe_fallback),
    Workload(
        "many_groups_32k",
        "2 workers, 32 groups of 32 KiB round-robin, 80% legal "
        "writes / 20% rejects: working set beyond the per-document "
        "caches, fixed per-request cost is a larger share",
        size_kib=32, workers=2, groups=32,
        primary="append", warmup_cycles=32,
        trace_cycles_per_s=10.0, make_cycles=_many_groups),
)}


# -- corpora ----------------------------------------------------------------


@dataclass(frozen=True)
class Inputs:
    """Everything a run feeds the system, derived from one seed."""

    config: ServiceConfig
    targets: "list[Target]"
    doc_bytes: int


def make_inputs(workload: Workload, seed: int) -> Inputs:
    spec = replace(spec_for_size(workload.size_kib * 1024), seed=seed)
    pub_doc, rev_doc = generate_corpus(spec)
    pub_xml, rev_xml = serialize(pub_doc), serialize(rev_doc)
    patterns = (submission_xupdate(1, 1, "x", "y", kind="append"),
                submission_xupdate(1, 1, "x", "y", kind="after"))
    # the CLI compiles constraints without names, so the oracle's
    # config must not name them either (violated lists compare equal)
    config = ServiceConfig(
        dtds=(PUB_DTD, REV_DTD),
        constraints=(CONFLICT_OF_INTEREST.strip(),
                     CONFERENCE_WORKLOAD.strip()),
        patterns=patterns,
        documents=(pub_xml, rev_xml),
        snapshot_interval=SNAPSHOT_INTERVAL,
        sync_writes=True)
    return Inputs(config, reviewer_targets(rev_doc),
                  len(pub_xml.encode()) + len(rev_xml.encode()))


def cycles(workload: Workload, inputs: Inputs, seed: int,
           phase: str = "") -> Iterator[list[Op]]:
    """The workload's endless cycle stream for ``seed``.

    Streams of different ``phase`` have the same shape — same targets
    in the same order, same text sizes — but different titles and
    author names, so a phase that runs in a process where another
    already ran (the in-process replays) does not find its updates in
    the update-parse cache."""
    return workload.make_cycles(itertools.cycle(inputs.targets),
                                random.Random(f"{seed}/{phase}"),
                                workload.uids())
