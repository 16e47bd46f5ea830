"""Span tracing from the outside: wrap the layers' public entry points.

Nothing under ``src/`` knows about tracing.  The benchmark process
replaces each layer's *public* entry point with a wrapper that records
one span per call — name, start, end, the span that caused it and (by
way of its root) the request being served — keeps the spans in memory,
and writes them out when the run ends.  A span's **self time** is its duration
minus the part its child spans cover; self times of one request
partition the ``worker.handle`` root span exactly.

Spans inside the program (lock waits, column maintenance, the edge's
event loop) are a later change; until then their time is self time of
the enclosing span.
"""

from __future__ import annotations

import json
import os
import sys
import time
from array import array
from contextlib import contextmanager
from pathlib import Path

#: the root span of every request
ROOT = "worker.handle"


def _targets() -> "list[tuple[object, str, str]]":
    """(owner, attribute, span name) of every wrapped entry point.

    Imported here, not at module level, so that importing this module
    neither imports nor patches anything."""
    from repro.core.guard import IntegrityGuard
    from repro.core import guard as guard_module
    from repro.core.schema import ConstraintSchema
    from repro.service import persistence
    from repro.service.net.worker import ShardWorker
    from repro.service.persistence import DurableLog
    from repro.service.snapshots import SnapshotManager
    from repro.service.store import CheckingService
    from repro.xquery.translate import TranslatedQuery
    from repro.xtree import parser as xtree_parser
    from repro.xtree import serializer as xtree_serializer
    from repro.xupdate import analyze, apply
    from repro.xupdate import parser as xupdate_parser
    from repro.xupdate.analyze import AnalyzedUpdate
    from repro.xupdate.apply import AppliedOperation

    return [
        (ShardWorker, "handle", ROOT),
        (CheckingService, "try_execute", "store.try_execute"),
        (CheckingService, "check_batch", "store.check_batch"),
        (CheckingService, "verify_consistency", "store.check"),
        (CheckingService, "snapshot", "store.read"),
        (SnapshotManager, "publish", "snapshots.publish"),
        (DurableLog, "append", "persistence.append"),
        (persistence, "write_snapshot", "persistence.checkpoint"),
        (IntegrityGuard, "try_execute", "guard.try_execute"),
        (IntegrityGuard, "check_batch", "guard.check_batch"),
        (xupdate_parser, "parse_modifications", "xupdate.parse"),
        (analyze, "signature_of", "xupdate.bind"),
        (ConstraintSchema, "checks_for", "xupdate.bind"),
        (AnalyzedUpdate, "bind", "xupdate.bind"),
        (TranslatedQuery, "truth", "xquery.truth"),
        (guard_module, "verify_documents", "xquery.full_check"),
        (apply, "apply_operation", "xupdate.apply"),
        (AppliedOperation, "rollback", "xupdate.rollback"),
        (xtree_serializer, "serialize", "xtree.serialize"),
        (xtree_parser, "parse_document", "xtree.parse"),
    ]


class Span:
    """One recorded call (a read-only view into the tracer's columns)."""

    __slots__ = ("name", "start", "end", "parent", "request")

    def __init__(self, name: str, start: float, end: float,
                 parent: int, request: int) -> None:
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent  # index of the causing span, -1 = root
        self.request = request  # ordinal of the request's root span

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder; one per traced replay.

    Spans are stored column-wise in flat arrays, not as objects: a
    container per span would make the cyclic garbage collector run
    (and walk the documents' trees) far more often than in the
    untraced replay, and the overhead would be the collector's."""

    def __init__(self) -> None:
        self.names: "list[str]" = []
        self._name: "array[int]" = array("i")
        self._start: "array[float]" = array("d")
        self._end: "array[float]" = array("d")
        self._parent: "array[int]" = array("i")
        self.fsyncs = 0
        self._stack: "list[int]" = []
        self._spans: "list[Span]" = []

    def __len__(self) -> int:
        return len(self._start)

    def spans(self) -> "list[Span]":
        """Every span, in start order.  The n-th ``worker.handle``
        root and everything under it belong to request n; a span
        outside any request carries -1."""
        if len(self._spans) == len(self):
            return self._spans  # nothing recorded since the last call
        spans: "list[Span]" = []
        requests = 0
        for index in range(len(self)):
            name = self.names[self._name[index]]
            parent = self._parent[index]
            if parent >= 0:
                request = spans[parent].request
            elif name == ROOT:
                request = requests
                requests += 1
            else:
                request = -1
            spans.append(Span(name, self._start[index],
                              self._end[index], parent, request))
        self._spans = spans
        return spans

    def _wrap(self, name: str, function):
        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)
        names, starts, ends = self._name, self._start, self._end
        parents, stack = self._parent, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                return function(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        traced.__wrapped__ = function
        return traced

    @contextmanager
    def installed(self):
        """Patch every entry point for the duration of the block.

        Module-level functions are also rebound in every ``repro``
        module that imported them by name (``from x import f``), which
        is how the layers call each other."""
        undo: "list[tuple[object, str, object]]" = []

        def patch(owner, attribute, replacement) -> None:
            undo.append((owner, attribute, getattr(owner, attribute)))
            setattr(owner, attribute, replacement)

        repro_modules = [module for name, module
                         in list(sys.modules.items())
                         if name.split(".")[0] == "repro"
                         and module is not None]
        try:
            for owner, attribute, name in _targets():
                original = getattr(owner, attribute)
                wrapper = self._wrap(name, original)
                patch(owner, attribute, wrapper)
                if isinstance(owner, type):
                    continue
                for module in repro_modules:
                    for key, value in list(vars(module).items()):
                        if value is original and module is not owner:
                            patch(module, key, wrapper)
            real_fsync = os.fsync

            def counted_fsync(fd):
                self.fsyncs += 1
                return real_fsync(fd)

            patch(os, "fsync", counted_fsync)
            yield self
        finally:
            for owner, attribute, original in reversed(undo):
                setattr(owner, attribute, original)

    # -- analysis -----------------------------------------------------------

    def per_request(self) -> "dict[int, dict[str, list[float]]]":
        """request id → span name → [inclusive seconds, self seconds].

        A span nested in one of the same name adds no inclusive time
        (it is already inside its ancestor's)."""
        spans = self.spans()
        children = [0.0] * len(spans)
        for span in spans:
            if span.parent >= 0:
                children[span.parent] += span.duration
        requests: "dict[int, dict[str, list[float]]]" = {}
        for index, span in enumerate(spans):
            parent = span.parent
            while parent >= 0 and spans[parent].name != span.name:
                parent = spans[parent].parent
            entry = requests.setdefault(span.request, {}) \
                .setdefault(span.name, [0.0, 0.0])
            if parent < 0:
                entry[0] += span.duration
            entry[1] += span.duration - children[index]
        return requests

    def dump(self, path: Path, meta: dict) -> None:
        """Write every span out, column-wise."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"meta": meta, "fsyncs": self.fsyncs,
                       "names": self.names,
                       "name": self._name.tolist(),
                       "start_s": self._start.tolist(),
                       "end_s": self._end.tolist(),
                       "parent": self._parent.tolist(),
                       "request": [span.request
                                   for span in self.spans()]}, handle)
