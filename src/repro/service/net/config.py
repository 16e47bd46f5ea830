"""Picklable service configuration shared by front end and workers.

Worker processes are started with the ``spawn`` context (no inherited
interpreter state), so everything a worker needs to reconstruct its
checking stack travels as plain text in one frozen dataclass: DTDs,
XPathLog denials, registered update patterns, and the initial
documents every new document group starts from.  The front end and the
conformance oracle build their schemas from the *same* config, which
is what makes verdict equality a meaningful assertion.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.schema import ConstraintSchema
from repro.xtree.node import Document
from repro.xtree.parser import parse_document

__all__ = ["ServiceConfig"]


@dataclass(frozen=True)
class ServiceConfig:
    """Everything a worker needs, as picklable text.

    ``documents`` seed every new document group: the first request
    that touches an unknown uid opens a durable service over the
    parsed copies (an existing shard state directory wins: it is
    recovered instead, and the seed is not parsed at all).
    ``allow_test_ops`` gates the ``arm`` worker op the chaos suite uses
    to schedule deterministic kills; it must stay off for real
    deployments.
    """

    dtds: tuple[str, ...]
    constraints: tuple[str, ...]
    constraint_names: "tuple[str, ...] | None" = None
    patterns: tuple[str, ...] = ()
    documents: tuple[str, ...] = ()
    snapshot_interval: int = 64
    sync_writes: bool = True
    allow_test_ops: bool = False
    #: extra environment for initially spawned workers (worker id →
    #: mapping), applied only on first spawn — restarts come up clean.
    #: Test-only, like ``allow_test_ops``.
    worker_env: "dict[int, dict[str, str]]" = field(default_factory=dict)

    def build_schema(self) -> ConstraintSchema:
        schema = ConstraintSchema(
            list(self.dtds), list(self.constraints),
            names=list(self.constraint_names)
            if self.constraint_names else None)
        for pattern in self.patterns:
            schema.register_pattern(pattern)
        return schema

    def initial_documents(self) -> list[Document]:
        return [parse_document(text) for text in self.documents]
