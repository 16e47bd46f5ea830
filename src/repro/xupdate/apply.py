"""Executing XUpdate operations on a document, with rollback support.

The evaluation section of the paper compares the optimized strategy
(check first, then apply) against the brute-force one (apply, check,
roll back on violation); rollbacks are "simulated by performing a
compensating action" — here the exact inverse operation recorded by
:class:`AppliedOperation`.

Multi-operation updates are made atomic by :class:`TransactionLog`,
which generalizes one undo record to a whole sequence: every path that
applies more than one operation runs inside a log, and any exception —
failed select, malformed content, violation mid-probe — restores the
exact pre-call state.

A select is resolved to its one element by :func:`resolve_select`: the
dominant shape — absolute child steps with positional predicates — is
a walk over ``element.children``, with or without a column store;
every other select is evaluated by the reference engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.errors import AmbiguousSelectError, UpdateApplicationError
from repro.testing.failpoints import fail
from repro.xquery.ast import Expression, Literal, PathExpr
from repro.xquery.engine import evaluate_query
from repro.xquery.parser import parse_query
from repro.xtree.node import Document, Element, Node
from repro.xupdate.parser import (
    InsertOperation,
    Operation,
    RemoveOperation,
    parse_modifications,
)


@dataclass
class AppliedOperation:
    """The result of one executed operation, undoable via
    :meth:`rollback`."""

    document: Document
    #: nodes inserted (attached), in insertion order
    inserted: list[Node]
    #: (parent, index, node) triples for removed nodes
    removed: list[tuple[Element, int, Node]]
    rolled_back: bool = False

    def rollback(self) -> None:
        """Undo the operation (compensating action)."""
        if self.rolled_back:
            raise UpdateApplicationError("operation already rolled back")
        for node in reversed(self.inserted):
            parent = node.parent
            if parent is None:
                raise UpdateApplicationError(
                    "inserted node already detached; cannot roll back")
            parent.remove(node)
        for parent, index, node in reversed(self.removed):
            parent.insert(index, node)
        self.rolled_back = True


class TransactionLog:
    """Undo log making a multi-operation update atomic.

    Generalizes a single :class:`AppliedOperation` to a sequence: each
    :meth:`apply` executes one operation and records its undo record,
    and :meth:`rollback` undoes the whole sequence newest-first.  Used
    as a context manager the log is *abort-by-default*: leaving the
    block without :meth:`commit` — an exception, or a deliberate
    apply-check-rollback probe — restores the exact pre-transaction
    state.  Each undo record is rolled back at most once, whichever
    combination of explicit and exit-time rollback runs.
    """

    def __init__(self) -> None:
        self._records: list[AppliedOperation] = []
        self._state = "open"

    @property
    def records(self) -> list[AppliedOperation]:
        """The undo records recorded so far (a copy)."""
        return list(self._records)

    @property
    def state(self) -> str:
        """``"open"``, ``"committed"`` or ``"rolled-back"``."""
        return self._state

    def __len__(self) -> int:
        return len(self._records)

    def apply(self, document: Document,
              operation: Operation) -> AppliedOperation:
        """Execute one operation and record its undo record."""
        self._require_open()
        fail.point("xupdate.apply.pre_op")
        record = apply_operation(document, operation)
        self._records.append(record)
        fail.point("xupdate.apply.post_op")
        return record

    def record(self, record: AppliedOperation) -> AppliedOperation:
        """Adopt an operation that was applied outside the log."""
        self._require_open()
        self._records.append(record)
        return record

    def commit(self) -> None:
        """Keep the applied operations; rollback becomes impossible."""
        self._require_open()
        self._state = "committed"

    def rollback(self) -> None:
        """Undo every recorded operation, newest first."""
        self._require_open()
        self._abort()

    def _require_open(self) -> None:
        if self._state != "open":
            raise UpdateApplicationError(
                f"transaction already {self._state}")

    def _abort(self) -> None:
        fail.point("xupdate.rollback.pre")
        for record in reversed(self._records):
            if not record.rolled_back:
                record.rollback()
        self._state = "rolled-back"
        fail.point("xupdate.rollback.post")

    def __enter__(self) -> "TransactionLog":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self._state == "open":
            try:
                self._abort()
            except Exception:
                # An abort interrupted mid-compensation (a transient
                # fault) is retried once: each undo record rolls back
                # at most once, so the retry resumes where the first
                # attempt stopped instead of compensating twice.  A
                # retry that fails too propagates — the state is then
                # genuinely unrecoverable in-process.
                if self._state == "open":
                    self._abort()
                raise
        return False


@lru_cache(maxsize=512)
def parsed_select(select: str) -> Expression:
    """The (cached) parse of a select path.

    Selects repeat heavily (every update against the same anchor
    re-resolves the same path) and parsing them per operation is the
    last run-time lexing the guard would otherwise do.
    """
    return parse_query(select)


def _positional(items: list[Element],
                predicates: tuple) -> list[Element]:
    for predicate in predicates:
        index = predicate.value
        items = [items[index - 1]] if 1 <= index <= len(items) else []
    return items


def _walk_select(document: Document,
                 expression: Expression) -> "list[Element] | None":
    """Resolve a simple select by walking the DOM.

    Covers the dominant select shape — an absolute child-step path
    with integer positional predicates (``/review/track[2]/rev[5]``):
    each step takes the children with the step's tag — already in
    document order — and indexes them by position.  Returns ``None``
    (the engine decides) for anything outside that fragment.
    """
    if not isinstance(expression, PathExpr) or expression.start is not None \
            or any(expression.descendant_flags) or not expression.steps:
        return None
    for step in expression.steps:
        if step.axis != "child" or step.nodetest in (
                "*", "text()", "node()", "position()"):
            return None
        for predicate in step.predicates:
            if not (isinstance(predicate, Literal)
                    and isinstance(predicate.value, int)
                    and not isinstance(predicate.value, bool)):
                return None
    first = expression.steps[0]
    root = document.root
    current = _positional([root] if root.tag == first.nodetest else [],
                          first.predicates)
    for step in expression.steps[1:]:
        current = [
            match for element in current
            for match in _positional(
                element.element_children(step.nodetest), step.predicates)]
    return current


def resolve_select(document: Document, select: str) -> Element:
    """Resolve a select path to a single element of the document.

    A select matching more than one element is rejected: silently
    mutating only the first match would make the applied update depend
    on document order the caller never sees.
    """
    expression = parsed_select(select)
    elements = _walk_select(document, expression)
    if elements is None:
        result = evaluate_query(expression, document)
        elements = [item for item in result
                    if isinstance(item, Element)]
    if not elements:
        raise UpdateApplicationError(
            f"select {select!r} matches no element")
    if len(elements) > 1:
        raise AmbiguousSelectError(
            f"select {select!r} is ambiguous: it matches "
            f"{len(elements)} elements; qualify the path (e.g. with "
            "positional predicates) until exactly one matches")
    return elements[0]


def apply_operation(document: Document,
                    operation: Operation) -> AppliedOperation:
    """Execute one operation and return its undo record."""
    if isinstance(operation, InsertOperation):
        return _apply_insert(document, operation)
    assert isinstance(operation, RemoveOperation)
    return _apply_remove(document, operation)


def _apply_insert(document: Document,
                  operation: InsertOperation) -> AppliedOperation:
    anchor = resolve_select(document, operation.select)
    content = [_deep_copy(node) for node in operation.content]
    inserted: list[Node] = []
    if operation.kind == "append":
        for node in content:
            anchor.append(node)
            inserted.append(node)
    else:
        parent = anchor.parent
        if parent is None:
            raise UpdateApplicationError(
                "cannot insert a sibling of the document root")
        reference: Node = anchor
        if operation.kind == "before":
            for node in content:
                parent.insert_before(reference, node)
                inserted.append(node)
        else:
            for node in content:
                parent.insert_after(reference, node)
                inserted.append(node)
                reference = node
    return AppliedOperation(document, inserted, [])


def _apply_remove(document: Document,
                  operation: RemoveOperation) -> AppliedOperation:
    target = resolve_select(document, operation.select)
    parent = target.parent
    if parent is None:
        raise UpdateApplicationError("cannot remove the document root")
    index = parent.children.index(target)
    parent.remove(target)
    return AppliedOperation(document, [], [(parent, index, target)])


def apply_text(document: Document, text: str) -> list[AppliedOperation]:
    """Parse and execute a whole modification document, atomically."""
    log = TransactionLog()
    with log:
        for operation in parse_modifications(text):
            log.apply(document, operation)
        log.commit()
    return log.records


def _deep_copy(node: Node) -> Node:
    """Copy a detached content tree so operations can be re-applied."""
    from repro.xtree.node import Text
    if isinstance(node, Text):
        return Text(node.value)
    assert isinstance(node, Element)
    copy = Element(node.tag, dict(node.attributes))
    for child in node.children:
        copy.append(_deep_copy(child))
    return copy
