"""Incrementally-maintained column stores attached to documents.

A :class:`ColumnStore` keeps the columnar relations of
:mod:`repro.relational.columns` consistent with a live
:class:`~repro.xtree.node.Document` while updates are applied.  It
registers a mutation listener with the document and patches the
materialized tables and value indexes from each adopt/orphan delta —
subtree row appends/removals, a sibling-position pass at the mutation
parent, and a value/key refresh along the ancestor chain — instead of
re-shredding the document per check.

Crash consistency follows a *write-ahead invalidation* protocol: the
listener first marks the store dirty (``_synced_revision = None``),
then patches, then stamps the document's revision back.  A fault
anywhere inside the delta — including the injected
``columns.delta.*`` failpoints — leaves the store dirty, and the next
read rebuilds every materialized structure from the DOM.  Listener
exceptions are never allowed to escape: they would otherwise tear the
structural mutation that triggered them (the undo record for an insert
is only created *after* the insert returns), so the delta is the one
layer that degrades to a rebuild rather than failing loudly.

Validation is a single integer comparison per read
(``_synced_revision == document.revision``); the store never serves
stale data because every mutation path funnels through
``Document.adopt``/``orphan`` under the document lock.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from repro.analysis.concurrency import guarded_by, requires_lock
from repro.relational.columns import (
    Downpath,
    PathIndex,
    TagTable,
    chain_reaches,
)
from repro.relational.shredder import iter_facts
from repro.testing.failpoints import fail
from repro.xtree.node import Document, Element, Node, Text

if TYPE_CHECKING:  # pragma: no cover
    from repro.relational.schema import RelationalSchema

#: adaptive warming: every (tag, downpath) index and table tag ever
#: materialized on a store, keyed by the document's root tag.  A fresh
#: attach() prebuilds these for its document, so a new corpus of a
#: known shape starts its first check with warm columns instead of
#: paying cold builds on the critical path.
_HOT_INDEXES: dict[str, dict[tuple[str, Downpath], None]] = {}
_HOT_TABLES: dict[str, dict[str, None]] = {}
_HOT_CAP = 64


@guarded_by("self.document._lock", "_tables", "_indexes",
            "_synced_revision")
class ColumnStore:
    """The columnar mirror of one document.

    Tables and indexes materialize lazily (first use by the planner or
    the guard) and are maintained incrementally afterwards.  All state
    transitions happen under the document's RLock: reads take it to
    validate/build, and the mutation listener already runs inside it.
    """

    __slots__ = ("document", "relational", "_tables", "_indexes",
                 "_synced_revision", "delta_failures", "rebuilds")

    def __init__(self, document: Document,
                 relational: "RelationalSchema | None" = None) -> None:
        self.document = document
        self.relational = relational
        self._tables: dict[str, TagTable] = {}
        #: (tag, downpath) → index
        self._indexes: dict[tuple[str, Downpath], PathIndex] = {}
        #: the document revision the store mirrors; ``None`` = dirty
        self._synced_revision: int | None = document.revision
        #: deltas abandoned to a fault (the store self-healed after)
        self.delta_failures = 0
        #: full rebuilds triggered by a dirty read
        self.rebuilds = 0

    # -- reads -----------------------------------------------------------

    def table(self, tag: str) -> TagTable:
        """The (validated) table of one tag, built on first use."""
        with self.document._lock:
            self._validate()
            table = self._tables.get(tag)
            if table is None:
                table = self._build_table(tag)
                self._tables[tag] = table
                self._note_hot(_HOT_TABLES, tag)
            return table

    def value_index(self, tag: str, steps: Downpath) -> PathIndex:
        """The (validated) value index of one (tag, downpath)."""
        with self.document._lock:
            self._validate()
            index = self._indexes.get((tag, steps))
            if index is None:
                index = self._build_index(tag, steps)
                self._indexes[(tag, steps)] = index
                self._note_hot(_HOT_INDEXES, (tag, steps))
            return index

    def _note_hot(self, registry: dict, spec: object) -> None:
        specs = registry.setdefault(self.document.root.tag, {})
        if spec not in specs and len(specs) < _HOT_CAP:
            specs[spec] = None

    def warm(self) -> None:
        """Prebuild the structures past workloads used on this shape.

        Called by :func:`attach`, off the checking critical path: the
        first check over a fresh document then finds its tables and
        value indexes already materialized.
        """
        root_tag = self.document.root.tag
        with self.document._lock:
            self._validate()
            for tag in _HOT_TABLES.get(root_tag, ()):
                if tag not in self._tables:
                    self._tables[tag] = self._build_table(tag)
            for tag, steps in _HOT_INDEXES.get(root_tag, ()):
                if (tag, steps) not in self._indexes:
                    self._indexes[(tag, steps)] = self._build_index(
                        tag, steps)

    @property
    def dirty(self) -> bool:
        with self.document._lock:
            return self._synced_revision != self.document.revision

    def settle(self) -> None:
        """Eagerly rebuild if dirty (batch boundaries call this)."""
        with self.document._lock:
            self._validate()

    # -- construction / validation --------------------------------------

    def _build_table(self, tag: str) -> TagTable:
        predicate = None
        if self.relational is not None \
                and self.relational.has_predicate(tag):
            predicate = self.relational.predicate_for(tag)
        table = TagTable(tag, predicate)
        for element in self._elements(tag):
            table.append(element)
        return table

    def _build_index(self, tag: str, steps: Downpath) -> PathIndex:
        index = PathIndex(tag, steps)
        for element in self._elements(tag):
            index.add(element)
        return index

    def _elements(self, tag: str) -> list[Element]:
        return self.document.elements_by_tag(tag)

    @requires_lock("self.document._lock")
    def _validate(self) -> None:
        """Rebuild every materialized structure if the store is dirty.

        The rebuild constructs into fresh containers and swaps them in
        only on success, so a fault mid-rebuild (``columns.rebuild``)
        leaves the store dirty and the next read retries.
        """
        if self._synced_revision == self.document.revision:
            return
        fail.point("columns.rebuild")
        tables = {tag: self._build_table(tag) for tag in self._tables}
        indexes = {key: self._build_index(*key) for key in self._indexes}
        self._tables = tables
        self._indexes = indexes
        self.rebuilds += 1
        self._synced_revision = self.document.revision

    # -- delta maintenance -----------------------------------------------

    @requires_lock("self.document._lock")
    def _on_mutation(self, kind: str, node: Node,
                     parent: Element | None) -> None:
        """Mutation listener: patch columns from one adopt/orphan.

        Runs under the document lock, inside the structural mutation.
        Must not raise (see module docstring); any failure counts in
        ``delta_failures`` and leaves the store dirty for a lazy
        rebuild.
        """
        if not self._tables and not self._indexes:
            # nothing materialized yet: stay trivially in sync
            self._synced_revision = self.document.revision
            return
        if self._synced_revision is None:
            return  # already dirty; the next read rebuilds anyway
        self._synced_revision = None  # write-ahead invalidation
        try:
            fail.point("columns.delta.apply")
            self._apply_delta(kind, node, parent)
            fail.point("columns.delta.settle")
        except Exception:
            self.delta_failures += 1
            return  # stays dirty
        self._synced_revision = self.document.revision

    @requires_lock("self.document._lock")
    def _apply_delta(self, kind: str, node: Node,
                     parent: Element | None) -> None:
        if isinstance(node, Element):
            if kind == "adopt":
                for element in node.iter_elements():
                    table = self._tables.get(element.tag)
                    if table is not None:
                        table.append(element)
                    for index in self._indexes_for(element.tag):
                        index.add(element)
            else:
                for element in node.iter_elements():
                    table = self._tables.get(element.tag)
                    if table is not None:
                        table.discard(element)
                    for index in self._indexes_for(element.tag):
                        index.discard(element)
            if parent is not None:
                self._refresh_positions(parent)
        self._refresh_ancestors(parent)

    @requires_lock("self.document._lock")
    def _indexes_for(self, tag: str) -> "list[PathIndex]":
        return [index for (index_tag, _), index in self._indexes.items()
                if index_tag == tag]

    @requires_lock("self.document._lock")
    def _refresh_positions(self, parent: Element) -> None:
        """One pass over the mutation parent's children: sibling
        positions shift for every element sibling after an insert or
        remove."""
        position = 0
        for child in parent.children:
            if isinstance(child, Element):
                position += 1
                table = self._tables.get(child.tag)
                if table is not None:
                    table.set_pos(child, position)

    @requires_lock("self.document._lock")
    def _refresh_ancestors(self, parent: Element | None) -> None:
        """Value columns and index keys of the ancestor chain.

        An inserted/removed subtree (or text node) can change inlined
        text values (``rev/name``) and downpath keys of ancestors — but
        only of ancestors whose tag chain down to the mutation parent
        spells a prefix of the column's/index's downpath
        (:func:`~repro.relational.columns.chain_reaches`).  Everything
        else is skipped: an inserted ``sub`` subtree cannot change a
        ``track``'s ``name/text()`` keys.
        """
        chain: tuple[str, ...] = ()
        current = parent
        while current is not None:
            table = self._tables.get(current.tag)
            if table is not None and any(
                    chain_reaches(steps, chain)
                    for steps in table.value_steps):
                table.refresh_values(current)
            for index in self._indexes_for(current.tag):
                if chain_reaches(index.steps, chain):
                    index.rekey(current)
            chain = (current.tag,) + chain
            current = current.parent

    # -- verification ----------------------------------------------------

    def verify(self) -> list[str]:
        """Compare every materialized structure against a cold rebuild.

        Returns a list of problem descriptions (empty = consistent).
        Used by the faultcheck invariant battery: after a workload with
        injected crashes, the incrementally-maintained columns must
        equal what a from-scratch build over the final DOM produces —
        and predicate tables must equal a cold re-shred.
        """
        problems: list[str] = []
        with self.document._lock:
            self._validate()
            for tag, table in self._tables.items():
                cold = self._build_table(tag)
                if sorted(table.rows()) != sorted(cold.rows()):
                    problems.append(
                        f"table {tag!r} drifted from a cold rebuild")
                if table.predicate is not None and self.relational \
                        is not None:
                    shredded = sorted(
                        row for fact_tag, row in
                        iter_facts(self.document, self.relational)
                        if fact_tag == tag)
                    if sorted(table.rows()) != shredded:
                        problems.append(
                            f"table {tag!r} drifted from a cold re-shred")
            for (tag, steps), index in self._indexes.items():
                cold_index = self._build_index(tag, steps)
                if index.atoms_of != cold_index.atoms_of:
                    problems.append(
                        f"index {tag!r}/{_path_text(steps)} drifted "
                        "from a cold rebuild (atoms)")
                elif _bucket_ids(index) != _bucket_ids(cold_index):
                    problems.append(
                        f"index {tag!r}/{_path_text(steps)} drifted "
                        "from a cold rebuild (buckets)")
        return problems


def _bucket_ids(index: PathIndex) -> dict[tuple, frozenset]:
    return {key: frozenset(bucket)
            for key, bucket in index.buckets.items() if bucket}


def _path_text(steps: Downpath) -> str:
    return "/".join(nodetest if axis == "child" else f"@{nodetest}"
                    for axis, nodetest in steps)


def attach(document: Document,
           relational: "RelationalSchema | None" = None) -> ColumnStore:
    """Attach (or reuse) the column store of a document.

    An existing store is reused when its relational schema is the same
    or equivalent (``describe()``-equal); otherwise it is replaced —
    two guards over the same store with different schemas would
    disagree about value columns, and the later attachment wins.

    A *frozen* document (a published snapshot clone) gets its store
    without a mutation listener: structural mutation raises on frozen
    documents, so the delta path can never run, and the eager
    :meth:`ColumnStore.warm` below means snapshot readers find the
    columns already materialized at the clone's (final) revision —
    the store is permanently bound to that snapshot version.
    """
    with document._lock:
        store = document.column_store
        if isinstance(store, ColumnStore):
            if store.relational is relational:
                return store
            if relational is not None and store.relational is not None \
                    and store.relational.describe() \
                    == relational.describe():
                return store
            if relational is None:
                return store
            detach(document)
        store = ColumnStore(document, relational)
        if not document.frozen:
            document._mutation_listeners.append(store._on_mutation)
        document.column_store = store
    store.warm()
    return store


def detach(document: Document) -> None:
    """Remove the document's column store and its listener."""
    with document._lock:
        store = document.column_store
        if not isinstance(store, ColumnStore):
            return
        document._mutation_listeners[:] = [
            listener for listener in document._mutation_listeners
            if listener != store._on_mutation]
        document.column_store = None


def store_of(document: Document) -> ColumnStore | None:
    """The attached column store, if any."""
    store = document.column_store
    return store if isinstance(store, ColumnStore) else None


def settle_batch(documents: Iterable[Document]) -> None:
    """Batch-boundary settling: eagerly rebuild dirty stores.

    Called from ``IntegrityGuard.check_batch`` after every update, so
    a batch whose deltas crashed mid-maintenance pays its rebuild here
    instead of on the next check's critical path.  The
    ``columns.batch.settle`` failpoint injects crashes at this
    boundary; a fault simply leaves the store dirty (self-healing).
    """
    fail.point("columns.batch.settle")
    for document in documents:
        store = store_of(document)
        if store is not None:
            store.settle()
