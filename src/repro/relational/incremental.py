"""Incrementally-maintained value indexes attached to documents.

A :class:`ColumnStore` keeps the :class:`~repro.relational.columns.PathIndex`
value indexes of one live :class:`~repro.xtree.node.Document`
consistent while updates are applied.  It registers a mutation
listener with the document and patches the materialized indexes from
each adopt/orphan delta — the inserted or removed subtree's elements
are added or discarded, and the keys of the ancestors whose downpath
can see the mutated node are recomputed — instead of rebuilding them
per check.

Crash consistency follows a *write-ahead invalidation* protocol: the
listener first marks the store dirty (``_synced_revision = None``),
then patches, then stamps the document's revision back.  A fault
anywhere inside the delta — including the injected
``columns.delta.*`` failpoints — leaves the store dirty, and the next
read rebuilds every materialized index from the DOM.  Listener
exceptions are never allowed to escape: they would otherwise tear the
structural mutation that triggered them (the undo record for an insert
is only created *after* the insert returns), so the delta is the one
layer that degrades to a rebuild rather than failing loudly.

That is the one invalidation rule: an index is valid iff
``_synced_revision == document.revision``, a single integer comparison
per read.  The store never serves stale data because every mutation
path funnels through ``Document.adopt``/``orphan``.

Like its document, a column store is not thread-safe on its own;
:class:`repro.service.CheckingService` serializes every access to
both under its store's mutex.
"""

from __future__ import annotations

from repro.relational.columns import Downpath, PathIndex, chain_reaches
from repro.testing.failpoints import fail
from repro.xtree.node import Document, Element, Node


class ColumnStore:
    """The delta-maintained value indexes of one document.

    Indexes materialize lazily (first use by the planner) and are
    maintained incrementally afterwards.
    """

    __slots__ = ("document", "_indexes", "_synced_revision",
                 "delta_failures", "rebuilds")

    def __init__(self, document: Document) -> None:
        self.document = document
        #: (tag, downpath) → index
        self._indexes: dict[tuple[str, Downpath], PathIndex] = {}
        #: the document revision the store mirrors; ``None`` = dirty
        self._synced_revision: int | None = document.revision
        #: deltas abandoned to a fault (the store self-healed after)
        self.delta_failures = 0
        #: full rebuilds triggered by a dirty read
        self.rebuilds = 0

    # -- reads -----------------------------------------------------------

    def value_index(self, tag: str, steps: Downpath) -> PathIndex:
        """The (validated) value index of one (tag, downpath)."""
        self._validate()
        index = self._indexes.get((tag, steps))
        if index is None:
            index = self._build_index(tag, steps)
            self._indexes[(tag, steps)] = index
        return index

    @property
    def dirty(self) -> bool:
        return self._synced_revision != self.document.revision

    # -- construction / validation --------------------------------------

    def _build_index(self, tag: str, steps: Downpath) -> PathIndex:
        index = PathIndex(tag, steps)
        for element in self.document.elements_by_tag(tag):
            index.add(element)
        return index

    def _validate(self) -> None:
        """Rebuild every materialized index if the store is dirty.

        The rebuild constructs into a fresh dict and swaps it in only
        on success, so a fault mid-rebuild (``columns.rebuild``) leaves
        the store dirty and the next read retries.
        """
        if self._synced_revision == self.document.revision:
            return
        fail.point("columns.rebuild")
        self._indexes = {key: self._build_index(*key)
                         for key in self._indexes}
        self.rebuilds += 1
        self._synced_revision = self.document.revision

    # -- delta maintenance -----------------------------------------------

    def _on_mutation(self, kind: str, node: Node,
                     parent: Element | None) -> None:
        """Mutation listener: patch the indexes from one adopt/orphan.

        Runs inside the structural mutation.
        Must not raise (see module docstring); any failure counts in
        ``delta_failures`` and leaves the store dirty for a lazy
        rebuild.
        """
        if not self._indexes:
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

    def _apply_delta(self, kind: str, node: Node,
                     parent: Element | None) -> None:
        if isinstance(node, Element):
            for element in node.iter_elements():
                for index in self._indexes_for(element.tag):
                    if kind == "adopt":
                        index.add(element)
                    else:
                        index.discard(element)
        self._refresh_ancestors(node, parent)

    def _indexes_for(self, tag: str) -> "list[PathIndex]":
        return [index for (index_tag, _), index in self._indexes.items()
                if index_tag == tag]

    def _refresh_ancestors(self, node: Node,
                           parent: Element | None) -> None:
        """Index keys of the ancestor chain of one adopted/orphaned node.

        An inserted/removed subtree (or text node) can change the
        downpath keys of ancestors — but only of ancestors whose tag
        chain down to the mutated element spells a prefix of the
        index's downpath
        (:func:`~repro.relational.columns.chain_reaches`).  The chain
        starts with ``node``'s own tag when it is an element; a text
        node adds nothing, since any ``text()`` step may select it.
        Everything else is skipped: a ``sub`` inserted under a ``rev``
        spells ``rev/sub`` at the ``track``, which its
        ``rev/name/text()`` keys cannot see, so the write rekeys
        nothing there.
        """
        chain: tuple[str, ...] = \
            (node.tag,) if isinstance(node, Element) else ()
        current = parent
        while current is not None:
            for index in self._indexes_for(current.tag):
                if chain_reaches(index.steps, chain):
                    index.rekey(current)
            chain = (current.tag,) + chain
            current = current.parent

    # -- verification ----------------------------------------------------

    def verify(self) -> list[str]:
        """Compare every materialized index against a cold rebuild.

        Returns a list of problem descriptions (empty = consistent).
        Used by the faultcheck invariant battery: after a workload with
        injected crashes, the incrementally-maintained indexes must
        equal what a from-scratch build over the final DOM produces.
        """
        problems: list[str] = []
        self._validate()
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


def attach(document: Document) -> ColumnStore:
    """The column store of a document: the attached one, or a new one.

    Every index is built on first use
    (:meth:`ColumnStore.value_index`) and delta-maintained from then
    on by the store's mutation listener.
    """
    store = document.column_store
    if isinstance(store, ColumnStore):
        return store
    store = ColumnStore(document)
    document._mutation_listeners.append(store._on_mutation)
    document.column_store = store
    return store


def store_of(document: Document) -> ColumnStore | None:
    """The attached column store, if any."""
    store = document.column_store
    return store if isinstance(store, ColumnStore) else None
