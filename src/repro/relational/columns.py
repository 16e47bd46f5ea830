"""The value indexes of the columnar backend.

:class:`PathIndex` is a value index over one tag: element → the
index-side hash keys (:func:`repro.xquery.optimizer.hash_keys`) of
each atom of a downward path (``name/text()``, ``@year``, …), plus the
inverted ``key → elements`` buckets.  :func:`probe` is the one walk
over those buckets, for the planner's predicate-value filters and the
frontier's hash joins and correlated probes.

A document owns its indexes
(:attr:`repro.xtree.node.Document.value_indexes`).  :func:`value_index`
is the one way to read one: it builds an index on its first read, and
rebuilds every index of a document whose last delta faulted.  Every
adopt/orphan patches the built ones from then on
(:meth:`repro.xtree.node.Document._patch_value_indexes`), rekeying
only the ancestors :func:`chain_reaches` says a mutation can change.
An index is valid iff ``document.indexes_revision ==
document.revision``, one integer comparison per read; every mutation
path funnels through ``Document.adopt``/``orphan``, so a read never
sees stale keys.

Navigation reads no index: a ``//tag`` scan is the document's tag
index and a child step is ``element.children`` on the DOM, which
already answers the relational mapping's ``IdParent`` lookup in
document order.
"""

from __future__ import annotations

from repro.testing.failpoints import fail
from repro.xquery.optimizer import hash_keys
from repro.xquery.values import UntypedAtomic, atomize
from repro.xtree.node import Document, Element, Text

Downpath = tuple[tuple[str, str], ...]
"""A relative downward path as ``((axis, nodetest), ...)`` — the same
shape :func:`repro.xquery.optimizer.downpath_steps` produces."""


def eval_downpath(steps: Downpath, element: Element) -> list:
    """The items ``element/steps`` selects: text nodes, elements, or
    attribute values as untyped atomics."""
    current: list = [element]
    for axis, nodetest in steps:
        gathered: list = []
        for item in current:
            if not isinstance(item, Element):
                continue
            if axis == "child":
                if nodetest == "text()":
                    gathered.extend(child for child in item.children
                                    if isinstance(child, Text))
                else:
                    gathered.extend(
                        child for child in item.children
                        if isinstance(child, Element)
                        and child.tag == nodetest)
            else:  # attribute
                value = item.attributes.get(nodetest)
                if value is not None:
                    gathered.append(UntypedAtomic(value))
        current = gathered
    return current


def chain_reaches(steps: Downpath, chain: tuple[str, ...]) -> bool:
    """Whether a mutation at the end of ``chain`` can change ``steps``'
    result.

    ``chain`` is the tag path from the element owning ``steps`` down to
    (and including) the mutated element, exclusive of the owner itself:
    an element adopted or orphaned among the owner's direct children
    has ``chain == (its tag,)``.  A text node adds no entry, so text
    among the owner's children has ``chain == ()``.
    The downpath only sees nodes whose ancestor-tag prefix matches its
    child steps, so a chain the steps cannot spell is unreachable and
    the owner's value is untouched: a ``sub`` added under a ``rev``
    (``("rev", "sub")``) cannot change a ``track``'s
    ``rev/name/text()``.  A chain that spells *all* of the steps
    mutates inside the elements the last step selects, whose string
    value is the key — it reaches too.
    """
    for (axis, nodetest), tag in zip(steps, chain):
        if axis != "child" or nodetest == "text()" or nodetest != tag:
            return False
    return True


class PathIndex:
    """A value index over one tag: downpath atoms in hash-key space.

    ``atoms_of[node_id]`` holds, per atom of ``element/steps``, the
    tuple of index-side hash keys of that atom; ``buckets[key]`` maps
    back to the elements owning the key and is looked up with
    probe-side keys (:func:`repro.xquery.optimizer.probe_keys`).  Key
    computation is exactly
    ``atomize(eval_downpath(steps, element))`` × ``hash_keys``, so a
    probe answers the general comparison ``element/steps = value``.
    """

    __slots__ = ("tag", "steps", "buckets", "atoms_of")

    def __init__(self, tag: str, steps: Downpath) -> None:
        self.tag = tag
        self.steps = steps
        #: key → {node id → element}, insertion-ordered
        self.buckets: dict[tuple, dict[int, Element]] = {}
        self.atoms_of: dict[int, tuple[tuple[tuple, ...], ...]] = {}

    def __len__(self) -> int:
        return len(self.atoms_of)

    def compute(self, element: Element) -> tuple[tuple[tuple, ...], ...]:
        """The per-atom key tuples of one element (pure)."""
        return tuple(tuple(hash_keys(atom)) for atom in
                     atomize(eval_downpath(self.steps, element)))

    def reaches(self, chain: tuple[str, ...]) -> bool:
        """Whether a mutation at the end of ``chain`` can change this
        index's keys (:func:`chain_reaches`)."""
        return chain_reaches(self.steps, chain)

    def add(self, element: Element) -> None:
        node_id = element.node_id
        assert node_id is not None
        if node_id in self.atoms_of:
            return
        atoms = self.compute(element)
        self.atoms_of[node_id] = atoms
        for key in {key for atom in atoms for key in atom}:
            self.buckets.setdefault(key, {})[node_id] = element

    def discard(self, element: Element) -> None:
        node_id = element.node_id
        if node_id is None:
            return
        atoms = self.atoms_of.pop(node_id, None)
        if atoms is None:
            return
        self._unbucket(node_id, atoms)

    def rekey(self, element: Element) -> None:
        """Recompute one element's keys after a subtree-value change."""
        node_id = element.node_id
        if node_id is None or node_id not in self.atoms_of:
            return
        old = self.atoms_of[node_id]
        new = self.compute(element)
        if old == new:
            return
        self._unbucket(node_id, old)
        self.atoms_of[node_id] = new
        for key in {key for atom in new for key in atom}:
            self.buckets.setdefault(key, {})[node_id] = element

    def _unbucket(self, node_id: int,
                  atoms: tuple[tuple[tuple, ...], ...]) -> None:
        for key in {key for atom in atoms for key in atom}:
            bucket = self.buckets.get(key)
            if bucket is not None:
                bucket.pop(node_id, None)
                if not bucket:
                    del self.buckets[key]

    def probe(self, key: tuple) -> list[Element]:
        """The elements with ``key`` among their atom keys."""
        bucket = self.buckets.get(key)
        return list(bucket.values()) if bucket else []

    def flat_keys(self, node_id: int) -> frozenset:
        """All keys of one element (empty if not indexed)."""
        atoms = self.atoms_of.get(node_id, ())
        return frozenset(key for atom in atoms for key in atom)


def value_index(document: Document, tag: str, steps: Downpath) -> PathIndex:
    """The value index of ``document``'s ``//tag`` keyed by ``steps``.

    Built on first read and delta-maintained by the document from then
    on.  A dirty document (a delta faulted) has every index rebuilt
    here first.
    """
    if document.indexes_revision != document.revision:
        _rebuild(document)
    by_steps = document.value_indexes.get(tag)
    if by_steps is None:
        by_steps = document.value_indexes[tag] = {}
    index = by_steps.get(steps)
    if index is None:
        index = by_steps[steps] = _build(document, tag, steps)
    return index


def probe(indexes: list[PathIndex], keys) -> list[Element]:
    """The elements the probe-side ``keys`` hit in any of ``indexes``,
    each once."""
    matched: list[Element] = []
    seen: set[int] = set()
    for key in keys:
        for index in indexes:
            bucket = index.buckets.get(key)
            if not bucket:
                continue
            for element in bucket.values():
                if id(element) not in seen:
                    seen.add(id(element))
                    matched.append(element)
    return matched


def _build(document: Document, tag: str, steps: Downpath) -> PathIndex:
    index = PathIndex(tag, steps)
    for element in document.elements_by_tag(tag):
        index.add(element)
    return index


def _rebuild(document: Document) -> None:
    """Rebuild every materialized index of a dirty document.

    The rebuild constructs into a fresh dict and swaps it in only on
    success, so a fault mid-rebuild (``columns.rebuild``) fails the
    read, leaves the document dirty, and the next read retries.
    """
    fail.point("columns.rebuild")
    document.value_indexes = {
        tag: {steps: _build(document, tag, steps) for steps in by_steps}
        for tag, by_steps in document.value_indexes.items()}
    document.index_rebuilds += 1
    document.indexes_revision = document.revision


def verify(document: Document) -> list[str]:
    """Compare every materialized index against a cold build.

    Returns a list of problem descriptions (empty = consistent).
    Used by the faultcheck invariant battery: after a workload with
    injected crashes, the delta-maintained indexes must equal what a
    from-scratch build over the final DOM produces.
    """
    if document.indexes_revision != document.revision:
        _rebuild(document)
    problems: list[str] = []
    for tag, by_steps in document.value_indexes.items():
        for steps, index in by_steps.items():
            cold = _build(document, tag, steps)
            if index.atoms_of != cold.atoms_of:
                problems.append(f"index {tag!r}/{_path_text(steps)} "
                                "drifted from a cold rebuild (atoms)")
            elif _bucket_ids(index) != _bucket_ids(cold):
                problems.append(f"index {tag!r}/{_path_text(steps)} "
                                "drifted from a cold rebuild (buckets)")
    return problems


def _bucket_ids(index: PathIndex) -> dict[tuple, frozenset]:
    return {key: frozenset(bucket)
            for key, bucket in index.buckets.items() if bucket}


def _path_text(steps: Downpath) -> str:
    return "/".join(nodetest if axis == "child" else f"@{nodetest}"
                    for axis, nodetest in steps)
