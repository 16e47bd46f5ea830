"""The value indexes of the columnar backend.

:class:`PathIndex` is a value index over one tag: element → the
index-side hash keys (:func:`repro.xquery.optimizer.hash_keys`) of
each atom of a downward path (``name/text()``, ``@year``, …), plus the
inverted ``key → elements`` buckets the planner's hash joins and
predicate-value filters probe.
:class:`repro.relational.incremental.ColumnStore` owns the indexes of
one document and keeps them current under mutation;
:func:`chain_reaches` decides which ancestors' keys a mutation can
change.

Navigation reads no index: a ``//tag`` scan is the document's tag
index and a child step is ``element.children`` on the DOM, which
already answers the relational mapping's ``IdParent`` lookup in
document order.
"""

from __future__ import annotations

from repro.xquery.optimizer import hash_keys
from repro.xquery.planner import _eval_downpath
from repro.xquery.values import atomize
from repro.xtree.node import Element

Downpath = tuple[tuple[str, str], ...]
"""A relative downward path as ``((axis, nodetest), ...)`` — the same
shape the planner's ``_downpath_steps`` produces."""


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
    ``atomize(_eval_downpath(steps, element))`` × ``hash_keys`` — the
    formula of the planner's per-evaluation maps, so a probe here
    answers the same question those builds answer, without the build.
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
                     atomize(_eval_downpath(self.steps, element)))

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
