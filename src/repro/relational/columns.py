"""Columnar storage for the paper's per-tag relations.

The relational mapping of section 4.1 gives every node type a predicate
``tag(Id, Pos, IdParent, value...)``.  :mod:`repro.relational.shredder`
produces those rows as a one-shot export; this module stores them as
*columns* — contiguous stdlib :class:`array.array` buffers for the
structural attributes plus Python lists for the (nullable, textual)
value attributes — so the query planner can evaluate plan steps
set-at-a-time instead of node-at-a-time.

Two structures live here; both are owned and kept current by
:class:`repro.relational.incremental.ColumnStore`:

* :class:`TagTable` — one relation: the elements of a tag with their
  ``(Id, Pos, IdParent)`` structural columns and, when the tag has a
  predicate in the relational schema, its value columns computed with
  the exact semantics of ``shredder._row_for`` (so the table can be
  compared 1:1 against a cold re-shred).
* :class:`PathIndex` — a value index over one tag: element → the
  index-side hash keys (:func:`repro.xquery.optimizer.hash_keys`) of
  each atom of a downward path (``name/text()``, ``@year``, …), plus
  the inverted ``key → elements`` buckets the planner's hash joins and
  predicate-value filters probe.

The structural columns are the relation itself (``rows()`` against a
cold shred is the faultcheck invariant); navigation does not read
them — a child step is ``element.children`` on the DOM, which already
answers the ``IdParent`` lookup in document order.
"""

from __future__ import annotations

from array import array
from typing import TYPE_CHECKING, Iterable

from repro.relational.schema import PredicateSchema
from repro.xquery.optimizer import hash_keys
from repro.xquery.planner import _eval_downpath
from repro.xquery.values import atomize
from repro.xtree.node import Element

if TYPE_CHECKING:  # pragma: no cover
    from repro.relational.schema import RelationalSchema

Downpath = tuple[tuple[str, str], ...]
"""A relative downward path as ``((axis, nodetest), ...)`` — the same
shape the planner's ``_downpath_steps`` produces."""

_UNREACHABLE: Downpath = (("attribute", "\x00never"),)


def _value_downpath(column) -> Downpath:
    """The downpath a value column's content depends on."""
    if column.kind == "text_child":
        return (("child", column.source or ""), ("child", "text()"))
    if column.kind == "attribute":
        return _UNREACHABLE  # adopt/orphan cannot change attributes
    return (("child", "text()"),)  # kind == "text"


def chain_reaches(steps: Downpath, chain: tuple[str, ...]) -> bool:
    """Whether a mutation below ``chain`` can change ``steps``' result.

    ``chain`` is the tag path from the element owning ``steps`` down to
    (and including) the mutation parent, exclusive of the owner itself:
    a mutation among the owner's direct children has ``chain == ()``.
    The downpath only sees nodes whose ancestor-tag prefix matches its
    child steps, so a chain the steps cannot spell is unreachable and
    the owner's value is untouched.  A chain that spells *all* of the
    steps mutates inside the elements the last step selects, whose
    string value is the key — it reaches too.
    """
    for (axis, nodetest), tag in zip(steps, chain):
        if axis != "child" or nodetest == "text()" or nodetest != tag:
            return False
    return True


class TagTable:
    """One per-tag relation stored as columns.

    ``elements[i]`` is the element behind row ``i``; ``ids``/``pos``/
    ``parents`` are its structural columns (``array('q')``);
    ``values[name][i]`` are the value columns when the tag has a
    predicate.  Rows are unordered: removal swaps the last row in,
    keeping the columns contiguous without shifting.
    """

    __slots__ = ("tag", "predicate", "elements", "ids", "pos", "parents",
                 "values", "row_of", "_specs", "value_steps")

    def __init__(self, tag: str,
                 predicate: PredicateSchema | None = None) -> None:
        self.tag = tag
        self.predicate = predicate
        self.elements: list[Element] = []
        self.ids = array("q")
        self.pos = array("q")
        self.parents = array("q")
        self._specs = {column.name: column
                       for column in predicate.value_columns()} \
            if predicate is not None else {}
        self.values: dict[str, list[object]] = {
            name: [] for name in self._specs}
        #: node id → row number
        self.row_of: dict[int, int] = {}
        #: per value column, the downpath its value depends on — what
        #: delta maintenance matches against the mutation chain to skip
        #: refreshes that cannot change anything (attributes never
        #: change through adopt/orphan, so their path is unreachable)
        self.value_steps: tuple[Downpath, ...] = tuple(
            _value_downpath(column) for column in self._specs.values())

    def __len__(self) -> int:
        return len(self.elements)

    # -- row maintenance -------------------------------------------------

    def append(self, element: Element) -> None:
        """Add one element's row (no-op if already present)."""
        node_id = element.node_id
        assert node_id is not None
        if node_id in self.row_of:
            return
        self.row_of[node_id] = len(self.elements)
        self.elements.append(element)
        self.ids.append(node_id)
        parent = element.parent
        if parent is not None:
            self.pos.append(element.child_position)
            self.parents.append(parent.node_id or 0)
        else:  # a document root: no position, no parent row
            self.pos.append(1)
            self.parents.append(0)
        for name, column in self.values.items():
            column.append(self._value_of(element, name))

    def discard(self, element: Element) -> None:
        """Remove one element's row by swapping the last row in."""
        node_id = element.node_id
        if node_id is None:
            return
        row = self.row_of.pop(node_id, None)
        if row is None:
            return
        last = len(self.elements) - 1
        if row != last:
            moved = self.elements[last]
            self.elements[row] = moved
            self.ids[row] = self.ids[last]
            self.pos[row] = self.pos[last]
            self.parents[row] = self.parents[last]
            for column in self.values.values():
                column[row] = column[last]
            assert moved.node_id is not None
            self.row_of[moved.node_id] = row
        self.elements.pop()
        self.ids.pop()
        self.pos.pop()
        self.parents.pop()
        for column in self.values.values():
            column.pop()

    def set_pos(self, element: Element, position: int) -> None:
        """Refresh the sibling position of one element's row."""
        row = self.row_of.get(element.node_id or -1)
        if row is not None:
            self.pos[row] = position

    def refresh_values(self, element: Element) -> None:
        """Recompute the value columns of one element's row."""
        if not self.values:
            return
        row = self.row_of.get(element.node_id or -1)
        if row is None:
            return
        for name, column in self.values.items():
            column[row] = self._value_of(element, name)

    def _value_of(self, element: Element, name: str) -> object:
        """One value column entry — ``shredder._row_for`` semantics."""
        column = self._specs[name]
        if column.kind == "text_child":
            child = element.first_child(column.source or "")
            return None if child is None else child.text()
        if column.kind == "attribute":
            return element.attributes.get(column.source or "")
        return element.text()  # kind == "text"

    # -- reads -----------------------------------------------------------

    def rows(self) -> list[tuple]:
        """The relation as ``(Id, Pos, IdParent, value...)`` tuples.

        For predicate tags this equals the rows a cold
        :func:`repro.relational.shredder.shred` would produce for the
        tag (up to order) — the property the differential tests and
        the faultcheck invariant battery assert.
        """
        columns: list[Iterable] = [self.ids, self.pos, self.parents]
        columns.extend(self.values.values())
        return list(zip(*columns)) if self.elements else []


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
