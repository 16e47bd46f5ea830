"""DOM node classes: ordered trees with stable node identifiers.

The model follows the needs of the paper's relational mapping (section
4.1): every node has a unique identifier within its document, a parent
pointer, and an ordered list of children.  Element order is significant;
attributes are unordered.

Nodes may exist *detached* (``document is None``) — e.g. a fragment built
by an XUpdate statement before insertion.  Attaching a subtree to a
document assigns fresh node identifiers to every node of the subtree that
does not have one yet; identifiers are never reused within a document,
which is exactly the freshness hypothesis the simplification procedure
relies on (the Δ sets of section 5.1).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from repro.testing.failpoints import fail

if TYPE_CHECKING:
    from repro.relational.columns import Downpath, PathIndex


class Node:
    """Common behaviour of element and text nodes."""

    __slots__ = ("node_id", "parent", "document")

    def __init__(self) -> None:
        self.node_id: int | None = None
        self.parent: Element | None = None
        self.document: Document | None = None

    # -- tree navigation ---------------------------------------------------

    def ancestors(self) -> Iterator["Element"]:
        """Yield the parent, grandparent, ... up to the root element."""
        node = self.parent
        while node is not None:
            yield node
            node = node.parent

    def root(self) -> "Node":
        """Return the topmost node of the tree this node belongs to."""
        node: Node = self
        while node.parent is not None:
            node = node.parent
        return node

    @property
    def child_position(self) -> int:
        """1-based position among *all* element siblings.

        This is the ``Pos`` attribute of the relational mapping.  Text
        nodes do not contribute to positions (the running-example DTDs
        have no mixed content), so only element siblings are counted.
        Detached nodes and the root have position 1.
        """
        if not isinstance(self, Element):
            raise TypeError("positions are defined for elements only")
        if self.parent is None:
            return 1
        position = 0
        for sibling in self.parent.children:
            if isinstance(sibling, Element):
                position += 1
                if sibling is self:
                    return position
        raise ValueError("node is not among its parent's children")

    @property
    def sibling_position(self) -> int:
        """1-based position among same-tag element siblings.

        This is the index XPath uses in steps like ``rev[5]`` and the one
        used when rendering a node as an absolute location path.
        """
        if not isinstance(self, Element) or self.parent is None:
            return 1
        position = 0
        for sibling in self.parent.children:
            if isinstance(sibling, Element) and sibling.tag == self.tag:
                position += 1
                if sibling is self:
                    return position
        raise ValueError("node is not among its parent's children")

    def location_path(self) -> str:
        """Absolute location path, e.g. ``/review/track[2]/rev[5]``.

        Used to render node-valued parameters in translated XQuery checks
        (the ``/review/track[%t]/rev[%r]`` form of section 6).
        """
        if not isinstance(self, Element):
            raise TypeError("location paths are defined for elements only")
        steps: list[str] = []
        node: Element | None = self
        while node is not None:
            if node.parent is None:
                steps.append(f"/{node.tag}")
            else:
                index = node.sibling_position
                same_tag = [
                    child for child in node.parent.children
                    if isinstance(child, Element) and child.tag == node.tag
                ]
                if len(same_tag) > 1:
                    steps.append(f"/{node.tag}[{index}]")
                else:
                    steps.append(f"/{node.tag}")
            node = node.parent
        return "".join(reversed(steps))


class Text(Node):
    """A text node.  ``value`` is the unescaped character data."""

    __slots__ = ("value",)

    def __init__(self, value: str) -> None:
        super().__init__()
        self.value = value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Text({self.value!r})"


class Element(Node):
    """An element node with a tag, attributes and ordered children."""

    __slots__ = ("tag", "attributes", "children", "compact_xml")

    def __init__(self, tag: str, attributes: dict[str, str] | None = None,
                 children: list[Node] | None = None) -> None:
        super().__init__()
        self.tag = tag
        self.attributes: dict[str, str] = dict(attributes or {})
        self.children: list[Node] = []
        #: this subtree's compact serialization, or ``None`` when it
        #: is unknown.  Filled by :func:`repro.xtree.serializer.
        #: serialize` for the root's children and grandchildren only,
        #: and cleared on this element and every ancestor by
        #: :meth:`insert` and :meth:`remove`.  Those two are the only
        #: mutations an attached tree ever sees: XUpdate inserts and
        #: removes subtrees, attribute dicts are written only while an
        #: element is still detached (parsers, reconstruction) and
        #: ``Text.value`` is never reassigned.  Code that breaks this
        #: must clear the slot itself.
        self.compact_xml: str | None = None
        for child in children or []:
            self.append(child)

    # -- construction / mutation -------------------------------------------

    def append(self, child: Node) -> Node:
        """Append ``child`` as the last child and return it."""
        return self.insert(len(self.children), child)

    def insert(self, index: int, child: Node) -> Node:
        """Insert ``child`` at ``index`` in the children list.

        The child must be detached (no parent).  If this element belongs
        to a document, the whole inserted subtree is registered with it
        and receives fresh node identifiers.
        """
        if child.parent is not None:
            raise ValueError("child already has a parent; detach it first")
        self._clear_compact_xml()
        self.children.insert(index, child)
        child.parent = self
        if self.document is not None:
            self.document.adopt(child)
        return child

    def insert_after(self, anchor: Node, child: Node) -> Node:
        """Insert ``child`` immediately after existing child ``anchor``."""
        index = self._child_index(anchor)
        return self.insert(index + 1, child)

    def insert_before(self, anchor: Node, child: Node) -> Node:
        """Insert ``child`` immediately before existing child ``anchor``."""
        index = self._child_index(anchor)
        return self.insert(index, child)

    def remove(self, child: Node) -> Node:
        """Detach ``child`` (and its subtree) from this element.

        The subtree keeps its node identifiers so that re-inserting it
        (e.g. during a rollback) restores the original identities, but it
        is unregistered from the document's id index.
        """
        index = self._child_index(child)
        self._clear_compact_xml()
        del self.children[index]
        child.parent = None
        if self.document is not None:
            self.document.orphan(child, parent=self)
        return child

    def _clear_compact_xml(self) -> None:
        """Drop the cached serialization of this subtree and of every
        subtree containing it (the whole ancestor chain)."""
        node: Element | None = self
        while node is not None:
            node.compact_xml = None
            node = node.parent

    def _child_index(self, child: Node) -> int:
        for index, candidate in enumerate(self.children):
            if candidate is child:
                return index
        raise ValueError("node is not a child of this element")

    # -- navigation ----------------------------------------------------------

    def element_children(self, tag: str | None = None) -> list["Element"]:
        """Element children in document order, optionally filtered by tag."""
        return [
            child for child in self.children
            if isinstance(child, Element) and (tag is None or child.tag == tag)
        ]

    def first_child(self, tag: str) -> "Element | None":
        """First element child with the given tag, or ``None``."""
        for child in self.children:
            if isinstance(child, Element) and child.tag == tag:
                return child
        return None

    def text(self) -> str:
        """Concatenated character data of the *direct* text children.

        This is the value selected by ``text()`` in path expressions.
        """
        return "".join(
            child.value for child in self.children if isinstance(child, Text))

    def string_value(self) -> str:
        """Concatenated character data of the whole subtree."""
        parts: list[str] = []
        for node in self.iter():
            if isinstance(node, Text):
                parts.append(node.value)
        return "".join(parts)

    def iter(self) -> Iterator[Node]:
        """Yield this node and every descendant in document order."""
        yield self
        for child in self.children:
            if isinstance(child, Element):
                yield from child.iter()
            else:
                yield child

    def iter_elements(self, tag: str | None = None) -> Iterator["Element"]:
        """Yield descendant-or-self elements in document order."""
        for node in self.iter():
            if isinstance(node, Element) and (tag is None or node.tag == tag):
                yield node

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Element({self.tag!r}, id={self.node_id})"


class Document:
    """An XML document: a root element plus the node-identity machinery.

    The document owns the node-id counter.  Identifiers are positive
    integers, assigned in adoption order, and never reused — a removed
    subtree keeps its ids but new nodes always get ids strictly greater
    than any ever assigned.

    The document also maintains an *incremental element-by-tag index*:
    every adopt/orphan keeps a per-tag bucket of attached elements, and
    query engines use the buckets to answer ``//tag`` steps without
    walking the tree.

    It also keeps the *value indexes* the query planner probes
    (:class:`repro.relational.columns.PathIndex`, one per tag and
    downpath).  :func:`repro.relational.columns.value_index` builds
    one on its first read; from then on every adopt/orphan patches it
    from the mutation's delta (:meth:`_patch_value_indexes`).

    A document is not thread-safe on its own: even a read fills the
    lazy document-order cache, and may build or rebuild a value index.
    Callers that share one across threads serialize every access, as
    :class:`repro.service.CheckingService` does with its store's mutex.
    """

    __slots__ = ("root", "_next_id", "_nodes_by_id", "revision",
                 "_elements_by_tag", "_tag_order_cache",
                 "value_indexes", "indexes_revision",
                 "index_delta_failures", "index_rebuilds", "__weakref__")

    def __init__(self, root: Element) -> None:
        if root.parent is not None:
            raise ValueError("document root must be detached")
        self.root = root
        self._next_id = 1
        self._nodes_by_id: dict[int, Node] = {}
        #: monotone change counter; bumped by every adopt/orphan so
        #: query engines can cache derived structures safely
        self.revision = 0
        #: tag → {node_id: element} of currently attached elements
        self._elements_by_tag: dict[str, dict[int, Element]] = {}
        #: tag → document-ordered element list, dropped whenever an
        #: element of the tag is attached or detached
        self._tag_order_cache: dict[str, list[Element]] = {}
        #: tag → downpath → materialized value index
        #: (:class:`repro.relational.columns.PathIndex`)
        self.value_indexes: dict[str, dict[Downpath, PathIndex]] = {}
        #: the revision the value indexes mirror; ``None`` = dirty, and
        #: the next read rebuilds every one of them from the DOM
        self.indexes_revision: int | None = 0
        #: index deltas abandoned to a fault (the indexes self-healed)
        self.index_delta_failures = 0
        #: full rebuilds triggered by a dirty read
        self.index_rebuilds = 0
        root.document = None  # adopt() sets it
        self.adopt(root)

    def adopt(self, node: Node) -> None:
        """Register ``node`` and its subtree, assigning missing ids."""
        self.revision += 1
        stack = [node]
        while stack:
            current = stack.pop()
            current.document = self
            if current.node_id is None:
                current.node_id = self.allocate_id()
            else:
                # keep the counter ahead of pre-assigned identifiers
                # (rollback re-insertions, reconstructed documents)
                self._next_id = max(self._next_id, current.node_id + 1)
            self._nodes_by_id[current.node_id] = current
            if isinstance(current, Element):
                self._index_element(current)
                stack.extend(reversed(current.children))
        self._patch_value_indexes(node, node.parent, adopted=True)

    def orphan(self, node: Node, parent: "Element | None" = None) -> None:
        """Unregister ``node`` and its subtree from the id index.

        ``parent`` is the element the node was detached from; callers
        that null ``node.parent`` before orphaning (``Element.remove``)
        pass it so the value-index delta can still see where the
        change happened.
        """
        self.revision += 1
        if parent is None:
            parent = node.parent
        stack = [node]
        while stack:
            current = stack.pop()
            current.document = None
            if current.node_id is not None:
                self._nodes_by_id.pop(current.node_id, None)
                if isinstance(current, Element):
                    bucket = self._elements_by_tag.get(current.tag)
                    if bucket is not None:
                        bucket.pop(current.node_id, None)
                    self._tag_order_cache.pop(current.tag, None)
            if isinstance(current, Element):
                stack.extend(reversed(current.children))
        self._patch_value_indexes(node, parent, adopted=False)

    # -- value indexes -------------------------------------------------------

    def _patch_value_indexes(self, node: Node, parent: "Element | None",
                             adopted: bool) -> None:
        """Patch the materialized value indexes from one adopt/orphan.

        Write-ahead invalidation: mark the indexes dirty, patch them,
        stamp the revision back.  Never raises — it runs inside a
        structural mutation, which an escaping error would tear (the
        undo record of an insert is only created *after* the insert
        returns).  A fault anywhere in the delta, the injected
        ``columns.delta.*`` failpoints included, counts in
        :attr:`index_delta_failures` and leaves the indexes dirty, and
        the next read rebuilds them
        (:func:`repro.relational.columns.value_index`).
        """
        indexes = self.value_indexes
        if not indexes:
            # nothing materialized yet: stay trivially in sync
            self.indexes_revision = self.revision
            return
        if self.indexes_revision is None:
            return  # already dirty; the next read rebuilds anyway
        self.indexes_revision = None
        try:
            fail.point("columns.delta.apply")
            if isinstance(node, Element):
                for element in node.iter_elements():
                    by_steps = indexes.get(element.tag)
                    if by_steps is None:
                        continue
                    for index in by_steps.values():
                        if adopted:
                            index.add(element)
                        else:
                            index.discard(element)
            self._rekey_ancestors(node, parent)
            fail.point("columns.delta.settle")
        except Exception:
            self.index_delta_failures += 1
            return  # stays dirty
        self.indexes_revision = self.revision

    def _rekey_ancestors(self, node: Node,
                         parent: "Element | None") -> None:
        """Index keys of the ancestor chain of one adopted/orphaned node.

        An inserted/removed subtree (or text node) can change the
        downpath keys of ancestors — but only of ancestors whose tag
        chain down to the mutated element spells a prefix of the
        index's downpath
        (:func:`repro.relational.columns.chain_reaches`).  The chain
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
            by_steps = self.value_indexes.get(current.tag)
            if by_steps is not None:
                for index in by_steps.values():
                    if index.reaches(chain):
                        index.rekey(current)
            chain = (current.tag,) + chain
            current = current.parent

    # -- element-by-tag index ------------------------------------------------

    def _index_element(self, element: Element) -> None:
        assert element.node_id is not None
        self._elements_by_tag.setdefault(
            element.tag, {})[element.node_id] = element
        self._tag_order_cache.pop(element.tag, None)

    def elements_by_tag(self, tag: str) -> list[Element]:
        """All attached elements with ``tag``, in document order.

        Served from the incremental index; the document-order sort is
        computed lazily and cached until an element of the tag is
        attached or detached, so repeated ``//tag`` steps between
        updates cost a dictionary lookup.  Mutating the returned list
        is not allowed.
        """
        cached = self._tag_order_cache.get(tag)
        if cached is not None:
            return cached
        bucket = self._elements_by_tag.get(tag)
        if not bucket:
            elements: list[Element] = []
        else:
            elements = sorted(bucket.values(), key=_document_order_key)
        self._tag_order_cache[tag] = elements
        return elements

    # -- planner statistics --------------------------------------------------

    def tag_count(self, tag: str) -> int:
        """Number of currently attached elements with ``tag``."""
        bucket = self._elements_by_tag.get(tag)
        return len(bucket) if bucket else 0

    def tag_distinct_count(self, tag: str) -> int:
        """Distinct direct-text values among elements with ``tag``.

        The planner's stand-in for a value-index histogram: the
        selectivity of an equality on ``tag``'s text is estimated as
        ``1 / tag_distinct_count(tag)``.  Counted when a check is
        planned, which happens once per size class, so nothing is
        cached.
        """
        bucket = self._elements_by_tag.get(tag, {})
        return len({element.text() for element in bucket.values()})

    def child_count(self, parent_tag: str, tag: str) -> int:
        """Attached ``tag`` elements whose parent is a ``parent_tag``.

        The planner's fan-out statistic: a child step ``$p/tag`` from a
        ``parent_tag`` element yields ``child_count(parent_tag, tag) /
        tag_count(parent_tag)`` elements on average, where
        ``tag_count(tag) / tag_count(parent_tag)`` would pool every
        ``tag`` of the document (``name`` under ``rev``, ``auts`` and
        ``aut`` alike).  Counted when a check is planned, like
        :meth:`tag_distinct_count`.
        """
        bucket = self._elements_by_tag.get(tag, {})
        return sum(1 for element in bucket.values()
                   if element.parent is not None
                   and element.parent.tag == parent_tag)

    def element_count(self) -> int:
        """Total number of currently attached elements."""
        return sum(len(bucket) for bucket in self._elements_by_tag.values())

    def allocate_id(self) -> int:
        """Return a fresh node identifier (never used in this document)."""
        node_id = self._next_id
        self._next_id += 1
        return node_id

    def node_by_id(self, node_id: int) -> Node | None:
        """Look up a currently attached node by identifier."""
        return self._nodes_by_id.get(node_id)

    def iter_elements(self, tag: str | None = None) -> Iterator[Element]:
        """Yield all elements of the document in document order."""
        return self.root.iter_elements(tag)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        nodes = len(self._nodes_by_id)
        return f"Document(root={self.root.tag!r}, nodes={nodes})"


def _document_order_key(element: Element) -> tuple[int, ...]:
    """Preorder sort key: the chain of child indexes from the root."""
    indexes: list[int] = []
    node: Node = element
    while node.parent is not None:
        indexes.append(node.parent._child_index(node))
        node = node.parent
    indexes.reverse()
    return tuple(indexes)
