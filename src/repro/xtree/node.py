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

import itertools
from typing import Iterator

from repro.analysis.concurrency import (
    guarded_by,
    make_rlock,
    requires_lock,
)
from repro.errors import FrozenDocumentError

#: process-wide document identity counter; ``id()`` can be reused by a
#: new document after the original dies, so caches that key on
#: document identity (the planner's plan cache) use ``uid``
#: instead — unique for the lifetime of the process
_DOCUMENT_UIDS = itertools.count(1)


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

    __slots__ = ("tag", "attributes", "children")

    def __init__(self, tag: str, attributes: dict[str, str] | None = None,
                 children: list[Node] | None = None) -> None:
        super().__init__()
        self.tag = tag
        self.attributes: dict[str, str] = dict(attributes or {})
        self.children: list[Node] = []
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
        del self.children[index]
        child.parent = None
        if self.document is not None:
            self.document.orphan(child, parent=self)
        return child

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


@guarded_by("self._lock", "_next_id", "_nodes_by_id", "_elements_by_tag",
            "_tag_revisions", "_tag_order_cache", "_tag_stats_cache",
            "_mutation_listeners")
class Document:
    """An XML document: a root element plus the node-identity machinery.

    The document owns the node-id counter.  Identifiers are positive
    integers, assigned in adoption order, and never reused — a removed
    subtree keeps its ids but new nodes always get ids strictly greater
    than any ever assigned.

    The document also maintains an *incremental element-by-tag index*:
    every adopt/orphan keeps a per-tag bucket of attached elements and a
    per-tag revision counter.  Query engines use the buckets to answer
    ``//tag`` steps without walking the tree, and the tag revisions to
    invalidate derived caches only when a relevant node type changed.
    """

    __slots__ = ("root", "_next_id", "_nodes_by_id", "revision",
                 "_elements_by_tag", "_tag_revisions", "_tag_order_cache",
                 "_tag_stats_cache", "_lock", "_mutation_listeners",
                 "column_store", "uid", "_frozen", "__weakref__")

    def __init__(self, root: Element) -> None:
        if root.parent is not None:
            raise ValueError("document root must be detached")
        #: never-reused process-wide identity (see ``_DOCUMENT_UIDS``)
        self.uid = next(_DOCUMENT_UIDS)
        #: set once by :meth:`freeze` before the document is shared
        #: with reader threads; plain reads are GIL-atomic
        self._frozen = False
        #: guards the id counter, the tag index and its revision
        #: counters.  Structural mutations (adopt/orphan) must be
        #: serialized externally (e.g. the DocumentStore writer lock);
        #: this lock only makes the *derived* index state — lazy
        #: document-order fills, revision reads — safe for concurrent
        #: readers.  Reentrant: adopt() allocates ids under the lock.
        self._lock = make_rlock("document")
        self.root = root
        self._next_id = 1
        self._nodes_by_id: dict[int, Node] = {}
        #: monotone change counter; bumped by every adopt/orphan so
        #: query engines can cache derived structures safely
        self.revision = 0
        #: tag → {node_id: element} of currently attached elements
        self._elements_by_tag: dict[str, dict[int, Element]] = {}
        #: tag → monotone counter, bumped when a node of (or under) the
        #: tag is attached or detached
        self._tag_revisions: dict[str, int] = {}
        #: tag → (tag revision, document-ordered element list)
        self._tag_order_cache: dict[str, tuple[int, list[Element]]] = {}
        #: tag → (tag revision, distinct direct-text value count); the
        #: planner's per-tag statistics, recomputed lazily per revision
        self._tag_stats_cache: dict[str, tuple[int, int]] = {}
        #: callables ``(kind, node, parent)`` invoked (under the lock,
        #: after index bookkeeping) for every adopt/orphan.  Listeners
        #: must never raise: they run inside structural mutation, where
        #: an escaping error would tear the mutation itself.  The
        #: column store's listener swallows its own failures and falls
        #: back to a cold rebuild instead.
        self._mutation_listeners: list = []
        #: the attached :class:`repro.relational.incremental.ColumnStore`
        #: (or ``None``); a plain slot so the query planner can test for
        #: columnar serviceability without importing the relational layer
        self.column_store = None
        root.document = None  # adopt() sets it
        self.adopt(root)

    def adopt(self, node: Node) -> None:
        """Register ``node`` and its subtree, assigning missing ids."""
        with self._lock:
            self._adopt_locked(node)

    @requires_lock("self._lock")
    def _adopt_locked(self, node: Node) -> None:
        if self._frozen:
            raise FrozenDocumentError(
                f"cannot adopt into frozen document "
                f"<{self.root.tag}> (snapshot v-uid {self.uid})")
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
            elif isinstance(current, Text) and current.parent is not None:
                # a text change is a change to its parent's node type
                self._bump_tag(current.parent.tag)
        for listener in self._mutation_listeners:
            listener("adopt", node, node.parent)

    def orphan(self, node: Node, parent: "Element | None" = None) -> None:
        """Unregister ``node`` and its subtree from the id index.

        ``parent`` is the element the node was detached from; callers
        that null ``node.parent`` before orphaning (``Element.remove``)
        pass it so tag-revision bookkeeping and mutation listeners can
        still see where the change happened.
        """
        with self._lock:
            self._orphan_locked(node, parent)

    @requires_lock("self._lock")
    def _orphan_locked(self, node: Node,
                       parent: "Element | None" = None) -> None:
        if self._frozen:
            raise FrozenDocumentError(
                f"cannot orphan from frozen document "
                f"<{self.root.tag}> (snapshot v-uid {self.uid})")
        self.revision += 1
        if parent is None:
            parent = node.parent
        if isinstance(node, Text) and parent is not None:
            self._bump_tag(parent.tag)
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
                    self._bump_tag(current.tag)
            if isinstance(current, Element):
                stack.extend(reversed(current.children))
        for listener in self._mutation_listeners:
            listener("orphan", node, parent)

    # -- element-by-tag index ------------------------------------------------

    @requires_lock("self._lock")
    def _index_element(self, element: Element) -> None:
        assert element.node_id is not None
        self._elements_by_tag.setdefault(
            element.tag, {})[element.node_id] = element
        self._bump_tag(element.tag)

    @requires_lock("self._lock")
    def _bump_tag(self, tag: str) -> None:
        self._tag_revisions[tag] = self._tag_revisions.get(tag, 0) + 1
        self._tag_order_cache.pop(tag, None)
        self._tag_stats_cache.pop(tag, None)

    def tag_revision(self, tag: str) -> int:
        """Change counter for one node type (0 if never present).

        Bumped whenever an element with this tag — or a text node
        directly under one — is attached or detached.  Caches derived
        from a set of tags stay valid while all their tag revisions do.
        """
        with self._lock:
            return self._tag_revisions.get(tag, 0)

    def elements_by_tag(self, tag: str) -> list[Element]:
        """All attached elements with ``tag``, in document order.

        Served from the incremental index; the document-order sort is
        computed lazily and cached per tag revision, so repeated
        ``//tag`` steps between updates cost a dictionary lookup.
        Mutating the returned list is not allowed.
        """
        with self._lock:
            revision = self._tag_revisions.get(tag, 0)
            cached = self._tag_order_cache.get(tag)
            if cached is not None and cached[0] == revision:
                return cached[1]
            bucket = self._elements_by_tag.get(tag)
            if not bucket:
                elements: list[Element] = []
            else:
                elements = sorted(bucket.values(),
                                  key=_document_order_key)
            self._tag_order_cache[tag] = (revision, elements)
            return elements

    # -- planner statistics --------------------------------------------------

    def tag_count(self, tag: str) -> int:
        """Number of currently attached elements with ``tag``.

        Served from the incremental tag index under the document lock,
        so a planner statistics refresh can never observe a bucket that
        a concurrent index maintenance step is mid-way through filling.
        """
        with self._lock:
            bucket = self._elements_by_tag.get(tag)
            return len(bucket) if bucket else 0

    def tag_distinct_count(self, tag: str) -> int:
        """Distinct direct-text values among elements with ``tag``.

        The planner's stand-in for a value-index histogram: the
        selectivity of an equality on ``tag``'s text is estimated as
        ``1 / tag_distinct_count(tag)``.  Recomputed lazily and cached
        per tag revision (like the document-order cache), all under the
        per-document lock.
        """
        with self._lock:
            revision = self._tag_revisions.get(tag, 0)
            cached = self._tag_stats_cache.get(tag)
            if cached is not None and cached[0] == revision:
                return cached[1]
            bucket = self._elements_by_tag.get(tag)
            if not bucket:
                distinct = 0
            else:
                distinct = len({
                    element.text() for element in bucket.values()})
            self._tag_stats_cache[tag] = (revision, distinct)
            return distinct

    def element_count(self) -> int:
        """Total number of currently attached elements."""
        with self._lock:
            return sum(len(bucket)
                       for bucket in self._elements_by_tag.values())

    def statistics_snapshot(
            self, tags: "list[str]") -> dict[str, tuple[int, int, int]]:
        """Atomic ``tag → (count, distinct, tag revision)`` snapshot.

        Taken under the document lock in one critical section, so the
        per-tag numbers are mutually consistent even while a writer
        thread is between adopt/orphan calls on other documents.
        """
        with self._lock:
            return {
                tag: (self.tag_count(tag), self.tag_distinct_count(tag),
                      self._tag_revisions.get(tag, 0))
                for tag in tags
            }

    def allocate_id(self) -> int:
        """Return a fresh node identifier (never used in this document)."""
        with self._lock:
            node_id = self._next_id
            self._next_id += 1
            return node_id

    def node_by_id(self, node_id: int) -> Node | None:
        """Look up a currently attached node by identifier.

        Deliberately lock-free: a single dict read is atomic under the
        GIL, and callers only probe ids they obtained from a consistent
        snapshot — at worst a concurrently detached node reads as
        ``None``, which is the correct answer for it.
        """
        return self._nodes_by_id.get(node_id)  # lock: ignore

    def iter_elements(self, tag: str | None = None) -> Iterator[Element]:
        """Yield all elements of the document in document order."""
        return self.root.iter_elements(tag)

    # -- snapshot support ----------------------------------------------------

    @property
    def frozen(self) -> bool:
        """Whether this document is an immutable snapshot clone.

        Set once by :meth:`freeze` before the clone is shared with
        reader threads; a plain read is GIL-atomic.
        """
        return self._frozen

    def freeze(self) -> None:
        """Make the document immutable.

        After freezing, any structural mutation (adopt/orphan) raises
        :class:`~repro.errors.FrozenDocumentError`.  Derived-state
        caches (tag order, statistics) still fill lazily under the
        document lock; only the tree itself is fixed.  Freezing is
        one-way.
        """
        with self._lock:
            self._frozen = True

    def clone(self, *, freeze: bool = True) -> "Document":
        """Deep-copy the document, preserving node identifiers.

        Used by the service's snapshot publisher: the copy shares no
        nodes with the source, keeps every ``node_id`` (so constraint
        violations and explain output name the same nodes either way),
        and carries the source's id counter forward so a thawed clone
        would never reuse an identifier.

        The caller must hold a lock that excludes structural mutation
        of the source (the store's writer lock, or its read lock on
        the repair path) — the tree walk itself is deliberately
        lock-free.  The source's document lock is only taken briefly
        to read the id counter, and never while the clone's own lock
        is held: nesting two "document"-rank locks would violate the
        lock order.
        """
        with self._lock:
            next_id = self._next_id
        copy = Document(_clone_subtree(self.root))
        with copy._lock:
            copy._next_id = max(copy._next_id, next_id)
        if freeze:
            copy.freeze()
        return copy

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        nodes = len(self._nodes_by_id)  # lock: ignore
        return f"Document(root={self.root.tag!r}, nodes={nodes})"


def _clone_subtree(root: Element) -> Element:
    """Copy a subtree, preserving node ids; parents are re-linked but
    the copies belong to no document until adopted."""
    copy_root = Element(root.tag, dict(root.attributes))
    copy_root.node_id = root.node_id
    stack = [(root, copy_root)]
    while stack:
        source, target = stack.pop()
        for child in source.children:
            if isinstance(child, Text):
                child_copy: Node = Text(child.value)
            else:
                assert isinstance(child, Element)
                child_copy = Element(child.tag, dict(child.attributes))
                stack.append((child, child_copy))
            child_copy.node_id = child.node_id
            child_copy.parent = target
            target.children.append(child_copy)
    return copy_root


def _document_order_key(element: Element) -> tuple[int, ...]:
    """Preorder sort key: the chain of child indexes from the root."""
    indexes: list[int] = []
    node: Node = element
    while node.parent is not None:
        indexes.append(node.parent._child_index(node))
        node = node.parent
    indexes.reverse()
    return tuple(indexes)
