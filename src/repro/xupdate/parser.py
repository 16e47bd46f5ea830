"""Parsing XUpdate modification documents.

The accepted form follows the XUpdate working draft used by the paper::

    <xupdate:modifications version="1.0"
        xmlns:xupdate="http://www.xmldb.org/xupdate">
      <xupdate:insert-after select="/review/track[2]/rev[5]/sub[6]">
        <xupdate:element name="sub">
          <title> Taming Web Services </title>
          <auts><name> Jack </name></auts>
        </xupdate:element>
      </xupdate:insert-after>
    </xupdate:modifications>

Content may mix ``xupdate:element``/``xupdate:text``/``xupdate:attribute``
constructors with literal XML elements, as in the paper's example.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from repro.errors import XUpdateError
from repro.xtree.node import Element, Node, Text
from repro.xtree.parser import _parse_root

_PREFIX = "xupdate:"

_INSERT_KINDS = {
    "insert-after": "after",
    "insert-before": "before",
    "append": "append",
}


@dataclass(frozen=True)
class InsertOperation:
    """An insertion: ``kind`` is ``after``, ``before`` or ``append``.

    ``content`` holds detached nodes (deep copies independent from the
    source document); ``select`` is the XPath of the anchor node — the
    sibling for ``after``/``before``, the parent for ``append``.
    """

    kind: str
    select: str
    content: tuple[Node, ...]

    def primary_element(self) -> Element:
        """The first inserted element (the pattern's root node)."""
        for node in self.content:
            if isinstance(node, Element):
                return node
        raise XUpdateError("insertion content contains no element")


@dataclass(frozen=True)
class RemoveOperation:
    select: str


Operation = Union[InsertOperation, RemoveOperation]

_KIND_TAGS = {kind: tag for tag, kind in _INSERT_KINDS.items()}


def _escape_select(value: str) -> str:
    return (value.replace("&", "&amp;")
            .replace("<", "&lt;")
            .replace('"', "&quot;"))


def serialize_operation(operation: Operation) -> str:
    """Canonical XUpdate text of one parsed operation.

    The output round-trips: ``parse_modifications(serialize_operation
    (op))`` yields an operation with the same select, kind and content
    tree, and applying either to twin documents produces identical
    results.  This — not ``str(op)``, which is the dataclass repr — is
    the canonical form the service commit log, the harness invariants
    and the write-ahead record encoding all share.
    """
    return serialize_operations([operation])


def serialize_operations(operations: "list[Operation]") -> str:
    """Canonical XUpdate modification document for a whole sequence."""
    if not operations:
        raise XUpdateError("cannot serialize an empty operation list")
    from repro.xtree.serializer import serialize_fragment
    parts = ['<?xml version="1.0"?>',
             '<xupdate:modifications version="1.0"',
             '    xmlns:xupdate="http://www.xmldb.org/xupdate">']
    for operation in operations:
        if isinstance(operation, RemoveOperation):
            parts.append(f'<xupdate:remove select='
                         f'"{_escape_select(operation.select)}"/>')
            continue
        assert isinstance(operation, InsertOperation)
        tag = f"xupdate:{_KIND_TAGS[operation.kind]}"
        content = "".join(serialize_fragment(node)
                          for node in operation.content)
        parts.append(f'<{tag} select='
                     f'"{_escape_select(operation.select)}">'
                     f'{content}</{tag}>')
    parts.append("</xupdate:modifications>")
    return "\n".join(parts)


def canonical_update_text(update: "str | Operation") -> str:
    """The canonical text of an update, whatever form it arrived in.

    Update texts pass through unchanged (they are already canonical
    for logging/replay purposes: re-parsing them yields the same
    operations); parsed operations are serialized back to XUpdate.
    """
    if isinstance(update, str):
        return update
    return serialize_operation(update)


def parse_modifications(text: str) -> list[Operation]:
    """Parse an XUpdate document into a list of operations.

    The modification document is read as a detached tree: its nodes are
    only copied out (:func:`_build_content`), so no :class:`Document`
    allocates node ids or indexes tags for it.
    """
    root = _parse_root(text, keep_whitespace=False)
    if _local(root.tag) != "modifications":
        raise XUpdateError(
            f"expected <xupdate:modifications>, found <{root.tag}>")
    operations: list[Operation] = []
    for child in root.element_children():
        local = _local(child.tag)
        if local in _INSERT_KINDS:
            operations.append(_parse_insert(child, _INSERT_KINDS[local]))
        elif local == "remove":
            operations.append(RemoveOperation(_select_of(child)))
        else:
            raise XUpdateError(f"unsupported operation <{child.tag}>")
    if not operations:
        raise XUpdateError("modification document contains no operations")
    return operations


def _local(tag: str) -> str:
    return tag[len(_PREFIX):] if tag.startswith(_PREFIX) else tag


def _select_of(element: Element) -> str:
    select = element.attributes.get("select")
    if not select:
        raise XUpdateError(
            f"<{element.tag}> needs a non-empty select attribute")
    return select


def _parse_insert(element: Element, kind: str) -> InsertOperation:
    select = _select_of(element)
    content = tuple(_build_content(child) for child in element.children
                    if _is_significant(child))
    if not content:
        raise XUpdateError(f"<{element.tag}> has no content to insert")
    return InsertOperation(kind, select, content)


def _is_significant(node: Node) -> bool:
    return isinstance(node, Element) or (
        isinstance(node, Text) and bool(node.value.strip()))


def _build_content(node: Node) -> Node:
    """Turn a content node into a detached node to insert.

    ``xupdate:element`` constructors become elements named by their
    ``name`` attribute; ``xupdate:text`` becomes a text node; literal
    XML is deep-copied.
    """
    if isinstance(node, Text):
        return Text(node.value.strip())
    assert isinstance(node, Element)
    local = _local(node.tag)
    if node.tag.startswith(_PREFIX):
        if local == "element":
            name = node.attributes.get("name")
            if not name:
                raise XUpdateError("xupdate:element needs a name attribute")
            built = Element(name)
            for child in node.children:
                if isinstance(child, Element) \
                        and _local(child.tag) == "attribute" \
                        and child.tag.startswith(_PREFIX):
                    attribute = child.attributes.get("name")
                    if not attribute:
                        raise XUpdateError(
                            "xupdate:attribute needs a name attribute")
                    built.attributes[attribute] = child.text().strip()
                elif _is_significant(child):
                    _attach_content(built, child)
            return built
        if local == "text":
            return Text(node.text())
        raise XUpdateError(f"unsupported content constructor <{node.tag}>")
    copy = Element(node.tag, dict(node.attributes))
    for child in node.children:
        if isinstance(child, Text):
            copy.append(Text(child.value.strip()))
        elif _is_significant(child):
            _attach_content(copy, child)
    return copy


def _attach_content(parent: Element, node: Node) -> None:
    parent.append(_build_content(node))
