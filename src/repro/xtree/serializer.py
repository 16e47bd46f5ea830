"""Serialization of the DOM back to XML text."""

from __future__ import annotations

from repro.xtree.node import Document, Element, Node, Text


def _escape_text(value: str) -> str:
    return (
        value.replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
    )


def _escape_attribute(value: str) -> str:
    return (
        value.replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace('"', "&quot;")
    )


#: compact output of the elements at these depths below the root is
#: kept in ``Element.compact_xml``: a checkpoint re-serializes only the
#: subtrees an update touched and copies the rest verbatim
_CACHED_DEPTH = 2


def _write_node(node: Node, parts: list[str], indent: int | None,
                level: int, fill: bool = False) -> None:
    if isinstance(node, Text):
        parts.append(_escape_text(node.value))
        return
    assert isinstance(node, Element)
    if indent is None:
        cached = node.compact_xml
        if cached is not None:
            parts.append(cached)
            return
        if fill and 1 <= level <= _CACHED_DEPTH:
            start = len(parts)
            _write_element(node, parts, None, level, fill)
            cached = "".join(parts[start:])
            parts[start:] = [cached]
            node.compact_xml = cached
            return
    _write_element(node, parts, indent, level, fill)


def _write_element(node: Element, parts: list[str], indent: int | None,
                   level: int, fill: bool) -> None:
    pad = "" if indent is None else "\n" + " " * (indent * level)
    attributes = "".join(
        f' {name}="{_escape_attribute(value)}"'
        for name, value in node.attributes.items()
    )
    if not node.children:
        parts.append(f"{pad}<{node.tag}{attributes}/>")
        return
    only_text = all(isinstance(child, Text) for child in node.children)
    parts.append(f"{pad}<{node.tag}{attributes}>")
    for child in node.children:
        _write_node(child, parts, None if only_text else indent,
                    level + 1, fill)
    if indent is not None and not only_text:
        parts.append("\n" + " " * (indent * level))
    parts.append(f"</{node.tag}>")


def serialize(document: Document, indent: int | None = None,
              declaration: bool = True) -> str:
    """Serialize a document to XML text.

    Args:
        document: the document to serialize.
        indent: number of spaces per nesting level for pretty-printing, or
            ``None`` for compact output.  Elements whose children are all
            text are always kept on one line so that ``text()`` values are
            not polluted with indentation whitespace.
        declaration: prepend an ``<?xml ...?>`` declaration.

    Compact output reuses (and fills) the cached serialization of the
    root's children and grandchildren (``Element.compact_xml``), so its
    cost follows what changed since the last call, not the document.
    """
    parts: list[str] = []
    if declaration:
        parts.append('<?xml version="1.0" encoding="UTF-8"?>')
        if indent is None:
            parts.append("\n")
    _write_node(document.root, parts, indent, 0, fill=True)
    text = "".join(parts)
    return text.lstrip("\n") if indent is not None else text


def serialize_fragment(node: Node, indent: int | None = None) -> str:
    """Serialize a single (possibly detached) node to XML text."""
    parts: list[str] = []
    _write_node(node, parts, indent, 0)
    return "".join(parts).lstrip("\n")
