"""A self-contained, non-validating XML parser.

Supports the XML subset needed by the system: elements, attributes,
character data, CDATA sections, comments, processing instructions, a
``DOCTYPE`` declaration (skipped whole: its internal subset is neither
kept nor read, so it must declare no entities the document uses), and
the five predefined entities plus numeric character references.
Namespaces are not resolved; qualified names such as
``xupdate:insert-after`` are kept verbatim as tag names.  A name starts
with a letter (``str.isalpha``), ``_`` or ``:`` and goes on with
letters, digits (``str.isalnum``), ``_``, ``:``, ``.`` and ``-``.

The tokenizer is one loop in which ``re`` and ``str.find`` do the
scanning, not Python code per character: ``str.find("<")`` ends each
run of character data, one compiled pattern matches a whole start tag
with its attributes and another an end tag, and the open elements are
an explicit stack rather than one recursive call per element.  A tag
the patterns do not match is re-read one token at a time; that raises
the precise :class:`~repro.errors.XMLParseError` (message, line and
column), or — for a valid tag the patterns leave out, such as a name
whose first character lies beyond the Basic Multilingual Plane — yields
the same element.

Elements nest at most :data:`MAX_DEPTH` deep (the root, or a
fragment's top-level element, is depth 1).  The tree's recursive
consumers — serialization, the XUpdate content copy — would otherwise
meet hostile nesting as a ``RecursionError``; the parser refuses it at
the start tag that would exceed the limit instead.  An XUpdate insert
that would nest the document deeper is refused when it is applied
(:mod:`repro.xupdate.apply`), so every stored document re-parses.

Character data and CDATA sections become text nodes in document order
(the text before a CDATA section is flushed first).  Whitespace-only
text between elements is dropped by default — the running-example DTDs
have purely element content, where such whitespace is insignificant —
and can be retained with ``keep_whitespace=True``; CDATA text is always
kept.
"""

from __future__ import annotations

import re

from repro.errors import XMLParseError
from repro.xtree.node import Document, Element, Node, Text

#: the deepest element nesting a document or fragment may have; the
#: paper's documents are at most 6 deep
MAX_DEPTH = 256

_PREDEFINED_ENTITIES = {"lt": "<", "gt": ">", "amp": "&", "apos": "'",
                        "quot": '"'}


def _numerals() -> str:
    """The BMP characters ``re``'s ``[^\\W\\d]`` matches although
    ``str.isalpha`` rejects them: numerals of categories Nl and No (and
    ``_``, which may start a name anyway, so it is left out here).

    ``re`` has no letter class, so it is derived once, at import, from
    the running interpreter's Unicode tables (a few milliseconds)."""
    units = bytearray(0x20000)
    units[0::2] = bytes(range(256)) * 256
    units[1::2] = b"".join(bytes([high]) * 256 for high in range(256))
    found: list[str] = []

    def split(chars: str) -> None:
        if chars.isalpha():
            return
        if len(chars) == 1:
            found.append(chars)
            return
        middle = len(chars) // 2
        split(chars[:middle])
        split(chars[middle:])

    bmp = units.decode("utf-16-le", "surrogatepass")
    split(re.sub(r"[\W\d_]+", "", bmp))
    return "".join(found)


#: a name's first character; exact on the BMP, and a name starting
#: beyond it is left to the token-at-a-time reader
_START = rf"(?:(?![{_numerals()}\U00010000-\U0010ffff])[^\W\d]|:)"
#: ``\w`` is exactly ``str.isalnum`` plus ``_``
_CHAR = r"[\w:.\-]"
#: the lookahead keeps a failing match from splitting a name in two
_NAME = rf"{_START}{_CHAR}*(?!{_CHAR})"
_S = r"[ \t\r\n]*"

_NAME_CHARS = re.compile(rf"{_CHAR}*")
_WHITESPACE = re.compile(_S)
_START_TAG = re.compile(
    rf"<({_NAME})((?:{_S}{_NAME}{_S}={_S}(?:\"[^\"]*\"|'[^']*'))*)"
    rf"{_S}(/?)>")
#: one attribute of a matched start tag; the value is group 2 or 3
_ATTRIBUTE = re.compile(rf"({_NAME}){_S}={_S}(?:\"([^\"]*)\"|'([^']*)')")
_END_TAG = re.compile(rf"</({_NAME}){_S}>")
_DOCTYPE_MARK = re.compile(r"[\[\]>]")


class _Parser:
    __slots__ = ("text", "keep_whitespace")

    def __init__(self, text: str, keep_whitespace: bool) -> None:
        self.text = text
        self.keep_whitespace = keep_whitespace

    # -- lexical helpers ----------------------------------------------------

    def error(self, message: str, pos: int) -> XMLParseError:
        line = self.text.count("\n", 0, pos) + 1
        column = pos - self.text.rfind("\n", 0, pos)
        return XMLParseError(message, line, column)

    def skip_whitespace(self, pos: int) -> int:
        return _WHITESPACE.match(self.text, pos).end()

    def skip_past(self, close: str, start: int, pos: int, what: str) -> int:
        """Position after the first ``close`` at or after ``start``."""
        end = self.text.find(close, start)
        if end == -1:
            raise self.error(f"unterminated {what}", pos)
        return end + len(close)

    def expect(self, literal: str, pos: int) -> int:
        if not self.text.startswith(literal, pos):
            raise self.error(f"expected {literal!r}", pos)
        return pos + len(literal)

    def read_name(self, pos: int) -> tuple[str, int]:
        first = self.text[pos:pos + 1]
        if not first or not (first.isalpha() or first in "_:"):
            raise self.error("expected a name", pos)
        end = _NAME_CHARS.match(self.text, pos + 1).end()
        return self.text[pos:end], end

    def decode(self, raw: str, pos: int) -> str:
        """``raw`` with its references expanded; errors report ``pos``."""
        if "&" not in raw:
            return raw
        parts: list[str] = []
        index = 0
        while (amp := raw.find("&", index)) != -1:
            end = raw.find(";", amp)
            if end == -1:
                raise self.error("unterminated entity reference", pos)
            entity = raw[amp + 1:end]
            if entity.startswith(("#x", "#X")):
                char = chr(int(entity[2:], 16))
            elif entity.startswith("#"):
                char = chr(int(entity[1:]))
            elif entity in _PREDEFINED_ENTITIES:
                char = _PREDEFINED_ENTITIES[entity]
            else:
                raise self.error(f"unknown entity &{entity};", pos)
            parts += (raw[index:amp], char)
            index = end + 1
        parts.append(raw[index:])
        return "".join(parts)

    # -- grammar ------------------------------------------------------------

    def skip_misc(self, pos: int) -> int:
        """Skip prolog items: XML declaration, comments, PIs, DOCTYPE."""
        text = self.text
        while True:
            pos = self.skip_whitespace(pos)
            if text.startswith("<?", pos):
                pos = self.skip_past("?>", pos, pos, "processing instruction")
            elif text.startswith("<!--", pos):
                pos = self.skip_past("-->", pos + 4, pos, "comment")
            elif text.startswith("<!DOCTYPE", pos):
                pos = self.skip_doctype(pos)
            else:
                return pos

    def skip_doctype(self, pos: int) -> int:
        depth = 0
        for mark in _DOCTYPE_MARK.finditer(self.text, pos + len("<!DOCTYPE")):
            if mark[0] == "[":
                depth += 1
            elif mark[0] == "]":
                depth -= 1
            elif depth == 0:
                return mark.end()
        raise self.error("unterminated DOCTYPE declaration", len(self.text))

    def start_tag(self, pos: int) -> tuple[Element, int, bool]:
        """The element the start tag at ``pos`` opens, the position after
        the tag, and whether the tag was empty (``/>``)."""
        match = _START_TAG.match(self.text, pos)
        if match is None:
            return self.start_tag_by_tokens(pos)
        tag, listed, empty = match.groups()
        attributes: dict[str, str] = {}
        if listed:
            for attribute in _ATTRIBUTE.finditer(
                    self.text, match.start(2), match.end(2)):
                if attribute[1] in attributes:
                    return self.start_tag_by_tokens(pos)
                value = attribute.lastindex
                attributes[attribute[1]] = self.decode(
                    attribute[value], attribute.start(value))
        return Element(tag, attributes), match.end(), bool(empty)

    def start_tag_by_tokens(self, pos: int) -> tuple[Element, int, bool]:
        """:meth:`start_tag` for a tag its pattern does not match."""
        text = self.text
        tag, pos = self.read_name(pos + 1)
        attributes: dict[str, str] = {}
        while True:
            pos = self.skip_whitespace(pos)
            if text.startswith("/>", pos):
                return Element(tag, attributes), pos + 2, True
            if text.startswith(">", pos):
                return Element(tag, attributes), pos + 1, False
            name, pos = self.read_name(pos)
            pos = self.skip_whitespace(
                self.expect("=", self.skip_whitespace(pos)))
            quote = text[pos:pos + 1]
            if quote not in ("'", '"'):
                raise self.error("attribute value must be quoted", pos)
            end = text.find(quote, pos + 1)
            if end == -1:
                raise self.error("unterminated attribute value", pos + 1)
            if name in attributes:
                raise self.error(f"duplicate attribute {name!r}", pos + 1)
            attributes[name] = self.decode(text[pos + 1:end], pos + 1)
            pos = end + 1

    def end_tag_by_tokens(self, pos: int, tag: str) -> int:
        closing, pos = self.read_name(pos + 2)
        if closing != tag:
            raise self.error(
                f"mismatched end tag: expected </{tag}>, found </{closing}>",
                pos)
        return self.expect(">", self.skip_whitespace(pos))

    def parse_content(self, pos: int, stack: list[Element],
                      fragment: bool) -> int:
        """Parse the content of ``stack[-1]`` and all it nests.

        ``stack`` holds the open elements.  A document's content ends at
        the end tag that empties it; a fragment's container is never
        closed, and its content ends with the input.  Returns the
        position after the content.
        """
        text, keep, end_tag = self.text, self.keep_whitespace, _END_TAG.match
        # a fragment's container is on the stack but is not an element
        # of the fragment
        max_open = MAX_DEPTH + fragment - 1
        # the tree is detached while it grows: nodes are linked directly,
        # with no cached serialization or document index to maintain
        parent = stack[-1]
        while True:
            lt = text.find("<", pos)
            if lt == -1:
                if not fragment or len(stack) > 1:
                    raise self.error(f"unterminated element <{parent.tag}>",
                                     len(text))
                if pos == len(text):
                    return pos
                lt = len(text)
            mark = text[lt + 1:lt + 2]
            if mark == "/" and fragment and len(stack) == 1:
                raise self.error("unexpected end tag in fragment", lt)
            if lt != pos:
                value = self.decode(text[pos:lt], lt)
                if value.strip() or (keep and value):
                    node = Text(value)
                    parent.children.append(node)
                    node.parent = parent
                if lt == len(text):
                    return lt
            if mark == "/":
                match = end_tag(text, lt)
                if match is not None and match[1] == parent.tag:
                    pos = match.end()
                else:
                    pos = self.end_tag_by_tokens(lt, parent.tag)
                stack.pop()
                if not stack:
                    return pos
                parent = stack[-1]
            elif mark == "!" and text.startswith("<!--", lt):
                pos = self.skip_past("-->", lt + 4, lt, "comment")
            elif mark == "!" and text.startswith("<![CDATA[", lt):
                pos = self.skip_past("]]>", lt, lt, "CDATA section")
                node = Text(text[lt + 9:pos - 3])
                parent.children.append(node)
                node.parent = parent
            elif mark == "?":
                pos = self.skip_past("?>", lt, lt, "processing instruction")
            else:
                if len(stack) > max_open:
                    raise self.error(
                        f"elements nest deeper than {MAX_DEPTH}", lt)
                element, pos, empty = self.start_tag(lt)
                parent.children.append(element)
                element.parent = parent
                if not empty:
                    stack.append(element)
                    parent = element


def _parse_root(text: str, keep_whitespace: bool) -> Element:
    """The root element of a complete document, detached (no document,
    no node ids): for callers that read the tree and keep none of it."""
    parser = _Parser(text, keep_whitespace)
    pos = parser.skip_misc(0)
    if not text.startswith("<", pos):
        raise parser.error("expected root element", pos)
    root, pos, empty = parser.start_tag(pos)
    if not empty:
        pos = parser.parse_content(pos, [root], fragment=False)
    pos = parser.skip_whitespace(parser.skip_misc(pos))
    if pos != len(text):
        raise parser.error("unexpected content after root element", pos)
    return root


def parse_document(text: str, keep_whitespace: bool = False) -> Document:
    """Parse a complete XML document into a :class:`Document`.

    Raises :class:`repro.errors.XMLParseError` on malformed input,
    including trailing content after the root element.
    """
    return Document(_parse_root(text, keep_whitespace))


def parse_fragment(text: str, keep_whitespace: bool = False) -> list[Node]:
    """Parse a sequence of top-level nodes (elements and text).

    Useful for building update fragments in tests and examples.  The
    returned nodes are detached (no document, no node ids).
    """
    container = Element("#fragment")
    _Parser(text, keep_whitespace).parse_content(0, [container],
                                                 fragment=True)
    for node in container.children:
        node.parent = None
    return container.children
