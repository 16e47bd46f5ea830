"""Unit tests for the XML parser."""

import re
import xml.parsers.expat
from xml.etree import ElementTree

import pytest
from hypothesis import given, strategies as st

from repro.errors import XMLParseError
from repro.xtree import parse_document, parse_fragment
from repro.xtree.parser import MAX_DEPTH
from repro.xtree.node import Element, Text


#: (mode, text, message, line, column) of malformed inputs — ``d`` is
#: parse_document, ``f`` parse_fragment; a ``None`` line marks a
#: ValueError.  Every row was taken from the character-at-a-time parser
#: the tokenizer replaced.
_ERRORS = [
    ("d", "", "expected root element", 1, 1),
    ("d", "<a>", "unterminated element <a>", 1, 4),
    ("d", "<a></b>", "mismatched end tag: expected </a>, found </b>", 1, 7),
    ("d", "<a", "expected a name", 1, 3),
    ("d", "<a x=1/>", "attribute value must be quoted", 1, 6),
    ("d", '<a x="1" x="2"/>', "duplicate attribute 'x'", 1, 13),
    ("d", "<a/><b/>", "unexpected content after root element", 1, 5),
    ("d", "text only", "expected root element", 1, 1),
    ("d", "<a><!-- unterminated</a>", "unterminated comment", 1, 4),
    ("d", "<a>&#x;</a>", None, None, None),
    ("d", "<a>&bogus;</a>", "unknown entity &bogus;", 1, 11),
    ("d", "<a>\n<b></c></a>",
     "mismatched end tag: expected </b>, found </c>", 2, 7),
    ("d", '<a x="&bogus;"/>', "unknown entity &bogus;", 1, 7),
    ("d", "<a x='1' y=2>", "attribute value must be quoted", 1, 12),
    ("d", "<a><![CDATA[x</a>", "unterminated CDATA section", 1, 4),
    ("d", "<a><?pi x</a>", "unterminated processing instruction", 1, 4),
    ("d", "<?xml version='1.0'", "unterminated processing instruction", 1, 1),
    ("d", "<!-- x", "unterminated comment", 1, 1),
    ("d", "<!DOCTYPE a [ <!ELEMENT a ANY> ",
     "unterminated DOCTYPE declaration", 1, 32),
    ("d", "<a>&amp</a>", "unterminated entity reference", 1, 8),
    ("d", "<a x='&amp'/>", "unterminated entity reference", 1, 7),
    ("d", "<a x/>", "expected '='", 1, 5),
    ("d", '<a x="1/>', "unterminated attribute value", 1, 7),
    ("d", "<a></a x>", "expected '>'", 1, 8),
    ("d", "<a><1/></a>", "expected a name", 1, 5),
    ("d", "</a>", "expected a name", 1, 2),
    ("d", "<a>text", "unterminated element <a>", 1, 8),
    ("d", "<a><b>\n  <c/>\n</a>",
     "mismatched end tag: expected </b>, found </a>", 3, 4),
    ("d", "<a>\r\n<b x='1' x='2'/></a>", "duplicate attribute 'x'", 2, 13),
    ("d", "<a><!DOCTYPE a></a>", "expected a name", 1, 5),
    ("d", "<a>&#xZZ;</a>", None, None, None),
    ("d", "<a/>  <!-- c --> junk",
     "unexpected content after root element", 1, 18),
    ("d", "<a/><?pi", "unterminated processing instruction", 1, 5),
    ("d", "<a></>", "expected a name", 1, 6),
    ("d", "<a>x</a", "expected '>'", 1, 8),
    ("d", '<a b="1" c="&bogus;" d=2/>', "unknown entity &bogus;", 1, 13),
    ("d", "<1a/>", "expected a name", 1, 2),
    ("d", "<²/>", "expected a name", 1, 2),
    ("d", "<a ²='1'/>", "expected a name", 1, 4),
    ("d", "<.a/>", "expected a name", 1, 2),
    ("d", "<-a/>", "expected a name", 1, 2),
    ("d", "<\U00010107/>", "expected a name", 1, 2),
    ("d", "<a>\n  <b>&nope;</b>\n</a>", "unknown entity &nope;", 2, 12),
    ("d", "<a x='1'\n   y='&#x;'/>", None, None, None),
    ("d", "<!DOCTYPE a ]><a/>", "unterminated DOCTYPE declaration", 1, 19),
    ("d", "<a><![CDATA[]]>&bad;</a>", "unknown entity &bad;", 1, 21),
    ("d", "<ax='1'/>", "expected a name", 1, 4),
    ("d", "<a>&#-1;</a>", None, None, None),
    ("d", "<a>\n<b>\n<c>\n</a>",
     "mismatched end tag: expected </c>, found </a>", 4, 4),
    ("f", "</a>", "unexpected end tag in fragment", 1, 1),
    ("f", "x &bogus;", "unknown entity &bogus;", 1, 10),
    ("f", "<a>", "unterminated element <a>", 1, 4),
    ("f", "&bogus;</a>", "unexpected end tag in fragment", 1, 8),
    ("f", "<a/></b>", "unexpected end tag in fragment", 1, 5),
    ("f", "<a><b></a>",
     "mismatched end tag: expected </b>, found </a>", 1, 10),
    ("f", "text<!--", "unterminated comment", 1, 5),
]


class TestBasicParsing:
    def test_single_element(self):
        document = parse_document("<a/>")
        assert document.root.tag == "a"
        assert document.root.children == []

    def test_nested_elements(self):
        document = parse_document("<a><b><c/></b></a>")
        tags = [e.tag for e in document.root.iter_elements()]
        assert tags == ["a", "b", "c"]

    def test_text_content(self):
        document = parse_document("<a>hello</a>")
        assert document.root.text() == "hello"

    def test_attributes(self):
        document = parse_document('<a x="1" y=\'two\'/>')
        assert document.root.attributes == {"x": "1", "y": "two"}

    def test_xml_declaration_and_comments(self):
        document = parse_document(
            "<?xml version='1.0'?><!-- hi --><a><!-- inner -->x</a>")
        assert document.root.text() == "x"

    def test_doctype_skipped(self):
        document = parse_document(
            "<!DOCTYPE a [<!ELEMENT a (#PCDATA)>]><a>t</a>")
        assert document.root.text() == "t"

    def test_processing_instruction_skipped(self):
        document = parse_document("<a><?php echo ?>x</a>")
        assert document.root.text() == "x"

    def test_cdata(self):
        document = parse_document("<a><![CDATA[<not<parsed&]]></a>")
        assert document.root.text() == "<not<parsed&"

    @pytest.mark.parametrize("text", [
        "<a>ab<![CDATA[x]]>cd</a>",
        "<a>&lt;<![CDATA[x]]><![CDATA[y]]>z<!--c-->w</a>",
        "<a>a<b/>b<![CDATA[]]>c</a>",
    ])
    def test_cdata_keeps_document_order(self, text):
        assert parse_document(text).root.text() \
            == "".join(ElementTree.fromstring(text).itertext())

    def test_names_beyond_the_bmp(self):
        document = parse_document(
            "<\U00010400 \U00010401x='1'><a\U00010428/>"
            "</\U00010400>")
        assert document.root.tag == "\U00010400"
        assert document.root.attributes == {"\U00010401x": "1"}
        assert document.root.children[0].tag == "a\U00010428"

    def test_qualified_names(self):
        document = parse_document(
            "<xupdate:modifications><xupdate:element name='sub'/>"
            "</xupdate:modifications>")
        assert document.root.tag == "xupdate:modifications"
        assert document.root.children[0].tag == "xupdate:element"


class TestEntities:
    def test_predefined_entities(self):
        document = parse_document("<a>&lt;&gt;&amp;&apos;&quot;</a>")
        assert document.root.text() == "<>&'\""

    def test_numeric_entities(self):
        document = parse_document("<a>&#65;&#x42;</a>")
        assert document.root.text() == "AB"

    def test_entities_in_attributes(self):
        document = parse_document('<a x="&amp;&lt;"/>')
        assert document.root.attributes["x"] == "&<"

    def test_unknown_entity_rejected(self):
        with pytest.raises(XMLParseError):
            parse_document("<a>&nope;</a>")


class TestWhitespace:
    def test_whitespace_between_elements_dropped(self):
        document = parse_document("<a>\n  <b/>\n  <c/>\n</a>")
        assert all(isinstance(child, Element)
                   for child in document.root.children)

    def test_significant_text_kept(self):
        document = parse_document("<a> x </a>")
        assert document.root.text() == " x "

    def test_keep_whitespace_option(self):
        document = parse_document("<a> <b/> </a>", keep_whitespace=True)
        kinds = [type(child) for child in document.root.children]
        assert kinds == [Text, Element, Text]


class TestErrors:
    @pytest.mark.parametrize("text", [
        "",
        "<a>",
        "<a></b>",
        "<a",
        "<a x=1/>",
        '<a x="1" x="2"/>',
        "<a/><b/>",
        "text only",
        "<a><!-- unterminated</a>",
        "<a>&#x;</a>",
    ])
    def test_malformed_documents_raise(self, text):
        with pytest.raises((XMLParseError, ValueError)):
            parse_document(text)

    def test_error_carries_location(self):
        with pytest.raises(XMLParseError) as info:
            parse_document("<a>\n<b></c></a>")
        assert info.value.line == 2

    @pytest.mark.parametrize("mode, text, message, line, column", _ERRORS)
    def test_message_line_and_column(self, mode, text, message, line,
                                     column):
        parse = parse_document if mode == "d" else parse_fragment
        if line is None:
            # malformed character references escape as ValueError
            with pytest.raises(ValueError):
                parse(text)
            return
        with pytest.raises(XMLParseError) as info:
            parse(text)
        assert (info.value.message, info.value.line, info.value.column) \
            == (message, line, column)


def _nested(depth: int) -> str:
    return "<a>" * (depth - 1) + "<a/>" + "</a>" * (depth - 1)


class TestDepthLimit:
    """Elements nest at most ``MAX_DEPTH`` deep; the recursive
    serializer writes anything the parser accepts."""

    def test_document_at_the_limit_round_trips(self):
        from repro.xtree import serialize
        text = _nested(MAX_DEPTH)
        assert serialize(parse_document(text), declaration=False) == text

    def test_fragment_at_the_limit_round_trips(self):
        from repro.xtree.serializer import serialize_fragment
        text = "lead" + _nested(MAX_DEPTH)
        assert "".join(serialize_fragment(node)
                       for node in parse_fragment(text)) == text

    def test_document_one_deeper_raises_at_the_start_tag(self):
        with pytest.raises(XMLParseError) as info:
            parse_document("<r>\n" + _nested(MAX_DEPTH))
        assert (info.value.message, info.value.line, info.value.column) \
            == ("elements nest deeper than 256", 2,
                3 * (MAX_DEPTH - 1) + 1)

    def test_fragment_one_deeper_raises_at_the_start_tag(self):
        with pytest.raises(XMLParseError) as info:
            parse_fragment("<b/>" + _nested(MAX_DEPTH + 1))
        assert (info.value.message, info.value.line, info.value.column) \
            == ("elements nest deeper than 256", 1, 4 + 3 * MAX_DEPTH + 1)


class TestFragments:
    def test_fragment_returns_detached_nodes(self):
        nodes = parse_fragment("<sub><title>T</title></sub>")
        assert len(nodes) == 1
        assert nodes[0].parent is None
        assert nodes[0].node_id is None

    def test_fragment_multiple_top_level(self):
        nodes = parse_fragment("<a/>text<b/>")
        assert [getattr(n, "tag", "#text") for n in nodes] \
            == ["a", "#text", "b"]

    def test_fragment_rejects_stray_end_tag(self):
        with pytest.raises(XMLParseError):
            parse_fragment("</a>")


class TestRoundTrip:
    def test_structure_survives_reparse(self):
        from repro.xtree import serialize
        source = ('<review><track><name>DB &amp; IR</name>'
                   '<rev><name>A</name><sub><title>T1</title>'
                   '<auts><name>B</name></auts></sub></rev>'
                   '</track></review>')
        document = parse_document(source)
        again = parse_document(serialize(document))
        assert [e.tag for e in again.root.iter_elements()] \
            == [e.tag for e in document.root.iter_elements()]
        assert next(again.iter_elements("name")).text() == "DB & IR"


class TestNameClasses:
    def test_patterns_agree_with_the_str_predicates(self):
        """Exhaustive over the BMP (surrogates aside): ``re``'s own
        classes differ from ``str.isalpha`` on numerals like ``²``."""
        from repro.xtree.parser import _CHAR, _START
        name_start, name_char = re.compile(_START), re.compile(_CHAR)

        def is_name_start(char):
            return char.isalpha() or char in "_:"

        def is_name_char(char):
            return char.isalnum() or char in "_:.-"

        wrong = [
            hex(code) for code in range(0x10000)
            if not 0xD800 <= code <= 0xDFFF and (
                bool(name_start.fullmatch(chr(code)))
                != is_name_start(chr(code))
                or bool(name_char.fullmatch(chr(code)))
                != is_name_char(chr(code)))]
        assert wrong == []


# -- differential test against expat ----------------------------------------
# Left out of the generators, because expat normalizes them and this
# parser keeps them (neither changes here): raw tab, newline and
# carriage return inside attribute values, and carriage return in text.

def _expat_shape(text):
    """(tag, attributes, direct text, children) per element, built from
    expat's handlers — no namespace processing, so prefixed names stay
    verbatim; adjacent character data is joined."""
    parser = xml.parsers.expat.ParserCreate()
    stack = [("#document", {}, [], [])]

    def start(tag, attributes):
        element = (tag, attributes, [], [])
        stack[-1][3].append(element)
        stack.append(element)

    def data(chars):
        stack[-1][2].append(chars)

    parser.StartElementHandler = start
    parser.EndElementHandler = lambda tag: stack.pop()
    parser.CharacterDataHandler = data
    parser.Parse(text, True)

    def shape(element):
        tag, attributes, texts, children = element
        return (tag, attributes, "".join(texts),
                [shape(child) for child in children])
    return shape(stack[0][3][0])


def _shape(element):
    return (element.tag, element.attributes,
            "".join(child.value for child in element.children
                    if isinstance(child, Text)),
            [_shape(child) for child in element.children
             if isinstance(child, Element)])


_NAME = st.from_regex(r"[A-Za-z_\xe9][A-Za-z0-9_.\-]{0,4}"
                      r"(:[A-Za-z_][A-Za-z0-9_.\-]{0,4})?", fullmatch=True)
_CHARS = st.characters(min_codepoint=0x20, max_codepoint=0xFFFD,
                       blacklist_categories=("Cs",),
                       blacklist_characters="<&]\"'")
_REFERENCE = st.one_of(
    st.sampled_from(["&lt;", "&gt;", "&amp;", "&apos;", "&quot;"]),
    st.characters(min_codepoint=0x20, max_codepoint=0xFFFD,
                  blacklist_categories=("Cs",)).flatmap(
        lambda char: st.sampled_from(
            [f"&#{ord(char)};", f"&#x{ord(char):x};"])))
_TEXT = st.one_of(
    st.text(_CHARS, min_size=1, max_size=6),
    st.text(" \t\n", min_size=1, max_size=3),
    _REFERENCE)
_SPACE = st.sampled_from(["", " ", "\n  "])
_MARKUP = st.one_of(
    st.text(_CHARS, max_size=5).map(lambda t: f"<![CDATA[{t}]]>"),
    st.text(_CHARS.filter(lambda c: c != "-"), max_size=5).map(
        lambda t: f"<!--{t}-->"),
    st.text(_CHARS.filter(lambda c: c not in "?>"), max_size=5).map(
        lambda t: f"<?pi {t}?>"))


@st.composite
def _attributes(draw):
    names = draw(st.lists(_NAME, max_size=3, unique=True))
    rendered = []
    for name in names:
        quote = draw(st.sampled_from(['"', "'"]))
        value = "".join(draw(st.lists(
            st.one_of(st.text(_CHARS, min_size=1, max_size=4), _REFERENCE),
            max_size=3)))
        rendered.append(f"{draw(_SPACE) or ' '}{name}{draw(_SPACE)}="
                        f"{draw(_SPACE)}{quote}{value}{quote}")
    return "".join(rendered)


def _element(content):
    @st.composite
    def build(draw):
        tag = draw(_NAME)
        head = f"<{tag}{draw(_attributes())}{draw(_SPACE)}"
        parts = draw(st.lists(content, max_size=5))
        if not parts and draw(st.booleans()):
            return head + "/>"
        return f"{head}>{''.join(parts)}</{tag}{draw(_SPACE)}>"
    return build()


_ROOT = st.recursive(
    _element(st.one_of(_TEXT, _MARKUP)),
    lambda children: _element(st.one_of(_TEXT, _MARKUP, children)),
    max_leaves=12)
_PROLOG = st.tuples(
    st.sampled_from(["", '<?xml version="1.0"?>\n']),
    st.sampled_from(["", "<!-- prolog -->", "<?pi data?>\n"]),
    st.sampled_from(["", "<!DOCTYPE root [\n  <!ELEMENT root ANY>\n"
                         "  <!-- declares no entities -->\n]>"]),
    st.sampled_from(["", "\n", "<!-- after -->"])).map("".join)


class TestExpatOracle:
    @given(_PROLOG, _ROOT, st.sampled_from(["", "\n", "<!-- end -->"]))
    def test_trees_match_expat(self, prolog, root, trailer):
        text = prolog + root + trailer
        document = parse_document(text, keep_whitespace=True)
        assert _shape(document.root) == _expat_shape(text)

    @given(_ROOT)
    def test_fragments_are_detached_copies(self, root):
        nodes = parse_fragment(root, keep_whitespace=True)
        assert [type(node) for node in nodes] == [Element]
        assert _shape(nodes[0]) == _expat_shape(root)
        for node in nodes[0].iter():
            assert node.document is None and node.node_id is None
        assert nodes[0].parent is None
