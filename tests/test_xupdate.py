"""Unit tests for XUpdate parsing, application and analysis."""

import pytest

from repro.datalog import Parameter as P
from repro.errors import (
    ParseError,
    SimplificationError,
    UpdateApplicationError,
    XUpdateError,
)
from repro.datagen.running_example import (
    SECTION_4_1_XUPDATE,
    submission_xupdate,
)
from repro.xtree import parse_document, serialize
from repro.xupdate import (
    InsertOperation,
    RemoveOperation,
    analyze_operation,
    apply_operation,
    apply_text,
    canonical_update_text,
    parse_modifications,
    serialize_operation,
    serialize_operations,
)
from repro.xupdate.analyze import signature_of


class TestParsing:
    def test_insert_after(self):
        operations = parse_modifications(SECTION_4_1_XUPDATE)
        assert len(operations) == 1
        operation = operations[0]
        assert isinstance(operation, InsertOperation)
        assert operation.kind == "after"
        assert operation.select == "/review/track[2]/rev[5]/sub[6]"

    def test_element_constructor_builds_fragment(self):
        operation = parse_modifications(SECTION_4_1_XUPDATE)[0]
        fragment = operation.primary_element()
        assert fragment.tag == "sub"
        assert fragment.first_child("title").text() == "Taming Web Services"
        auts = fragment.first_child("auts")
        assert auts.first_child("name").text() == "Jack"

    def test_xupdate_text_constructor(self):
        text = """<xupdate:modifications
            xmlns:xupdate="http://www.xmldb.org/xupdate">
          <xupdate:append select="/review/track[1]">
            <xupdate:element name="rev">
              <xupdate:element name="name">
                <xupdate:text>Zoe</xupdate:text>
              </xupdate:element>
            </xupdate:element>
          </xupdate:append>
        </xupdate:modifications>"""
        operation = parse_modifications(text)[0]
        rev = operation.primary_element()
        assert rev.first_child("name").text() == "Zoe"

    def test_xupdate_attribute_constructor(self):
        text = """<xupdate:modifications
            xmlns:xupdate="http://www.xmldb.org/xupdate">
          <xupdate:append select="/r">
            <xupdate:element name="item">
              <xupdate:attribute name="kind">big</xupdate:attribute>
            </xupdate:element>
          </xupdate:append>
        </xupdate:modifications>"""
        operation = parse_modifications(text)[0]
        assert operation.primary_element().attributes == {"kind": "big"}

    def test_remove(self):
        text = """<xupdate:modifications
            xmlns:xupdate="http://www.xmldb.org/xupdate">
          <xupdate:remove select="//sub[1]"/>
        </xupdate:modifications>"""
        operation = parse_modifications(text)[0]
        assert isinstance(operation, RemoveOperation)

    @pytest.mark.parametrize("text", [
        "<wrong/>",
        """<xupdate:modifications
            xmlns:xupdate="http://www.xmldb.org/xupdate"/>""",
        """<xupdate:modifications
            xmlns:xupdate="http://www.xmldb.org/xupdate">
           <xupdate:rename select="//a"/>
        </xupdate:modifications>""",
        """<xupdate:modifications
            xmlns:xupdate="http://www.xmldb.org/xupdate">
           <xupdate:insert-after><a/></xupdate:insert-after>
        </xupdate:modifications>""",
        """<xupdate:modifications
            xmlns:xupdate="http://www.xmldb.org/xupdate">
           <xupdate:insert-after select="//a"></xupdate:insert-after>
        </xupdate:modifications>""",
    ])
    def test_malformed_rejected(self, text):
        with pytest.raises(XUpdateError):
            parse_modifications(text)


def _operation(kind: str, select: str, content: str) -> str:
    return (f'<xupdate:{kind} select="{select}">'
            f"{content}</xupdate:{kind}>")


def _modifications(*operations: str) -> str:
    return ('<xupdate:modifications version="1.0" '
            'xmlns:xupdate="http://www.xmldb.org/xupdate">'
            f'{"".join(operations)}</xupdate:modifications>')


def _modification(kind: str, select: str, content: str) -> str:
    return _modifications(_operation(kind, select, content))


def _chain(tag: str, height: int) -> str:
    """``height`` nested elements: one ``tag`` over ``x``s."""
    return f"<{tag}>" + "<x>" * (height - 1) + "</x>" * (height - 1) \
        + f"</{tag}>"


def _deep_append(depth: int) -> str:
    """An append whose modification document nests ``depth`` deep:
    ``modifications`` and ``append`` are the first two levels."""
    return _modification("append", "/review/track[1]/rev[1]",
                         _chain("sub", depth - 2))


#: ``rev[1]`` is the third level of the running example's review
#: document, so a ``deep`` chain of this height under it reaches the
#: limit exactly
_TO_THE_LIMIT = 256 - 3
#: the select of the deepest element the stacked append below builds
_DEEPEST = "/review/track[1]/rev[1]/deep" + "/x" * (_TO_THE_LIMIT - 1)


class TestDepthLimit:
    def test_modifications_at_the_limit_round_trip(self):
        from repro.xtree.parser import MAX_DEPTH
        (operation,) = parse_modifications(_deep_append(MAX_DEPTH))
        (again,) = parse_modifications(serialize_operation(operation))
        assert serialize_operation(again) == serialize_operation(operation)
        depth, node = 1, operation.content[0]
        while node.children:
            depth, node = depth + 1, node.children[0]
        assert depth == MAX_DEPTH - 2

    def test_modifications_one_deeper_raise(self):
        from repro.errors import XMLParseError
        from repro.xtree.parser import MAX_DEPTH
        with pytest.raises(XMLParseError,
                           match="elements nest deeper than 256"):
            parse_modifications(_deep_append(MAX_DEPTH + 1))

    def _at_the_limit(self, rev_doc):
        apply_text(rev_doc, _modification(
            "append", "/review/track[1]/rev[1]",
            _chain("deep", _TO_THE_LIMIT)))
        # the parser re-reads what the insert built
        text = serialize(rev_doc)
        assert serialize(parse_document(text)) == text
        return text

    def test_stacked_append_past_the_limit_is_refused(self, rev_doc):
        """Each fragment parses, but the second would nest the document
        257 deep: refused when applied, the document untouched."""
        before = self._at_the_limit(rev_doc)
        with pytest.raises(UpdateApplicationError,
                           match="nest 257 deep, deeper than 256"):
            apply_text(rev_doc, _modification("append", _DEEPEST, "<x/>"))
        assert serialize(rev_doc) == before

    @pytest.mark.parametrize("kind", ["insert-before", "insert-after"])
    def test_sibling_insert_past_the_limit_is_refused(self, rev_doc, kind):
        self._at_the_limit(rev_doc)
        apply_text(rev_doc, _modification(kind, _DEEPEST, "<y/>text"))
        before = serialize(rev_doc)
        with pytest.raises(UpdateApplicationError,
                           match="nest 257 deep, deeper than 256"):
            apply_text(rev_doc, _modification(kind, _DEEPEST, "<y><z/></y>"))
        assert serialize(rev_doc) == before

    def test_refusal_rolls_back_earlier_operations(self, rev_doc):
        before = self._at_the_limit(rev_doc)
        text = _modifications(
            _operation("append", "/review/track[1]",
                       "<rev><name>N</name></rev>"),
            _operation("append", _DEEPEST, "<x/>"))
        with pytest.raises(UpdateApplicationError):
            apply_text(rev_doc, text)
        assert serialize(rev_doc) == before


class TestApplication:
    def test_append(self, rev_doc):
        before = len(list(rev_doc.iter_elements("sub")))
        apply_text(rev_doc, submission_xupdate(1, 1, "T", "A"))
        assert len(list(rev_doc.iter_elements("sub"))) == before + 1

    def test_insert_after_position(self, rev_doc):
        update = submission_xupdate(1, 1, "T", "A", kind="after")
        applied = apply_text(rev_doc, update)
        new_sub = applied[0].inserted[0]
        # inserted after sub[1]; name is child 1, sub[1] child 2
        assert new_sub.child_position == 3

    def test_insert_before(self, rev_doc):
        text = """<xupdate:modifications
            xmlns:xupdate="http://www.xmldb.org/xupdate">
          <xupdate:insert-before select="/review/track[1]">
            <track><name>New</name>
              <rev><name>R</name>
                <sub><title>T</title><auts><name>A</name></auts></sub>
              </rev>
            </track>
          </xupdate:insert-before>
        </xupdate:modifications>"""
        apply_text(rev_doc, text)
        first = rev_doc.root.element_children("track")[0]
        assert first.first_child("name").text() == "New"

    def test_remove_and_rollback(self, rev_doc):
        text = """<xupdate:modifications
            xmlns:xupdate="http://www.xmldb.org/xupdate">
          <xupdate:remove select="/review/track[1]/rev[1]/sub[1]"/>
        </xupdate:modifications>"""
        snapshot = serialize(rev_doc)
        applied = apply_text(rev_doc, text)
        assert serialize(rev_doc) != snapshot
        applied[0].rollback()
        assert serialize(rev_doc) == snapshot

    def test_insert_rollback_restores_document(self, rev_doc):
        snapshot = serialize(rev_doc)
        applied = apply_text(rev_doc, submission_xupdate(2, 1, "T", "A"))
        applied[0].rollback()
        assert serialize(rev_doc) == snapshot

    def test_double_rollback_rejected(self, rev_doc):
        applied = apply_text(rev_doc, submission_xupdate(1, 1, "T", "A"))
        applied[0].rollback()
        with pytest.raises(UpdateApplicationError):
            applied[0].rollback()

    def test_unresolvable_select_rejected(self, rev_doc):
        with pytest.raises(UpdateApplicationError):
            apply_text(rev_doc, submission_xupdate(9, 9, "T", "A"))

    def test_content_is_copied_per_application(self, rev_doc):
        update = submission_xupdate(1, 1, "T", "A")
        operation = parse_modifications(update)[0]
        first = apply_operation(rev_doc, operation)
        second = apply_operation(rev_doc, operation)
        assert first.inserted[0] is not second.inserted[0]
        assert first.inserted[0].node_id != second.inserted[0].node_id


class TestAnalysis:
    def test_paper_pattern(self, relational_schema):
        operation = parse_modifications(SECTION_4_1_XUPDATE)[0]
        analyzed = analyze_operation(operation, relational_schema)
        assert str(analyzed.pattern) \
            == "{sub(is,ps,ir,t), auts(ia,pa,is,n)}"
        assert analyzed.pattern.fresh_parameters \
            == frozenset({P("is"), P("ia")})

    def test_paper_delta(self, relational_schema):
        operation = parse_modifications(SECTION_4_1_XUPDATE)[0]
        analyzed = analyze_operation(operation, relational_schema)
        assert sorted(str(d) for d in analyzed.hypotheses) == [
            "← auts(_,_,is,_)",
            "← auts(ia,_,_,_)",
            "← sub(is,_,_,_)",
        ]

    def test_signature_matches_same_shape(self, relational_schema):
        first = parse_modifications(
            submission_xupdate(1, 1, "X", "Y"))[0]
        second = parse_modifications(
            submission_xupdate(3, 7, "Other", "Names"))[0]
        assert signature_of(first, relational_schema) \
            == signature_of(second, relational_schema)

    def test_signature_differs_for_different_shape(self, relational_schema):
        single = parse_modifications(submission_xupdate(1, 1, "X", "Y"))[0]
        double = parse_modifications("""<xupdate:modifications
            xmlns:xupdate="http://www.xmldb.org/xupdate">
          <xupdate:append select="/review/track[1]/rev[1]">
            <sub><title>T</title>
              <auts><name>A</name></auts><auts><name>B</name></auts>
            </sub>
          </xupdate:append>
        </xupdate:modifications>""")[0]
        assert signature_of(single, relational_schema) \
            != signature_of(double, relational_schema)

    def test_binding_of_concrete_update(self, relational_schema, rev_doc):
        update = submission_xupdate(1, 2, "My Title", "My Author")
        operation = parse_modifications(update)[0]
        analyzed = analyze_operation(operation, relational_schema)
        bindings = analyzed.bind(rev_doc, operation)
        assert bindings["t"] == "My Title"
        assert bindings["n"] == "My Author"
        grace = bindings["ir"]
        assert grace.first_child("name").text() == "Grace"
        # Grace has name + 1 sub → append position 3
        assert bindings["ps"] == 3
        assert bindings["pa"] == 2

    def test_remove_not_analyzable(self, relational_schema):
        operation = RemoveOperation("//sub[1]")
        with pytest.raises(SimplificationError):
            analyze_operation(operation, relational_schema)

    def test_unknown_fragment_tag_rejected(self, relational_schema):
        text = """<xupdate:modifications
            xmlns:xupdate="http://www.xmldb.org/xupdate">
          <xupdate:append select="/review/track[1]/rev[1]">
            <mystery/>
          </xupdate:append>
        </xupdate:modifications>"""
        operation = parse_modifications(text)[0]
        with pytest.raises(XUpdateError):
            analyze_operation(operation, relational_schema)

    def test_two_author_pattern_names_deduped(self, relational_schema):
        text = """<xupdate:modifications
            xmlns:xupdate="http://www.xmldb.org/xupdate">
          <xupdate:append select="/review/track[1]/rev[1]">
            <sub><title>T</title>
              <auts><name>A</name></auts><auts><name>B</name></auts>
            </sub>
          </xupdate:append>
        </xupdate:modifications>"""
        operation = parse_modifications(text)[0]
        analyzed = analyze_operation(operation, relational_schema)
        auts_atoms = analyzed.pattern.additions_for("auts")
        assert len(auts_atoms) == 2
        names = {atom.args[3] for atom in auts_atoms}
        assert len(names) == 2  # distinct value parameters


class TestSerialization:
    """Canonical operation serialization (the WAL/commit-log form)."""

    def test_round_trips_through_parser(self):
        for text in (SECTION_4_1_XUPDATE,
                     submission_xupdate(2, 1, "Round Trip", "Zoe")):
            original = parse_modifications(text)[0]
            reparsed = parse_modifications(
                serialize_operation(original))[0]
            assert isinstance(reparsed, type(original))
            assert reparsed.kind == original.kind
            assert reparsed.select == original.select

    def test_round_trip_applies_identically(self, rev_doc):
        twin = parse_document(serialize(rev_doc))
        operation = parse_modifications(SECTION_4_1_XUPDATE)[0]
        # retarget the paper's select to a node this corpus has
        operation = InsertOperation(
            "append", "/review/track[1]/rev[1]", operation.content)
        reparsed = parse_modifications(
            serialize_operation(operation))[0]
        apply_operation(rev_doc, operation)
        apply_operation(twin, reparsed)
        assert serialize(rev_doc) == serialize(twin)

    def test_remove_and_multi_operation_documents(self):
        operations = [
            RemoveOperation("/review/track[1]/rev[1]/sub[1]"),
            parse_modifications(
                submission_xupdate(1, 2, "Second", "Ann"))[0],
        ]
        reparsed = parse_modifications(
            serialize_operations(operations))
        assert isinstance(reparsed[0], RemoveOperation)
        assert reparsed[0].select == operations[0].select
        assert isinstance(reparsed[1], InsertOperation)

    def test_select_attribute_is_escaped(self):
        operation = RemoveOperation('/review/track[name="A&B<C"]')
        reparsed = parse_modifications(
            serialize_operation(operation))[0]
        assert reparsed.select == operation.select

    def test_empty_sequence_rejected(self):
        with pytest.raises(XUpdateError):
            serialize_operations([])

    def test_canonical_text_is_not_the_dataclass_repr(self):
        operation = parse_modifications(
            submission_xupdate(1, 1, "Canonical", "Form"))[0]
        canonical = canonical_update_text(operation)
        assert canonical != str(operation)  # repr is not parseable
        assert parse_modifications(canonical)
        with pytest.raises(ParseError):
            parse_modifications(str(operation))

    def test_canonical_text_passes_strings_through(self):
        text = submission_xupdate(1, 1, "Verbatim", "Text")
        assert canonical_update_text(text) is text
