"""Print → parse round-trips for the two query languages.

Every AST prints to concrete syntax that must parse back to an
equivalent AST.  This pins the pretty-printers to the grammars and
catches precedence/escaping bugs in both directions.
"""

import pytest

from repro.xpathlog.parser import parse_constraint
from repro.xquery.parser import parse_query
from tests.test_planner import QUERIES as PLANNER_QUERIES


XPATHLOG_SOURCES = [
    "<- //sub",
    "<- //rev[/name/text() -> R]/sub/auts/name/text() -> A /\\ A = R",
    '<- //pub[title = "Duckburg tales"]/aut/name/text() -> N',
    "<- Cnt_D{[R]; //rev[/name/text() -> R]/sub} > 10",
    "<- Sum{X [R]; //rev[/name/text() -> R]/sub/position() -> X} > 5",
    "<- //pub[position() <= 3]",
    "<- //aut/../title -> T /\\ T = \"X\"",
    "<- //sub/title/text() -> T /\\ not(//pub[/title/text() -> T])",
    "<- //pub \\/ //rev /\\ //track",
    "<- (//pub \\/ //rev) /\\ //track",
]


class TestXPathLogRoundTrip:
    @pytest.mark.parametrize("source", XPATHLOG_SOURCES)
    def test_print_parse_fixpoint(self, source):
        first = parse_constraint(source)
        printed = str(first)
        second = parse_constraint(printed)
        assert str(second) == printed
        # and the ASTs agree (Constraint.source is excluded from eq)
        assert second.body == first.body


XQUERY_SOURCES = [
    "count(//sub)",
    "//rev[name/text() = 'Alice']/sub/title/text()",
    "some $x in //aut, $y in $x/.. satisfies "
    "$x/name/text() = $y/title/text()",
    "every $r in //rev satisfies count($r/sub) >= 1",
    "for $t in //track, $r in $t/rev where count($r/sub) > 2 "
    "return $r/name/text()",
    "let $all := //sub return count($all)",
    "exists(for $lr in //rev let $d := $lr/sub where count($d) > 4 "
    "return <idle/>)",
    "not(some $p in //pub satisfies $p/title/text() = 'x')",
    "1 + 2 * 3 - 4",
    "(1, 2, 3)",
    "-(2 + 3)",
    "1 to 4",
    "(//a | //b)",
    "//track[2]/rev[5]/name/text()",
    "if (count(//sub) > 3) then 'many' else 'few'",
    "distinct-values(//rev/name/text())",
    "$x[1]",
    "//sub[position() = last()]",
    "count((//a | //b)) = 2",
]
# explain prints a planned query's quantifiers and binding sources with
# ``str()``: the planner's differential corpus must round-trip too
XQUERY_SOURCES += [query for query in PLANNER_QUERIES
                   if query not in XQUERY_SOURCES]


class TestXQueryRoundTrip:
    @pytest.mark.parametrize("source", XQUERY_SOURCES)
    def test_print_parse_fixpoint(self, source):
        first = parse_query(source)
        printed = str(first)
        second = parse_query(printed)
        assert str(second) == printed

    @pytest.mark.parametrize("source", XQUERY_SOURCES)
    def test_round_trip_preserves_semantics(self, source, documents):
        from repro.errors import XQueryEvaluationError
        from repro.xquery.engine import evaluate_query
        first = parse_query(source)
        second = parse_query(str(first))
        variables = {"x": [1]}
        try:
            expected = evaluate_query(first, documents, variables)
        except XQueryEvaluationError:
            with pytest.raises(XQueryEvaluationError):
                evaluate_query(second, documents, variables)
            return
        assert evaluate_query(second, documents, variables) == expected


class TestTranslatedQueriesRoundTrip:
    """Every query the translator emits must be parseable (they are,
    since we evaluate them — this pins the invariant explicitly)."""

    def test_full_and_simplified_queries_parse(self, constraint_schema):
        texts = []
        for constraint in constraint_schema.constraints:
            texts.extend(q.text for q in constraint.full_queries)
        for checks in constraint_schema.patterns.values():
            for check in checks.optimized:
                texts.extend(q.text for q in check.queries)
        for text in texts:
            neutral = text.replace("%{", "'%").replace("}", "'") \
                if "%{" in text else text
            parse_query(neutral)
