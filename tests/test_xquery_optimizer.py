"""Unit tests for expression analysis and equality-key canonicalisation."""

import ast
import inspect
import itertools

import pytest

from repro.xquery.optimizer import (
    conjuncts,
    free_variables,
    hash_keys,
    matching_keys,
    probe_keys,
)
from repro.xquery.parser import parse_query
from repro.xquery.values import UntypedAtomic, compare_atomics


class TestConjuncts:
    def test_flattens_and_tree(self):
        expression = parse_query("1 = 1 and 2 = 2 and 3 = 3")
        assert len(conjuncts(expression)) == 3

    def test_or_is_one_factor(self):
        expression = parse_query("(1 = 1 or 2 = 2) and 3 = 3")
        assert len(conjuncts(expression)) == 2


class TestFreeVariables:
    def test_varrefs_collected(self):
        assert free_variables(parse_query("$a/b/text() = $c")) \
            == {"a", "c"}

    def test_predicates_collected(self):
        assert free_variables(parse_query("//rev[name = $r]/sub")) \
            == {"r"}

    def test_flwor_binding_shadows(self):
        expression = parse_query(
            "for $x in $src return $x/text() = $y")
        assert free_variables(expression) == {"src", "y"}

    def test_quantifier_binding_shadows(self):
        expression = parse_query(
            "some $x in //a satisfies $x = $outer")
        assert free_variables(expression) == {"outer"}

    def test_function_arguments(self):
        assert free_variables(parse_query("count($d) > $n")) \
            == {"d", "n"}


class TestHashKeys:
    def test_equal_numbers_share_a_key(self):
        assert hash_keys(3) == hash_keys(3.0) == [("num", 3)]

    def test_booleans_have_their_own_kind(self):
        assert hash_keys(True) == [("bool", True)]

    def test_nan_never_matches(self):
        assert hash_keys(float("nan")) == []
        assert hash_keys(UntypedAtomic("nan")) == [("str", "nan")]

    def test_typed_string(self):
        assert hash_keys("abc") == [("str", "abc")]

    def test_untyped_gets_both_readings(self):
        assert hash_keys(UntypedAtomic("42")) \
            == [("str", "42"), ("unum", 42.0)]

    def test_untyped_non_numeric(self):
        assert hash_keys(UntypedAtomic("abc")) == [("str", "abc")]

    def test_probe_side_of_each_kind(self):
        assert probe_keys([UntypedAtomic("42")]) \
            == {("str", "42"), ("num", 42.0)}
        assert probe_keys(["a", 1]) \
            == {("str", "a"), ("num", 1), ("unum", 1), ("bool", 1)}
        assert probe_keys([True]) == {("bool", True), ("num", True)}
        assert matching_keys(frozenset(hash_keys(UntypedAtomic("42")))) \
            == probe_keys([UntypedAtomic("42")])
        text_only = frozenset(hash_keys(UntypedAtomic("Ann")))
        assert matching_keys(text_only) is text_only

    def test_untyped_spellings_of_a_number_do_not_meet(self):
        one, one_point_zero = UntypedAtomic("1"), UntypedAtomic("1.0")
        assert not set(hash_keys(one)) & probe_keys([one_point_zero])
        assert set(hash_keys(one)) & probe_keys([1])
        assert set(hash_keys(one_point_zero)) & probe_keys([1])
        assert set(hash_keys(1)) & probe_keys([one_point_zero])

    def test_bucket_hit_iff_compare_atomics(self):
        # the contract every value index relies on, over every pairing
        # of operand kinds general comparison distinguishes
        spellings = ["1", "1.0", "01", "1e0", " 1", "-0", "0", "nan",
                     "inf", "abc", "", "true"]
        atoms = [UntypedAtomic(text) for text in spellings] \
            + spellings \
            + [1, 1.0, 0, -0.0, True, False, float("nan"), float("inf"),
               2 ** 53 + 1, float(2 ** 53), UntypedAtomic(str(2 ** 53 + 1))]
        for indexed, probing in itertools.product(atoms, repeat=2):
            hit = bool(set(hash_keys(indexed)) & probe_keys([probing]))
            assert hit == compare_atomics("=", indexed, probing), \
                (indexed, probing)


def test_engine_shares_no_join_code():
    """The reference engine is the oracle for the key format and the
    planner's joins, so it must not import either."""
    from repro.xquery import engine
    imported: set[str] = set()
    for node in ast.walk(ast.parse(inspect.getsource(engine))):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert not imported & {"hash_keys", "probe_keys", "matching_keys",
                           "plan_for", "repro.xquery.optimizer",
                           "repro.xquery.planner",
                           "repro.xquery.columnar"}
    assert "indexes" not in engine.QueryContext.__dataclass_fields__


class TestJoinSemantics:
    """Join-shaped quantifiers under the reference engine."""

    @pytest.fixture()
    def doc(self):
        from repro.xtree import parse_document
        return parse_document(
            "<r>"
            "<a><v>1</v></a><a><v>2</v></a><a><v>3</v></a>"
            "<b><w>2</w></b><b><w>3</w></b><b><w>9</w></b>"
            "</r>")

    def test_hash_join_matches(self, doc):
        from repro.xquery.engine import query_truth
        assert query_truth(
            "some $a in //a, $b in //b "
            "satisfies $a/v/text() = $b/w/text()", doc)
        assert not query_truth(
            "some $a in //a, $b in //b "
            "satisfies $a/v/text() = $b/w/text() and $a/v/text() = '9'",
            doc)

    def test_empty_source_short_circuits(self, doc):
        from repro.xquery.engine import query_truth
        assert not query_truth(
            "some $a in //missing, $b in //b satisfies true()", doc)

    def test_disjunctive_condition_unaffected(self, doc):
        from repro.xquery.engine import query_truth
        assert query_truth(
            "some $a in //a satisfies $a/v/text() = '9' "
            "or $a/v/text() = '3'", doc)

    def test_outer_variable_in_equality(self, doc):
        from repro.xquery.engine import evaluate_query
        result = evaluate_query(
            "some $b in //b satisfies $b/w/text() = $probe", doc,
            {"probe": ["9"]})
        assert result == [True]


class TestIndexCache:
    """No evaluation may see a previous evaluation's data."""

    def test_cache_invalidated_by_mutation(self):
        from repro.xquery.engine import query_truth
        from repro.xtree import parse_document
        from repro.xtree.node import Element, Text

        doc = parse_document("<r><a><v>1</v></a><b><w>2</w></b></r>")
        query = ("some $b in //b satisfies "
                 "not(some $a in //a satisfies "
                 "$a/v/text() = $b/w/text())")
        # no a with v=2 → the negation holds for b
        assert query_truth(query, doc)
        new_a = Element("a")
        value = Element("v")
        value.append(Text("2"))
        new_a.append(value)
        doc.root.append(new_a)
        # now an a with v=2 exists; a stale index would still say True
        assert not query_truth(query, doc)
        doc.root.remove(new_a)
        assert query_truth(query, doc)

    def test_revision_counter_bumps(self):
        from repro.xtree import parse_document
        from repro.xtree.node import Element

        doc = parse_document("<r><a/></r>")
        before = doc.revision
        child = Element("b")
        doc.root.append(child)
        assert doc.revision > before
        middle = doc.revision
        doc.root.remove(child)
        assert doc.revision > middle
