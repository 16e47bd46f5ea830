"""Unit tests for the quantified-expression join optimizer."""

import pytest

from repro.xquery.optimizer import (
    JoinPlan,
    conjuncts,
    free_variables,
    hash_keys,
    plan_for,
    probe_keys,
)
from repro.xquery.parser import parse_query
from repro.xquery.values import UntypedAtomic


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
    def test_numbers_normalize(self):
        assert hash_keys(3) == [("num", 3.0)]
        assert hash_keys(3.0) == [("num", 3.0)]

    def test_booleans_are_numeric(self):
        assert hash_keys(True) == [("num", 1.0)]

    def test_nan_never_matches(self):
        assert hash_keys(float("nan")) == []

    def test_typed_string(self):
        assert hash_keys("abc") == [("str", "abc")]

    def test_untyped_gets_both_readings(self):
        keys = hash_keys(UntypedAtomic("42"))
        assert ("str", "42") in keys and ("num", 42.0) in keys

    def test_untyped_non_numeric(self):
        assert hash_keys(UntypedAtomic("abc")) == [("str", "abc")]

    def test_untyped_matches_number_key(self):
        # the invariant the hash join relies on: items that can compare
        # equal share a key
        assert set(hash_keys(UntypedAtomic("2"))) \
            & set(hash_keys(2)) == {("num", 2.0)}

    def test_probe_keys_union(self):
        keys = probe_keys(["a", 1])
        assert ("str", "a") in keys and ("num", 1.0) in keys


class TestJoinPlan:
    def _plan(self, text):
        expression = parse_query(text)
        return JoinPlan(expression), expression

    def test_correlation_detection(self):
        plan, _ = self._plan(
            "some $r in //rev, $s in $r/sub, $p in //pub "
            "satisfies $s/title/text() = $p/title/text()")
        assert plan.correlated == [False, True, False]

    def test_factor_scheduled_at_last_variable(self):
        plan, _ = self._plan(
            "some $a in //x, $b in //y "
            "satisfies $a/v/text() = 1 and $b/w/text() = $a/v/text()")
        assert len(plan.checks_after[0]) == 1
        assert len(plan.checks_after[1]) == 1

    def test_hash_join_detected(self):
        plan, _ = self._plan(
            "some $a in //aut, $b in //rev "
            "satisfies $b/name/text() = $a/name/text()")
        assert plan.equality_for[1] is not None

    def test_no_hash_join_for_correlated_source(self):
        plan, _ = self._plan(
            "some $r in //rev, $s in $r/sub "
            "satisfies $s/title/text() = 'x'")
        assert plan.equality_for[1] is None

    def test_constant_side_counts_as_bound(self):
        plan, _ = self._plan(
            "some $a in //aut satisfies $a/name/text() = 'Bob'")
        assert plan.equality_for[0] is not None

    def test_plan_cache_by_value(self):
        _, first = self._plan("some $a in //x satisfies $a = 1")
        second = parse_query("some $a in //x satisfies $a = 1")
        assert plan_for(first) is plan_for(second)


class TestJoinSemantics:
    """The optimized path must agree with naive semantics."""

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
    """A hash index must never serve stale data across
    evaluations."""

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
