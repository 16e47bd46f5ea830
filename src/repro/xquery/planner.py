"""Cost-based check planner: the one place a check's joins are decided.

The translated integrity checks are existential conjunctive queries
(``some $v1 in s1, ... satisfies F1 and ... and Fk``).  Evaluated by
the book — the reference engine's nested loops in source order
(:mod:`repro.xquery.engine`) — they are quadratic or worse in the
document size; a real XQuery engine (eXist in the paper) answers such
joins from value indexes.  This module is that stand-in: it plans and
compiles each prepared check, and serves its equality joins from the
documents' value indexes (:class:`~repro.relational.columns.PathIndex`):

* **statistics** — per-document, per-tag cardinalities, per-(parent
  tag, tag) child counts and distinct-value counts served by the
  incremental tag index (:meth:`repro.xtree.node.Document.tag_count`
  / :meth:`~repro.xtree.node.Document.child_count` /
  :meth:`~repro.xtree.node.Document.tag_distinct_count`) — exact
  counts of the state the plan
  is compiled on;
* **planning** — independent quantifier bindings are reordered
  greedily by estimated cardinality x selectivity (hash-joinable
  bindings are discounted by the distinct values of their join key),
  conjuncts are re-assigned to the earliest position of the chosen
  order, uncorrelated sources with an equality conjunct linking them
  to already-bound variables become hash joins, key-filtered child
  steps become correlated probes (:mod:`repro.xquery.columnar`), and
  equality predicates on ``//tag`` steps are turned into value-index
  probes;
* **compilation** — the plan is compiled to Python closures over a
  mutable variable environment (:class:`repro.xquery.columnar.Runtime`).
  Every quantifier is lowered to one set-at-a-time frontier plan
  (:func:`repro.xquery.columnar.lower_some`; ``every`` as
  ``not(some … satisfies not(…))``) whose conjuncts are key-set
  filters or per-row truth closures that lowering asks the plan for
  (``_Plan.compile``/``_Plan.truth``); a frontier beyond the row cap,
  and the rare shape lowering refuses, run in the reference engine.
  The closure compiler covers what the translated checks are made of —
  ``some``, ``not``, ``and``, general comparisons, arithmetic, library
  calls (``count``, ``sum``, ``distinct-values``, …) and paths, whose
  steps run through the engine's own axis helpers.  Every other
  construct falls back to :func:`repro.xquery.engine._evaluate`
  through a bridging :class:`~repro.xquery.engine.QueryContext`, so
  planned evaluation is *total*: every query the engine accepts runs,
  with identical verdicts;
* **value indexes** — one accessor,
  :func:`repro.relational.columns.value_index`, serves the frontier's
  joins and the probe steps: the document's own index, built on first
  read and delta-maintained from then on.  A fault while rebuilding a
  dirty document's indexes fails the evaluation, and the next read
  retries;
* **ownership** — this module keeps no plan.  A compiled plan holds
  no document, so the prepared check that asked for it keeps it
  (:meth:`repro.xquery.translate.TranslatedQuery.truth`, one plan per
  size class of its documents); ad-hoc queries are planned per call.

The dependency is one-way: this module imports
:mod:`repro.xquery.columnar`, which imports nothing from here; the AST
shapes both read (downpaths, ``//tag`` sources, join equalities) live
in :mod:`repro.xquery.optimizer`, and the one bucket walk over a value
index is :func:`repro.relational.columns.probe`.

Planned evaluation serves *truth* (effective-boolean-value) queries —
the form every integrity check takes.  Sequence order is not part of
that contract: the planner is free to reorder and deduplicate node
sets as long as the verdict (and every count/aggregate feeding it)
matches the reference engine, which the differential test suite
asserts verdict-for-verdict.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Callable

from repro.errors import XQueryEvaluationError
from repro.relational import columns
from repro.testing.failpoints import fail
from repro.xquery import columnar, engine, functions
from repro.xquery.ast import (
    AxisStep,
    BinaryOp,
    ContextItem,
    Expression,
    FunctionCall,
    IfExpr,
    Literal,
    PathExpr,
    Quantified,
    SequenceExpr,
    TextLiteral,
    UnaryOp,
    VarRef,
    boolean_filter_safe,
)
from repro.xquery.columnar import Runtime
from repro.xquery.optimizer import (
    SIMPLE_STEP_NODETESTS,
    conjuncts,
    downpath_steps,
    focus_free,
    free_variables,
    hash_keys,
    join_equality,
    probe_keys,
    var_downpath,
)
from repro.xquery.values import (
    Sequence,
    atomize,
    effective_boolean_value,
    general_compare,
)
from repro.xtree.node import Document, Node

__all__ = [
    "Statistics",
    "enabled",
    "explain_query",
    "plan",
    "query_truth_planned",
    "run",
    "unplanned",
]


# ---------------------------------------------------------------------------
# Enablement
# ---------------------------------------------------------------------------

_STATE = threading.local()


def enabled() -> bool:
    """Whether planned evaluation is active on this thread."""
    return getattr(_STATE, "enabled", True)


@contextmanager
def unplanned():
    """Temporarily route checks through the reference engine
    (:mod:`repro.xquery.engine`).

    The differential suites' switch: the same checks, decided by the
    nested-loop oracle instead of a plan.
    """
    previous = enabled()
    _STATE.enabled = False
    try:
        yield
    finally:
        _STATE.enabled = previous


#: ``benchmarks/e2e/layers.py`` still times a ``truth_planned_ms`` row
#: under this name; the alias goes when that row does
without_columns = unplanned


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

class Statistics:
    """Cardinality/selectivity estimates over a document collection,
    read from each document's incremental tag index."""

    __slots__ = ("documents", "_children", "_key_distinct")

    def __init__(self, documents: tuple[Document, ...]) -> None:
        fail.point("planner.stats.refresh")
        self.documents = tuple(documents)
        # Memos for the one plan these statistics serve: greedy
        # ordering re-estimates every binding once per round.
        self._children: dict[tuple[str, str], float] = {}
        self._key_distinct: dict[tuple, float] = {}

    def count(self, tag: str) -> float:
        """Number of elements with ``tag`` in the collection."""
        return float(sum(document.tag_count(tag)
                         for document in self.documents))

    def distinct(self, tag: str) -> float:
        """Estimated distinct direct-text values among ``tag`` elements.

        The selectivity denominator for equality predicates keyed on
        the tag's text.
        """
        total = sum(document.tag_distinct_count(tag)
                    for document in self.documents)
        return max(1.0, float(total))

    def children(self, parent_tag: str, tag: str) -> float:
        """Number of ``tag`` children of ``parent_tag`` elements."""
        key = (parent_tag, tag)
        count = self._children.get(key)
        if count is None:
            count = self._children[key] = float(sum(
                document.child_count(parent_tag, tag)
                for document in self.documents))
        return count

    def key_distinct(self, tag: str,
                     steps: tuple[tuple[str, str], ...]) -> float:
        """Distinct values of ``tag/steps`` over the collection: the
        number of keys an index of ``//tag`` by ``steps`` spreads its
        elements over (at least 1)."""
        key = (tag, steps)
        count = self._key_distinct.get(key)
        if count is None:
            values = {tuple(hash_keys(atom))
                      for document in self.documents
                      for element in document.elements_by_tag(tag)
                      for atom in atomize(
                          columns.eval_downpath(steps, element))}
            count = self._key_distinct[key] = max(1.0, float(len(values)))
        return count


# ---------------------------------------------------------------------------
# Cardinality estimation
# ---------------------------------------------------------------------------

def _estimate(expression: Expression, stats: Statistics,
              anchors: dict[str, str]) -> float:
    return _estimate_any(expression, stats, anchors)[0]


def _estimate_any(expression: Expression, stats: Statistics,
                  anchors: dict[str, str]) -> tuple[float, str | None]:
    """(estimated cardinality, tag the result items range over)."""
    if isinstance(expression, (Literal, TextLiteral, ContextItem)):
        return 1.0, None
    if isinstance(expression, VarRef):
        return 1.0, anchors.get(expression.name)
    if isinstance(expression, PathExpr):
        return _estimate_path(expression, stats, anchors)
    if isinstance(expression, FunctionCall):
        if expression.name == "distinct-values" and expression.args:
            card, anchor = _estimate_any(
                expression.args[0], stats, anchors)
            if anchor is not None:
                card = min(card, stats.distinct(anchor))
            return max(card, 0.0), None
        return 1.0, None
    if isinstance(expression, SequenceExpr):
        return (sum(_estimate(item, stats, anchors)
                    for item in expression.items), None)
    if isinstance(expression, (BinaryOp, UnaryOp, Quantified, IfExpr)):
        return 1.0, None
    return 4.0, None


def _estimate_path(path: PathExpr, stats: Statistics,
                   anchors: dict[str, str]) -> tuple[float, str | None]:
    if path.start is None:
        card, anchor = 1.0, None
        over_documents = True
    elif isinstance(path.start, VarRef):
        card, anchor = 1.0, anchors.get(path.start.name)
        over_documents = False
    elif isinstance(path.start, ContextItem):
        card, anchor = 1.0, None
        over_documents = False
    else:
        card, anchor = _estimate_any(path.start, stats, anchors)
        over_documents = False
    for step, descendant in zip(path.steps, path.descendant_flags):
        nodetest = step.nodetest
        if step.axis == "attribute" or nodetest in ("text()", "position()"):
            pass  # ~one value per context element
        elif step.axis in ("parent", "self"):
            if step.axis == "parent":
                anchor = None
        elif nodetest in ("*", "node()"):
            card *= 4.0
            anchor = None
        else:
            total = stats.count(nodetest)
            if descendant and over_documents:
                card = total
            else:
                parent_total = stats.count(anchor) if anchor else 0.0
                if parent_total > 0.0:
                    if not descendant:
                        total = stats.children(anchor, nodetest)
                    card *= total / parent_total
                elif descendant:
                    card *= max(total, 1.0)
                elif total == 0.0:
                    card *= 0.5
                # else: a child step under an unknown anchor — assume
                # the DTD-typical one child per parent
            anchor = nodetest
        over_documents = False
        for predicate in step.predicates:
            probe = _probe_spec(predicate)
            if probe is not None:
                key_tag = _last_named_tag(probe[0]) or anchor
                denominator = stats.distinct(key_tag) if key_tag else 2.0
                card /= max(denominator, 1.0)
            else:
                card *= 0.5
    return max(card, 0.0), anchor


def _last_named_tag(downpath: tuple[tuple[str, str], ...]) -> str | None:
    for axis, nodetest in reversed(downpath):
        if axis == "child" and nodetest != "text()":
            return nodetest
    return None


# ---------------------------------------------------------------------------
# Predicate analysis: EBV-safe filters and value-index probes
# ---------------------------------------------------------------------------

def _ebv_filter_safe(predicate: Expression) -> bool:
    """Predicate applicable element-wise over an index fetch.

    Extends :func:`~repro.xquery.ast.boolean_filter_safe` with
    node-producing path predicates: paths whose steps cannot yield bare
    numbers can never trigger the positional rule, so their effective
    boolean value is focus-partitioning-independent too.
    """
    if boolean_filter_safe(predicate):
        return True
    if isinstance(predicate, PathExpr):
        if predicate.start is not None \
                and not isinstance(predicate.start, (ContextItem, VarRef)):
            return False
        return all(step.nodetest != "position()"
                   for step in predicate.steps)
    return False


def _probe_spec(
        predicate: Expression
) -> "tuple[tuple[tuple[str, str], ...], Expression] | None":
    """Decompose a predicate into (key downpath, probe expression).

    Recognized forms (``c`` is the candidate element):

    * ``[keypath = rhs]`` — keep ``c`` iff some value of
      ``c/keypath`` general-compares equal to ``rhs``;
    * ``[p1/../pn[inner = rhs]]`` — an existential path whose last
      step carries a single equality predicate; folded into
      ``[p1/../pn/inner = rhs]``, which has the same effective boolean
      value.

    ``rhs`` must be focus-free (same value for every candidate), which
    makes the candidate set answerable by one hash probe into an index
    of all same-tag elements keyed by their downpath values — the
    canonical keys of :func:`repro.xquery.optimizer.hash_keys`
    guarantee probe/scan equivalence.
    """
    if isinstance(predicate, BinaryOp) and predicate.op == "=":
        for key_side, probe_side in ((predicate.left, predicate.right),
                                     (predicate.right, predicate.left)):
            downpath = downpath_steps(key_side)
            if downpath is not None and focus_free(probe_side):
                return downpath, probe_side
        return None
    if isinstance(predicate, PathExpr) \
            and isinstance(predicate.start, ContextItem) \
            and not any(predicate.descendant_flags):
        outer: list[tuple[str, str]] = []
        steps = predicate.steps
        for step in steps[:-1]:
            if step.axis != "child" or step.predicates \
                    or step.nodetest in SIMPLE_STEP_NODETESTS:
                return None
            outer.append(("child", step.nodetest))
        last = steps[-1]
        if last.axis != "child" or len(last.predicates) != 1 \
                or last.nodetest in SIMPLE_STEP_NODETESTS:
            return None
        inner = last.predicates[0]
        if not (isinstance(inner, BinaryOp) and inner.op == "="):
            return None
        folded = _probe_spec(inner)
        if folded is None:
            return None
        inner_path, probe_side = folded
        outer.append(("child", last.nodetest))
        return tuple(outer) + inner_path, probe_side
    return None


Closure = Callable[[Runtime], Sequence]
TruthClosure = Callable[[Runtime], bool]


# ---------------------------------------------------------------------------
# Plan structures
# ---------------------------------------------------------------------------

class _BindingInfo:
    """Explain record for one planned binding."""

    __slots__ = ("name", "source", "kind", "estimate", "original_index",
                 "key")

    def __init__(self, name: str, source: Expression, kind: str,
                 estimate: float, original_index: int,
                 key: tuple) -> None:
        self.name = name
        self.source = source
        self.kind = kind
        self.estimate = estimate
        self.original_index = original_index
        self.key = key


class _QuantifierInfo:
    """Explain record for one planned quantifier."""

    __slots__ = ("index", "kind", "expression", "bindings")

    def __init__(self, index: int, kind: str,
                 expression: Quantified) -> None:
        self.index = index
        self.kind = kind
        self.expression = expression
        self.bindings: list[_BindingInfo] = []


class _Plan:
    """Compilation context: statistics, explain records, and the
    closure compiler that lowering (:func:`columnar.lower_some`) calls
    back into."""

    __slots__ = ("stats", "infos")

    def __init__(self, stats: Statistics) -> None:
        self.stats = stats
        self.infos: list[_QuantifierInfo] = []

    def compile(self, expression: Expression) -> Closure:
        """A value closure for ``expression``."""
        return _compile(expression, self)

    def truth(self, expression: Expression) -> TruthClosure:
        """An effective-boolean-value closure for ``expression``."""
        return _compile_truth(expression, self)


# ---------------------------------------------------------------------------
# Binding order selection
# ---------------------------------------------------------------------------

def _choose_order(quantified: Quantified,
                  stats: Statistics) -> tuple[int, ...]:
    """Greedy selectivity order for a quantifier's bindings.

    Repeatedly picks, among the bindings whose dependencies are
    satisfied, the one with the smallest effective cost
    (:func:`_binding_cost`).  Reordering is sound because the
    bindings of a quantifier are independent nested loops — only the
    dependency order between correlated sources must be preserved.
    """
    bindings = quantified.bindings
    names = [name for name, _ in bindings]
    name_set = frozenset(names)
    source_deps = [free_variables(source) & name_set
                   for _, source in bindings]
    factors = conjuncts(quantified.condition)

    chosen: list[int] = []
    chosen_names: set[str] = set()
    anchors: dict[str, str] = {}
    remaining = list(range(len(bindings)))
    while remaining:
        best: tuple[float, int, str | None] | None = None
        for index in remaining:
            if source_deps[index] - chosen_names:
                continue
            name, source = bindings[index]
            _, cost, anchor = _binding_cost(name, source, chosen_names,
                                            name_set, factors, stats,
                                            anchors)
            if best is None or cost < best[0] - 1e-9:
                best = (cost, index, anchor)
        assert best is not None, "binding dependencies form a cycle"
        _, index, anchor = best
        chosen.append(index)
        chosen_names.add(names[index])
        if anchor is not None:
            anchors[names[index]] = anchor
        remaining.remove(index)
    return tuple(chosen)


def _binding_cost(name: str, source: Expression, bound: set[str],
                  name_set: frozenset[str], factors: list[Expression],
                  stats: Statistics, anchors: dict[str, str]
                  ) -> tuple[float, float, str | None]:
    """(estimated cardinality, cost, anchor tag) of one binding.

    The cost is the rows the binding adds per upstream row: the
    source's estimated cardinality, discounted by the join key's
    distinct count when the source reads no quantifier variable and an
    equality conjunct makes it hash-joinable against ``bound`` (or
    outer) variables: a probe of the key's value index returns about
    ``count / distinct`` elements.
    """
    card, anchor = _estimate_any(source, stats, anchors)
    if free_variables(source) & name_set:
        return card, card, anchor
    equality = join_equality(name, bound, name_set, factors)
    if equality is None:
        return card, card, anchor
    steps = var_downpath(equality[1], name)
    if anchor is None:
        denominator = 2.0
    elif steps is None:
        denominator = stats.distinct(anchor)
    else:
        denominator = stats.key_distinct(anchor, steps)
    return card, max(card / denominator, 0.5), anchor


# ---------------------------------------------------------------------------
# Compilation: general expressions
# ---------------------------------------------------------------------------

def _fallback(expression: Expression) -> Closure:
    def run(rt: Runtime) -> Sequence:
        return engine._evaluate(expression, rt.context())
    return run


def _compile(expression: Expression, pl: _Plan) -> Closure:
    """A value closure.  Compiled: what the translated checks are made
    of — literals, variables, paths, comparisons, arithmetic, ``and``
    and library calls.  Everything else (sequences, unary signs,
    ``if``, ``or``, FLWOR, constructors, a quantifier in value
    position, ``position()``/``last()``, unknown names and bad
    arities) is evaluated by the engine, with the same values and the
    same errors."""
    if isinstance(expression, Literal):
        value = expression.value

        def literal(rt: Runtime) -> Sequence:
            return [value]
        return literal
    if isinstance(expression, VarRef):
        name = expression.name

        def var(rt: Runtime) -> Sequence:
            try:
                return rt.env[name]
            except KeyError:
                raise XQueryEvaluationError(
                    f"unbound variable ${name}") from None
        return var
    if isinstance(expression, ContextItem):
        def item_fn(rt: Runtime) -> Sequence:
            if rt.item is None:
                raise XQueryEvaluationError("no context item")
            return [rt.item]
        return item_fn
    if isinstance(expression, PathExpr):
        return _compile_path(expression, pl)
    if isinstance(expression, BinaryOp):
        return _compile_binary(expression, pl)
    if isinstance(expression, FunctionCall):
        return _compile_call(expression, pl)
    return _fallback(expression)


def _compile_binary(expression: BinaryOp, pl: _Plan) -> Closure:
    op = expression.op
    if op == "and":
        truth = _compile_truth(expression, pl)

        def boolean(rt: Runtime) -> Sequence:
            return [truth(rt)]
        return boolean
    if op not in engine._GENERAL_OPS and op not in engine._ARITHMETIC_OPS:
        return _fallback(expression)
    left = _compile(expression.left, pl)
    right = _compile(expression.right, pl)
    if op in engine._GENERAL_OPS:
        def compare(rt: Runtime) -> Sequence:
            return [general_compare(op, left(rt), right(rt))]
        return compare

    def arithmetic(rt: Runtime) -> Sequence:
        return engine._arithmetic(op, left(rt), right(rt))
    return arithmetic


def _compile_call(expression: FunctionCall, pl: _Plan) -> Closure:
    name, arguments = expression.name, expression.args
    if name == "not" and len(arguments) == 1:
        inner = _compile_truth(arguments[0], pl)
        return lambda rt: [not inner(rt)]
    entry = functions.REGISTRY.get(name)
    if entry is None or not entry[1] <= len(arguments) <= entry[2]:
        return _fallback(expression)
    implementation = entry[0]
    args = [_compile(argument, pl) for argument in arguments]

    def call(rt: Runtime) -> Sequence:
        return implementation(*[argument(rt) for argument in args])
    return call


def _compile_truth(expression: Expression, pl: _Plan) -> TruthClosure:
    """Effective-boolean-value closure with short-circuiting."""
    if isinstance(expression, BinaryOp):
        op = expression.op
        if op == "and":
            left = _compile_truth(expression.left, pl)
            right = _compile_truth(expression.right, pl)
            return lambda rt: left(rt) and right(rt)
        if op in engine._GENERAL_OPS:
            left_fn = _compile(expression.left, pl)
            right_fn = _compile(expression.right, pl)
            return lambda rt: general_compare(op, left_fn(rt),
                                              right_fn(rt))
    if isinstance(expression, FunctionCall) and expression.name == "not" \
            and len(expression.args) == 1:
        inner = _compile_truth(expression.args[0], pl)
        return lambda rt: not inner(rt)
    if isinstance(expression, Quantified):
        return _compile_quantified_truth(expression, pl)
    fn = _compile(expression, pl)
    return lambda rt: effective_boolean_value(fn(rt))


# ---------------------------------------------------------------------------
# Compilation: paths
# ---------------------------------------------------------------------------

def _compile_start(path: PathExpr, pl: _Plan) -> Closure:
    start = path.start
    if start is None:
        return lambda rt: list(rt.documents)
    return _compile(start, pl)


def _compile_path(path: PathExpr, pl: _Plan) -> Closure:
    start_fn = _compile_start(path, pl)
    step_fns = [
        _compile_step(step, descendant, pl)
        for step, descendant in zip(path.steps, path.descendant_flags)]

    def run(rt: Runtime) -> Sequence:
        items = start_fn(rt)
        for step_fn in step_fns:
            if not items:
                return items
            items = step_fn(rt, items)
        return items
    return run


StepClosure = Callable[[Runtime, Sequence], Sequence]


def _compile_step(step: AxisStep, descendant: bool,
                  pl: _Plan) -> StepClosure:
    generic = _compile_generic_step(step, descendant)
    if not descendant or step.axis != "child" \
            or step.nodetest in SIMPLE_STEP_NODETESTS:
        return generic
    # ``//tag`` candidate: serve whole-document fetches from the tag
    # index, with an optional value-index probe for a leading equality
    # predicate and element-wise filters for the rest.
    tag = step.nodetest
    predicates = step.predicates
    probe = _probe_spec(predicates[0]) if predicates else None
    rest = predicates[1:] if probe is not None else predicates
    if not all(_ebv_filter_safe(predicate) for predicate in rest):
        return generic
    filters = [_compile_ebv_filter(predicate, pl) for predicate in rest]
    if probe is not None:
        downpath, probe_expr = probe
        probe_fn = _compile(probe_expr, pl)

        def probe_step(rt: Runtime, items: Sequence) -> Sequence:
            documents = _documents_only(items)
            if documents is None:
                return generic(rt, items)
            matched = columns.probe(
                [columns.value_index(document, tag, downpath)
                 for document in documents],
                probe_keys(probe_fn(rt)))
            for filter_fn in filters:
                matched = filter_fn(rt, matched)
            return matched
        return probe_step

    def indexed_step(rt: Runtime, items: Sequence) -> Sequence:
        documents = _documents_only(items)
        if documents is None:
            return generic(rt, items)
        elements: Sequence = []
        for document in documents:
            elements.extend(document.elements_by_tag(tag))
        for filter_fn in filters:
            elements = filter_fn(rt, elements)
        return elements
    return indexed_step


def _documents_only(items: Sequence) -> "list[Document] | None":
    documents: list[Document] = []
    seen: set[int] = set()
    for item in items:
        if not isinstance(item, Document):
            return None
        if id(item) not in seen:
            seen.add(id(item))
            documents.append(item)
    return documents


def _compile_ebv_filter(
        predicate: Expression,
        pl: _Plan) -> Callable[[Runtime, Sequence], Sequence]:
    truth = _compile_truth(predicate, pl)

    def filter_fn(rt: Runtime, candidates: Sequence) -> Sequence:
        kept: Sequence = []
        saved = rt.item
        try:
            for candidate in candidates:
                rt.item = candidate
                if truth(rt):
                    kept.append(candidate)
        finally:
            rt.item = saved
        return kept
    return filter_fn


def _compile_generic_step(step: AxisStep, descendant: bool) -> StepClosure:
    """Any step, through the engine's axis and predicate helpers."""
    predicates = step.predicates

    def run(rt: Runtime, items: Sequence) -> Sequence:
        if descendant:
            items = engine._descendant_or_self(items)
        context = rt.context() if predicates else None
        result: Sequence = []
        seen: set[int] = set()
        for item in items:
            candidates = engine._axis_candidates(step, item)
            for predicate in predicates:
                candidates = engine._filter_predicate(
                    predicate, candidates, context)
            for candidate in candidates:
                if isinstance(candidate, (Node, Document)):
                    if id(candidate) not in seen:
                        seen.add(id(candidate))
                        result.append(candidate)
                else:
                    result.append(candidate)
        return result
    return run


# ---------------------------------------------------------------------------
# Compilation: quantifiers
# ---------------------------------------------------------------------------

def _note_backend(rt: Runtime, index: int, backend: str,
                  reason: str | None) -> None:
    """Record which backend evaluated a quantifier (explain runs)."""
    if rt.backends is not None:
        rt.backends.append((index, backend, reason))


def _compile_quantified_truth(quantified: Quantified,
                              pl: _Plan) -> TruthClosure:
    if quantified.kind == "some":
        return _compile_some(quantified, quantified, pl)
    # every $x in S satisfies C  ==  not(some $x in S satisfies not(C))
    counterexample = _compile_some(
        Quantified("some", quantified.bindings,
                   FunctionCall("not", (quantified.condition,))),
        quantified, pl)
    return lambda rt: not counterexample(rt)


def _compile_some(quantified: Quantified, shown: Quantified,
                  pl: _Plan) -> TruthClosure:
    """A ``some`` quantifier as a frontier plan (``shown`` is what
    explain prints: the quantifier as written)."""
    order = _choose_order(quantified, pl.stats)
    bindings = [quantified.bindings[index] for index in order]
    names = [name for name, _ in bindings]
    name_set = frozenset(names)
    info = _QuantifierInfo(len(pl.infos), shown.kind, shown)
    pl.infos.append(info)

    position = {name: index for index, name in enumerate(names)}
    pre_factors: list[Expression] = []
    slots: list[list[Expression]] = [[] for _ in bindings]
    factors = conjuncts(quantified.condition)
    for factor in factors:
        quantifier_vars = free_variables(factor) & name_set
        if not quantifier_vars:
            pre_factors.append(factor)
            continue
        slots[max(position[name] for name in quantifier_vars)].append(
            factor)
    pre_checks = [_compile_truth(factor, pl) for factor in pre_factors]

    # Per binding: the estimated source cardinality (explain's est~)
    # and the frontier rows estimated to reach it — the product of the
    # earlier bindings' costs, which the lowering's cost gate reads.
    anchors: dict[str, str] = {}
    estimates: list[tuple[float, float]] = []
    rows = 1.0
    for index, (name, source) in enumerate(bindings):
        estimate, cost, anchor = _binding_cost(
            name, source, set(names[:index]), name_set, factors, pl.stats,
            anchors)
        estimates.append((estimate, rows))
        rows *= cost
        if anchor is not None:
            anchors[name] = anchor
    vector_plan, reason = columnar.lower_some(
        [(name, source, slots[index], estimates[index])
         for index, (name, source) in enumerate(bindings)],
        name_set, info.index, pl)

    for index, (name, source) in enumerate(bindings):
        kind = "engine" if vector_plan is None \
            else vector_plan.levels[index].op.kind
        info.bindings.append(_BindingInfo(
            name, source, kind, estimates[index][0], order[index],
            (info.index, index)))

    quantifier_index = info.index
    in_engine = _fallback(quantified)

    def truth(rt: Runtime) -> bool:
        for check in pre_checks:
            if not check(rt):
                return False
        if vector_plan is None:
            _note_backend(rt, quantifier_index, "engine", reason)
            return effective_boolean_value(in_engine(rt))
        try:
            verdict = vector_plan.run(rt)
        except columnar.Bail as bail:
            _note_backend(rt, quantifier_index, "engine",
                          f"bailed: {bail}")
            return effective_boolean_value(in_engine(rt))
        _note_backend(rt, quantifier_index, "columnar", None)
        return verdict
    return truth


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

def plan(expression: Expression,
         documents: tuple[Document, ...]) -> TruthClosure:
    """Plan ``expression`` on the documents' current statistics and
    compile it.

    The closure holds no document (it reads them from the runtime of
    each :func:`run`), so a caller may keep it for as long as those
    statistics still describe its documents.
    """
    return _compile_truth(expression, _Plan(Statistics(documents)))


def run(truth_fn: TruthClosure, expression: Expression,
        documents: tuple[Document, ...],
        variables: dict[str, Sequence] | None = None,
        rt: "Runtime | None" = None) -> bool:
    """Evaluate a compiled plan of ``expression`` over ``documents``.

    ``rt`` is a runtime the caller prepared (explain's profiling run);
    when an evaluation error sends the run to the engine, the error's
    text is left in its ``fallback``.
    """
    if rt is None:
        rt = Runtime(documents, dict(variables) if variables else {})
    try:
        return truth_fn(rt)
    except XQueryEvaluationError as error:
        # Pre-factor hoisting and conjunct reordering can evaluate a
        # factor the engine's fixed nesting order never reaches (empty
        # source, earlier short-circuit).  If that factor raises —
        # division by zero, unknown function — the engine's evaluation
        # order decides whether the error is real, so defer to it.
        rt.fallback = str(error)
        return engine.query_truth(expression, list(documents), variables)


def query_truth_planned(
        query: "Expression | str",
        documents: "list[Document] | tuple[Document, ...] | Document",
        variables: dict[str, Sequence] | None = None) -> bool:
    """Planned, compiled, early-exit truth evaluation of a query.

    The planned counterpart of
    :func:`repro.xquery.engine.query_truth`; verdicts are identical by
    construction (and by the differential suite).  The query is
    planned afresh on every call.
    """
    if isinstance(query, str):
        from repro.xquery.parser import parse_query
        query = parse_query(query)
    if isinstance(documents, Document):
        documents = (documents,)
    else:
        documents = tuple(documents)
    return run(plan(query, documents), query, documents, variables)


# ---------------------------------------------------------------------------
# Explain
# ---------------------------------------------------------------------------

def explain_query(
        query: "Expression | str",
        documents: "list[Document] | Document",
        variables: dict[str, Sequence] | None = None) -> str:
    """Human-readable plan with estimated vs. actual cardinalities.

    Compiles the query fresh against current statistics, runs it once
    in profile mode, and renders each quantifier's chosen binding
    order.  "actual" counts reflect early-exit evaluation: a binding
    that never ran because an earlier one found no candidates (or a
    witness short-circuited the search) reports what it examined, not
    the full cardinality.
    """
    if isinstance(query, str):
        from repro.xquery.parser import parse_query
        query = parse_query(query)
    if isinstance(documents, Document):
        documents = [documents]
    docs = tuple(documents)
    pl = _Plan(Statistics(docs))
    truth_fn = _compile_truth(query, pl)
    rt = Runtime(docs, dict(variables) if variables else {})
    rt.profile = {}
    rt.backends = []
    verdict = run(truth_fn, query, docs, variables, rt)
    lines: list[str] = []
    for info in pl.infos:
        lines.append(f"{info.kind} quantifier "
                     f"#{info.index + 1}: {info.expression}")
        backend: tuple[str, str | None] | None = None
        for noted_index, noted_backend, noted_reason in rt.backends:
            if noted_index == info.index:
                backend = (noted_backend, noted_reason)
        if backend is None:
            lines.append("  backend: not evaluated")
        elif backend[1] is None:
            lines.append(f"  backend: {backend[0]}")
        else:
            lines.append(f"  backend: {backend[0]} ({backend[1]})")
        for rank, binding in enumerate(info.bindings, start=1):
            counters = rt.profile.get(binding.key, [0, 0])
            moved = "" if binding.original_index == rank - 1 \
                else f"  (was #{binding.original_index + 1})"
            lines.append(
                f"  {rank}. ${binding.name} in "
                f"{binding.source}  [{binding.kind}]"
                f"  est~{binding.estimate:g}"
                f"  examined={counters[0]}  passed={counters[1]}"
                f"{moved}")
    if rt.fallback is not None:
        lines.append(f"backend: unplanned fallback ({rt.fallback})")
    lines.append(f"verdict: {'true' if verdict else 'false'}")
    return "\n".join(lines)

