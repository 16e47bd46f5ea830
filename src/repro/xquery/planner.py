"""Cost-based check planner: the one place a check's joins are decided.

The translated integrity checks are existential conjunctive queries
(``some $v1 in s1, ... satisfies F1 and ... and Fk``).  Evaluated by
the book — the reference engine's nested loops in source order
(:mod:`repro.xquery.engine`) — they are quadratic or worse in the
document size; a real XQuery engine (eXist in the paper) answers such
joins from value indexes.  This module is that stand-in: it plans and
compiles each prepared check, and serves its equality joins from the
column stores' :class:`~repro.relational.columns.PathIndex`:

* **statistics** — per-document, per-tag cardinalities and
  distinct-value counts served by the incremental tag index
  (:meth:`repro.xtree.node.Document.tag_count` /
  :meth:`~repro.xtree.node.Document.tag_distinct_count`, maintained
  under the per-document lock) — exact counts of the state the plan
  is compiled on;
* **planning** — independent quantifier bindings are reordered
  greedily by estimated cardinality x selectivity (hash-joinable
  bindings are discounted by the key's distinct count), conjuncts are
  re-assigned to the earliest position of the chosen order,
  uncorrelated sources with an equality conjunct linking them to
  already-bound variables become hash joins, and equality predicates
  on ``//tag`` steps are turned into value-index probes;
* **compilation** — the plan is compiled to Python closures over a
  mutable variable environment and evaluated depth-first with early
  exit: ``some`` stops at the first witness, ``every`` at the first
  counterexample, and binding sources stream through generators
  instead of materializing node sequences.  Constructs outside the
  compiled fragment fall back to :func:`repro.xquery.engine._evaluate`
  through a bridging :class:`~repro.xquery.engine.QueryContext`, so
  planned evaluation is *total*: every query the engine accepts runs,
  with identical verdicts;
* **ownership** — this module keeps no plan.  A compiled plan holds
  no document, so the prepared check that asked for it keeps it
  (:meth:`repro.xquery.translate.TranslatedQuery.truth`, one plan per
  size class of its documents); ad-hoc queries are planned per call.

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
from typing import Callable, Iterator

from repro.errors import XQueryEvaluationError
from repro.testing.failpoints import FailPointError, fail
from repro.xquery import engine, functions
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
from repro.xquery.engine import QueryContext
from repro.xquery.optimizer import (
    conjuncts,
    focus_free,
    free_variables,
    hash_keys,
    probe_keys,
)
from repro.xquery.values import (
    Sequence,
    UntypedAtomic,
    atomize,
    effective_boolean_value,
    general_compare,
)
from repro.xtree.node import Document, Element, Node, Text

__all__ = [
    "Statistics",
    "columnar_enabled",
    "enabled",
    "explain_query",
    "plan",
    "query_truth_planned",
    "run",
    "unplanned",
    "without_columns",
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


def columnar_enabled() -> bool:
    """Whether ``some`` quantifiers may run as vectorized frontier
    plans (:class:`repro.xquery.columnar.VectorSome`) on this thread.

    Read by the frontier lowering only: probe steps and hash joins are
    served from the attached column stores' value indexes either way
    (:func:`_columnar_probe_map`)."""
    return getattr(_STATE, "columnar", True)


@contextmanager
def without_columns():
    """Temporarily ablate the vectorized frontier lowering.

    The second ablation switch: benchmarks compare frontier-at-a-time
    against tuple-at-a-time search with plans, value indexes and
    corpus held equal.
    """
    previous = columnar_enabled()
    _STATE.columnar = False
    try:
        yield
    finally:
        _STATE.columnar = previous


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

class Statistics:
    """Cardinality/selectivity estimates over a document collection.

    Reads go through the per-document lock-protected tag index, so a
    refresh taken while a writer thread is mid-update still observes
    internally consistent buckets.
    """

    __slots__ = ("documents",)

    def __init__(self, documents: tuple[Document, ...]) -> None:
        fail.point("planner.stats.refresh")
        self.documents = tuple(documents)

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


# ---------------------------------------------------------------------------
# Cardinality estimation
# ---------------------------------------------------------------------------

_SIMPLE_STEP_NODETESTS = ("*", "node()", "text()", "position()")


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


def _downpath_steps(
        expression: Expression) -> tuple[tuple[str, str], ...] | None:
    """A relative downward path as ((axis, nodetest), ...), or None.

    The shape a per-element key evaluator (:func:`_eval_downpath`)
    supports: child/attribute steps, named or ``text()``, no
    predicates, no descendant jumps.  These paths read only the
    element's own subtree, which is what lets a column store's
    :class:`~repro.relational.columns.PathIndex` maintain the derived
    keys from mutation deltas.
    """
    if not isinstance(expression, PathExpr) \
            or not isinstance(expression.start, ContextItem):
        return None
    if any(expression.descendant_flags):
        return None
    steps: list[tuple[str, str]] = []
    for step in expression.steps:
        if step.predicates:
            return None
        if step.axis == "child":
            if step.nodetest in ("*", "node()", "position()"):
                return None
        elif step.axis == "attribute":
            if step.nodetest == "*":
                return None
        else:
            return None
        steps.append((step.axis, step.nodetest))
    return tuple(steps)


def _eval_downpath(steps: tuple[tuple[str, str], ...],
                   element: Element) -> list:
    current: list = [element]
    for axis, nodetest in steps:
        gathered: list = []
        for item in current:
            if not isinstance(item, Element):
                continue
            if axis == "child":
                if nodetest == "text()":
                    gathered.extend(child for child in item.children
                                    if isinstance(child, Text))
                else:
                    gathered.extend(
                        child for child in item.children
                        if isinstance(child, Element)
                        and child.tag == nodetest)
            else:  # attribute
                value = item.attributes.get(nodetest)
                if value is not None:
                    gathered.append(UntypedAtomic(value))
        current = gathered
    return current


def _simple_descendant_tag(source: Expression) -> str | None:
    """The tag of a bare ``//tag`` source, else None."""
    if not isinstance(source, PathExpr) or source.start is not None:
        return None
    if len(source.steps) != 1 or source.descendant_flags != (True,):
        return None
    step = source.steps[0]
    if step.axis != "child" or step.predicates \
            or step.nodetest in _SIMPLE_STEP_NODETESTS:
        return None
    return step.nodetest


def _var_downpath(
        key_side: Expression,
        name: str) -> tuple[tuple[str, str], ...] | None:
    """``key_side`` as a downward path rooted at ``$name``, else None."""
    if not isinstance(key_side, PathExpr) \
            or not isinstance(key_side.start, VarRef) \
            or key_side.start.name != name:
        return None
    relative = PathExpr(ContextItem(), key_side.steps,
                        key_side.descendant_flags)
    return _downpath_steps(relative)


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
            downpath = _downpath_steps(key_side)
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
                    or step.nodetest in _SIMPLE_STEP_NODETESTS:
                return None
            outer.append(("child", step.nodetest))
        last = steps[-1]
        if last.axis != "child" or len(last.predicates) != 1 \
                or last.nodetest in _SIMPLE_STEP_NODETESTS:
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


# ---------------------------------------------------------------------------
# Runtime
# ---------------------------------------------------------------------------

_MISSING = object()


class _Runtime:
    """Mutable evaluation state threaded through compiled closures.

    Where the engine copies a frozen context per binding, compiled
    plans share one environment dict and set/restore keys around each
    loop level.  :meth:`context` bridges into the reference engine for
    constructs outside the compiled fragment — the engine's
    copy-on-write variable handling makes sharing the dict safe.
    """

    __slots__ = ("documents", "env", "item", "position", "size",
                 "profile", "cache", "backends", "fallback")

    def __init__(self, documents: tuple[Document, ...],
                 env: dict[str, Sequence]) -> None:
        self.documents = documents
        self.env = env
        self.item: object | None = None
        self.position = 1
        self.size = 1
        #: (quantifier, binding) key → [items examined, tuples passed];
        #: populated by :func:`explain_query` runs only
        self.profile: dict[tuple, list[int]] | None = None
        #: (quantifier index, backend, reason) records; populated when
        #: :func:`explain_query` sets it to a list
        self.backends: list[tuple[int, str, str | None]] | None = None
        #: the evaluation error that sent this run to the engine
        self.fallback: str | None = None
        #: per-evaluation memo (hash-join/probe indexes): documents
        #: cannot change mid-check, so one lookup per plan node is
        #: enough
        self.cache: dict = {}

    def context(self) -> QueryContext:
        return QueryContext(self.documents, self.env, self.item,
                            self.position, self.size)


Closure = Callable[[_Runtime], Sequence]
TruthClosure = Callable[[_Runtime], bool]


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
    """Compilation context: chosen orders, statistics, explain info."""

    __slots__ = ("orders", "stats", "infos")

    def __init__(self, stats: Statistics) -> None:
        #: quantifier → chosen binding order, filled as compiled
        self.orders: dict[Quantified, tuple[int, ...]] = {}
        self.stats = stats
        self.infos: list[_QuantifierInfo] = []


# ---------------------------------------------------------------------------
# Binding order selection
# ---------------------------------------------------------------------------

def _choose_order(quantified: Quantified,
                  stats: Statistics) -> tuple[int, ...]:
    """Greedy selectivity order for a quantifier's bindings.

    Repeatedly picks, among the bindings whose dependencies are
    satisfied, the one with the smallest effective cost: the estimated
    source cardinality, discounted by the key's distinct count when an
    equality conjunct makes the binding hash-joinable against already
    chosen (or outer) variables.  Reordering is sound because the
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
            card, anchor = _estimate_any(source, stats, anchors)
            cost = card
            if not source_deps[index] and _join_equality(
                    name, chosen_names, name_set, factors) is not None:
                denominator = stats.distinct(anchor) if anchor else 2.0
                cost = max(card / max(denominator, 1.0), 0.5)
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


def _join_equality(name: str, bound: set[str], name_set: frozenset[str],
                   factors: list[Expression]) -> tuple | None:
    """The ``=`` conjunct that makes ``$name`` hash-joinable, if any.

    ``(factor, key side, probe side)``: one side mentions ``$name``
    alone among the quantifier's variables, the other only variables
    already ``bound`` (outer variables are always bound).
    """
    for factor in factors:
        if not (isinstance(factor, BinaryOp) and factor.op == "="):
            continue
        left = free_variables(factor.left) & name_set
        right = free_variables(factor.right) & name_set
        if left == {name} and right <= bound:
            return factor, factor.left, factor.right
        if right == {name} and left <= bound:
            return factor, factor.right, factor.left
    return None


# ---------------------------------------------------------------------------
# Compilation: general expressions
# ---------------------------------------------------------------------------

def _fallback(expression: Expression) -> Closure:
    def run(rt: _Runtime) -> Sequence:
        return engine._evaluate(expression, rt.context())
    return run


def _compile(expression: Expression, pl: _Plan) -> Closure:
    if isinstance(expression, (Literal, TextLiteral)):
        value = expression.value

        def literal(rt: _Runtime) -> Sequence:
            return [value]
        return literal
    if isinstance(expression, VarRef):
        name = expression.name

        def var(rt: _Runtime) -> Sequence:
            try:
                return rt.env[name]
            except KeyError:
                raise XQueryEvaluationError(
                    f"unbound variable ${name}") from None
        return var
    if isinstance(expression, ContextItem):
        def item_fn(rt: _Runtime) -> Sequence:
            if rt.item is None:
                raise XQueryEvaluationError("no context item")
            return [rt.item]
        return item_fn
    if isinstance(expression, SequenceExpr):
        parts = [_compile(item, pl) for item in expression.items]

        def sequence(rt: _Runtime) -> Sequence:
            result: Sequence = []
            for part in parts:
                result.extend(part(rt))
            return result
        return sequence
    if isinstance(expression, PathExpr):
        return _compile_path(expression, pl)
    if isinstance(expression, BinaryOp):
        return _compile_binary(expression, pl)
    if isinstance(expression, UnaryOp):
        operand = _compile(expression.operand, pl)
        negate = expression.op == "-"

        def unary(rt: _Runtime) -> Sequence:
            atoms = atomize(operand(rt))
            if not atoms:
                return []
            value = engine.to_number(atoms[0])
            result = -value if negate else value
            return [int(result)] if float(result).is_integer() \
                else [result]
        return unary
    if isinstance(expression, FunctionCall):
        return _compile_call(expression, pl)
    if isinstance(expression, Quantified):
        truth = _compile_quantified_truth(expression, pl)

        def quantified(rt: _Runtime) -> Sequence:
            return [truth(rt)]
        return quantified
    if isinstance(expression, IfExpr):
        condition = _compile_truth(expression.condition, pl)
        then_branch = _compile(expression.then_branch, pl)
        else_branch = _compile(expression.else_branch, pl)

        def conditional(rt: _Runtime) -> Sequence:
            return then_branch(rt) if condition(rt) else else_branch(rt)
        return conditional
    # FLWOR, element constructors: bridge into the engine
    return _fallback(expression)


def _compile_binary(expression: BinaryOp, pl: _Plan) -> Closure:
    op = expression.op
    if op in ("and", "or"):
        truth = _compile_truth(expression, pl)

        def boolean(rt: _Runtime) -> Sequence:
            return [truth(rt)]
        return boolean
    left = _compile(expression.left, pl)
    right = _compile(expression.right, pl)
    if op in engine._GENERAL_OPS:
        def compare(rt: _Runtime) -> Sequence:
            return [general_compare(op, left(rt), right(rt))]
        return compare
    if op in engine._ARITHMETIC_OPS:
        def arithmetic(rt: _Runtime) -> Sequence:
            return engine._arithmetic(op, left(rt), right(rt))
        return arithmetic
    return _fallback(expression)


def _compile_call(expression: FunctionCall, pl: _Plan) -> Closure:
    name = expression.name
    if name == "position":
        return lambda rt: [rt.position]
    if name == "last":
        return lambda rt: [rt.size]
    args = [_compile(argument, pl) for argument in expression.args]
    if name == "count" and len(args) == 1:
        argument = args[0]
        return lambda rt: [len(argument(rt))]
    if name == "exists" and len(args) == 1:
        argument = args[0]
        return lambda rt: [bool(argument(rt))]
    if name == "empty" and len(args) == 1:
        argument = args[0]
        return lambda rt: [not argument(rt)]
    if name == "not" and len(args) == 1:
        inner = _compile_truth(expression.args[0], pl)
        return lambda rt: [not inner(rt)]
    entry = functions.REGISTRY.get(name)
    if entry is None:
        def unknown(rt: _Runtime) -> Sequence:
            raise XQueryEvaluationError(f"unknown function {name}()")
        return unknown
    implementation, min_arity, max_arity = entry
    if not min_arity <= len(args) <= max_arity:
        count = len(args)

        def bad_arity(rt: _Runtime) -> Sequence:
            raise XQueryEvaluationError(
                f"{name}() expects between {min_arity} and {max_arity} "
                f"arguments, got {count}")
        return bad_arity

    def call(rt: _Runtime) -> Sequence:
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
        if op == "or":
            left = _compile_truth(expression.left, pl)
            right = _compile_truth(expression.right, pl)
            return lambda rt: left(rt) or right(rt)
        if op in engine._GENERAL_OPS:
            left_fn = _compile(expression.left, pl)
            right_fn = _compile(expression.right, pl)
            return lambda rt: general_compare(op, left_fn(rt),
                                              right_fn(rt))
    if isinstance(expression, FunctionCall) and len(expression.args) == 1:
        if expression.name == "not":
            inner = _compile_truth(expression.args[0], pl)
            return lambda rt: not inner(rt)
        if expression.name == "exists":
            inner_fn = _compile(expression.args[0], pl)
            return lambda rt: bool(inner_fn(rt))
        if expression.name == "empty":
            inner_fn = _compile(expression.args[0], pl)
            return lambda rt: not inner_fn(rt)
    if isinstance(expression, Quantified):
        return _compile_quantified_truth(expression, pl)
    if isinstance(expression, IfExpr):
        condition = _compile_truth(expression.condition, pl)
        then_branch = _compile_truth(expression.then_branch, pl)
        else_branch = _compile_truth(expression.else_branch, pl)
        return lambda rt: then_branch(rt) if condition(rt) \
            else else_branch(rt)
    if isinstance(expression, Literal) \
            and isinstance(expression.value, bool):
        value = expression.value
        return lambda rt: value
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

    def run(rt: _Runtime) -> Sequence:
        items = start_fn(rt)
        for step_fn in step_fns:
            if not items:
                return items
            items = step_fn(rt, items)
        return items
    return run


def _compile_path_iter(
        path: PathExpr,
        pl: _Plan) -> Callable[[_Runtime], Iterator]:
    """Streaming path evaluation: one item at a time through the steps.

    Used for quantifier binding sources, where an early exit at the
    first witness makes materializing the full node sequence wasted
    work.  Cross-parent deduplication is skipped — duplicates cannot
    change an existential verdict, and downward paths (the translated
    checks' shape) never produce any.
    """
    start_fn = _compile_start(path, pl)
    step_fns = [
        _compile_step(step, descendant, pl)
        for step, descendant in zip(path.steps, path.descendant_flags)]
    depth = len(step_fns)

    def run(rt: _Runtime) -> Iterator:
        def advance(level: int, items: Sequence) -> Iterator:
            if level == depth:
                yield from items
                return
            step_fn = step_fns[level]
            for item in items:
                yield from advance(level + 1, step_fn(rt, [item]))
        yield from advance(0, start_fn(rt))
    return run


def _compile_iter(source: Expression,
                  pl: _Plan) -> Callable[[_Runtime], Iterator]:
    if isinstance(source, PathExpr) and source.start is None \
            and len(source.steps) > 1:
        # absolute multi-step paths can expand large intermediate
        # frontiers — stream them so an early exit stops the walk
        return _compile_path_iter(source, pl)
    # correlated and single-step sources are small (or served whole
    # from the tag index): a materialized list iterates faster than a
    # recursive generator
    fn = _compile(source, pl)
    return lambda rt: iter(fn(rt))


StepClosure = Callable[[_Runtime, Sequence], Sequence]


def _compile_step(step: AxisStep, descendant: bool,
                  pl: _Plan) -> StepClosure:
    generic = _compile_generic_step(step, descendant, pl)
    if not descendant or step.axis != "child" \
            or step.nodetest in _SIMPLE_STEP_NODETESTS:
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
        memo_token = object()

        def probe_step(rt: _Runtime, items: Sequence) -> Sequence:
            documents = _documents_only(items)
            if documents is None:
                return generic(rt, items)
            index_map = rt.cache.get(memo_token)
            if index_map is None:
                index_map = _value_index(tag, downpath, documents)
                rt.cache[memo_token] = index_map
            matched: Sequence = []
            seen: set[int] = set()
            for key in probe_keys(probe_fn(rt)):
                for element in index_map.get(key, ()):
                    if id(element) not in seen:
                        seen.add(id(element))
                        matched.append(element)
            for filter_fn in filters:
                matched = filter_fn(rt, matched)
            return matched
        return probe_step

    def indexed_step(rt: _Runtime, items: Sequence) -> Sequence:
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
        pl: _Plan) -> Callable[[_Runtime, Sequence], Sequence]:
    truth = _compile_truth(predicate, pl)

    def filter_fn(rt: _Runtime, candidates: Sequence) -> Sequence:
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


def _compile_generic_step(step: AxisStep, descendant: bool,
                          pl: _Plan) -> StepClosure:
    axis, nodetest, predicates = step.axis, step.nodetest, step.predicates
    if not predicates and not descendant:
        if axis == "child" and nodetest not in _SIMPLE_STEP_NODETESTS:
            return _named_child_step(nodetest)
        if axis == "child" and nodetest == "text()":
            return _text_step
        if axis == "child" and nodetest == "position()":
            return _position_step
        if axis == "attribute" and nodetest != "*":
            return _attribute_step(nodetest)
        if axis == "parent":
            return _parent_step

    def run(rt: _Runtime, items: Sequence) -> Sequence:
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


def _named_child_step(tag: str) -> StepClosure:
    def run(rt: _Runtime, items: Sequence) -> Sequence:
        if len(items) == 1:
            item = items[0]
            if isinstance(item, Element):
                return [child for child in item.children
                        if isinstance(child, Element) and child.tag == tag]
            if isinstance(item, Document):
                return [item.root] if item.root.tag == tag else []
            return []
        result: Sequence = []
        seen: set[int] = set()
        for item in items:
            if id(item) in seen:
                continue
            seen.add(id(item))
            if isinstance(item, Element):
                result.extend(child for child in item.children
                              if isinstance(child, Element)
                              and child.tag == tag)
            elif isinstance(item, Document) and item.root.tag == tag:
                result.append(item.root)
        return result
    return run


def _text_step(rt: _Runtime, items: Sequence) -> Sequence:
    if len(items) == 1:
        item = items[0]
        if isinstance(item, Element):
            return [child for child in item.children
                    if isinstance(child, Text)]
        return []
    result: Sequence = []
    seen: set[int] = set()
    for item in items:
        if id(item) in seen:
            continue
        seen.add(id(item))
        if isinstance(item, Element):
            result.extend(child for child in item.children
                          if isinstance(child, Text))
    return result


def _position_step(rt: _Runtime, items: Sequence) -> Sequence:
    result: Sequence = []
    for item in items:
        if not isinstance(item, Element):
            raise XQueryEvaluationError(
                "position() step requires an element context")
        result.append(item.child_position)
    return result


def _attribute_step(name: str) -> StepClosure:
    def run(rt: _Runtime, items: Sequence) -> Sequence:
        result: Sequence = []
        for item in items:
            if isinstance(item, Element):
                value = item.attributes.get(name)
                if value is not None:
                    result.append(UntypedAtomic(value))
        return result
    return run


def _parent_step(rt: _Runtime, items: Sequence) -> Sequence:
    result: Sequence = []
    seen: set[int] = set()
    for item in items:
        if isinstance(item, (Element, Text)) and item.parent is not None \
                and id(item.parent) not in seen:
            seen.add(id(item.parent))
            result.append(item.parent)
    return result


# ---------------------------------------------------------------------------
# Value indexes
# ---------------------------------------------------------------------------

class _MergedIndex:
    """Dict-shaped facade over per-document column-store value indexes.

    Serves the planner's probe steps and hash joins with the
    ``.get(key) → elements`` contract of a built index map, backed by
    the stores' delta-maintained
    :class:`~repro.relational.columns.PathIndex` buckets — always
    current, never rebuilt per check.
    """

    __slots__ = ("indexes",)

    def __init__(self, indexes: list) -> None:
        self.indexes = indexes

    def get(self, key: tuple, default: Sequence = ()) -> Sequence:
        found: list | None = None
        for index in self.indexes:
            bucket = index.buckets.get(key)
            if bucket:
                if found is None:
                    found = list(bucket.values())
                else:
                    found.extend(bucket.values())
        return default if found is None else found


def _columnar_probe_map(
        tag: str, downpath: tuple[tuple[str, str], ...],
        documents: "list[Document] | tuple[Document, ...]"
) -> "_MergedIndex | None":
    """The store-served index for ``//tag`` keyed by ``downpath``.

    ``None`` when a document has no store attached (reads never attach
    one) or an injected ``columns.*`` fault kills a dirty store's
    rebuild; the store stays dirty and heals on a later read.
    """
    indexes = []
    for document in documents:
        store = document.column_store
        if store is None:
            return None
        try:
            indexes.append(store.value_index(tag, downpath))
        except FailPointError:
            return None
    return _MergedIndex(indexes)


def _value_index(tag: str, downpath: tuple[tuple[str, str], ...],
                 documents: "list[Document] | tuple[Document, ...]"):
    """``key → //tag elements`` for one evaluation's probes.

    The stores' index when every document has one; otherwise a
    throw-away map the caller memoises in :attr:`_Runtime.cache` — it
    is never kept past the evaluation, so nothing has to invalidate it.
    """
    served = _columnar_probe_map(tag, downpath, documents)
    if served is not None:
        return served
    index_map: dict[tuple, list] = {}
    for document in documents:
        for element in document.elements_by_tag(tag):
            for value in atomize(_eval_downpath(downpath, element)):
                for key in hash_keys(value):
                    index_map.setdefault(key, []).append(element)
    return index_map


# ---------------------------------------------------------------------------
# Compilation: quantifiers
# ---------------------------------------------------------------------------

class _ScanStep:
    __slots__ = ("name", "iterate", "checks", "key")

    def __init__(self, name: str,
                 iterate: Callable[[_Runtime], Iterator],
                 checks: list[TruthClosure], key: tuple) -> None:
        self.name = name
        self.iterate = iterate
        self.checks = checks
        self.key = key

    def items(self, rt: _Runtime) -> Iterator:
        return self.iterate(rt)


class _HashJoinStep:
    __slots__ = ("name", "bound_fn", "checks", "key", "columnar_spec",
                 "source_fn", "key_fn", "documents_only")

    def __init__(self, name: str, source: Expression,
                 new_side: Expression, bound_fn: Closure,
                 checks: list[TruthClosure], key: tuple,
                 pl: _Plan) -> None:
        self.name = name
        self.bound_fn = bound_fn
        self.checks = checks
        self.key = key
        # ``//tag`` source keyed by a downpath of the bound variable:
        # the shape a column-store value index can serve directly
        tag = _simple_descendant_tag(source)
        steps = _var_downpath(new_side, name) if tag is not None \
            else None
        self.columnar_spec = (tag, steps) \
            if tag is not None and steps is not None else None
        #: the map depends on the documents alone (no outer variable,
        #: no focus), so one lookup or build serves the whole
        #: evaluation; otherwise it is rebuilt per run of the step
        self.documents_only = True
        if self.columnar_spec is not None:
            return
        # any other shape: a throw-away map of the source's items by
        # their ``new_side`` values, built when the step runs
        self.source_fn = _compile(source, pl)
        self.key_fn = _compile(new_side, pl)
        self.documents_only = not free_variables(source) \
            and free_variables(new_side) <= {name} \
            and focus_free(source) and focus_free(new_side)

    def _build(self, rt: _Runtime) -> dict[tuple, list]:
        env, name = rt.env, self.name
        saved = env.get(name, _MISSING)
        index_map: dict[tuple, list] = {}
        try:
            for item in self.source_fn(rt):
                env[name] = [item]
                for value in atomize(self.key_fn(rt)):
                    for key in hash_keys(value):
                        index_map.setdefault(key, []).append(item)
        finally:
            if saved is _MISSING:
                env.pop(name, None)
            else:
                env[name] = saved
        return index_map

    def items(self, rt: _Runtime) -> Iterator:
        index_map = rt.cache.get(id(self))
        if index_map is None:
            spec = self.columnar_spec
            if spec is not None:
                index_map = _value_index(spec[0], spec[1], rt.documents)
            else:
                index_map = self._build(rt)
            if self.documents_only:
                rt.cache[id(self)] = index_map
        seen: set[int] = set()
        for key in probe_keys(self.bound_fn(rt)):
            for item in index_map.get(key, ()):
                if id(item) not in seen:
                    seen.add(id(item))
                    yield item


def _note_backend(rt: _Runtime, index: int, backend: str,
                  reason: str | None) -> None:
    """Record which backend evaluated a quantifier (explain runs)."""
    if rt.backends is not None:
        rt.backends.append((index, backend, reason))


def _compile_quantified_truth(quantified: Quantified,
                              pl: _Plan) -> TruthClosure:
    if quantified.kind == "some":
        return _compile_some(quantified, pl)
    return _compile_every(quantified, pl)


def _compile_some(quantified: Quantified, pl: _Plan) -> TruthClosure:
    order = pl.orders.get(quantified)
    if order is None:
        order = _choose_order(quantified, pl.stats)
        pl.orders[quantified] = order
    bindings = [quantified.bindings[index] for index in order]
    names = [name for name, _ in bindings]
    name_set = frozenset(name for name, _ in quantified.bindings)
    info = _QuantifierInfo(len(pl.infos), "some", quantified)
    pl.infos.append(info)

    factors = conjuncts(quantified.condition)
    position = {name: index for index, name in enumerate(names)}
    pre_factors: list[Expression] = []
    slots: list[list[Expression]] = [[] for _ in bindings]
    for factor in factors:
        quantifier_vars = free_variables(factor) & name_set
        if not quantifier_vars:
            pre_factors.append(factor)
            continue
        slots[max(position[name] for name in quantifier_vars)].append(
            factor)

    anchors: dict[str, str] = {}
    steps: list = []
    lowspec: list[tuple] = []
    for index, (name, source) in enumerate(bindings):
        estimate, anchor = _estimate_any(source, pl.stats, anchors)
        if anchor is not None:
            anchors[name] = anchor
        correlated = bool(free_variables(source) & name_set)
        equality = None if correlated else _join_equality(
            name, set(names[:index]), name_set, slots[index])
        checks = [
            _compile_truth(factor, pl) for factor in slots[index]
            if equality is None or factor is not equality[0]]
        key = (info.index, index)
        if equality is not None:
            step: object = _HashJoinStep(
                name, source, equality[1],
                _compile(equality[2], pl), checks, key, pl)
            kind = "hash join"
        else:
            step = _ScanStep(name, _compile_iter(source, pl), checks,
                             key)
            kind = "correlated scan" if correlated else "scan"
        steps.append(step)
        lowspec.append((name, source, slots[index], equality,
                        correlated))
        info.bindings.append(_BindingInfo(
            name, source, kind, estimate, order[index], key))
    pre_checks = [_compile_truth(factor, pl) for factor in pre_factors]
    depth = len(steps)

    # Lower the same binding order to a vectorized frontier plan; any
    # construct outside the columnar fragment refuses the whole
    # quantifier — ``lower_some`` reports that as ``(None, reason)`` —
    # and the tuple-at-a-time search below stays in charge.  An
    # exception here is a lowering bug and propagates.
    from repro.xquery import columnar as _columnar_module
    vector_plan, vector_reason = _columnar_module.lower_some(
        lowspec, name_set, info.index, pl)
    quantifier_index = info.index

    def truth(rt: _Runtime) -> bool:
        for check in pre_checks:
            if not check(rt):
                return False
        if vector_plan is not None:
            not_ready = vector_plan.ready(rt)
            if not_ready is None:
                try:
                    verdict = vector_plan.run(rt)
                except _columnar_module.Bail as bail:
                    _note_backend(rt, quantifier_index, "planned-DOM",
                                  f"bailed: {bail}")
                else:
                    _note_backend(rt, quantifier_index, "columnar",
                                  None)
                    return verdict
            else:
                _note_backend(rt, quantifier_index, "planned-DOM",
                              not_ready)
        else:
            _note_backend(rt, quantifier_index, "planned-DOM",
                          vector_reason or "not lowered")
        env = rt.env
        profile = rt.profile

        def search(level: int) -> bool:
            if level == depth:
                return True
            step = steps[level]
            name = step.name
            saved = env.get(name, _MISSING)
            counters = None if profile is None \
                else profile.setdefault(step.key, [0, 0])
            try:
                for item in step.items(rt):
                    if counters is not None:
                        counters[0] += 1
                    env[name] = [item]
                    passed = True
                    for check in step.checks:
                        if not check(rt):
                            passed = False
                            break
                    if passed:
                        if counters is not None:
                            counters[1] += 1
                        if search(level + 1):
                            return True
                return False
            finally:
                if saved is _MISSING:
                    env.pop(name, None)
                else:
                    env[name] = saved
        return search(0)
    return truth


def _compile_every(quantified: Quantified, pl: _Plan) -> TruthClosure:
    sources = [(name, _compile_iter(source, pl))
               for name, source in quantified.bindings]
    condition = _compile_truth(quantified.condition, pl)
    depth = len(sources)

    def truth(rt: _Runtime) -> bool:
        env = rt.env

        def check(level: int) -> bool:
            if level == depth:
                return condition(rt)
            name, iterate = sources[level]
            saved = env.get(name, _MISSING)
            try:
                for item in iterate(rt):
                    env[name] = [item]
                    if not check(level + 1):
                        return False
                return True
            finally:
                if saved is _MISSING:
                    env.pop(name, None)
                else:
                    env[name] = saved
        return check(0)
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
        rt: "_Runtime | None" = None) -> bool:
    """Evaluate a compiled plan of ``expression`` over ``documents``.

    ``rt`` is a runtime the caller prepared (explain's profiling run);
    when an evaluation error sends the run to the engine, the error's
    text is left in its ``fallback``.
    """
    if rt is None:
        rt = _Runtime(documents, dict(variables) if variables else {})
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
    rt = _Runtime(docs, dict(variables) if variables else {})
    rt.profile = {}
    rt.backends = []
    verdict = run(truth_fn, query, docs, variables, rt)
    lines: list[str] = []
    for info in pl.infos:
        lines.append(f"{info.kind} quantifier "
                     f"#{info.index + 1}: {render(info.expression)}")
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
                f"{render(binding.source)}  [{binding.kind}]"
                f"  est~{binding.estimate:g}"
                f"  examined={counters[0]}  passed={counters[1]}"
                f"{moved}")
    if rt.fallback is not None:
        lines.append(f"backend: unplanned fallback ({rt.fallback})")
    lines.append(f"verdict: {'true' if verdict else 'false'}")
    return "\n".join(lines)


def render(expression: Expression) -> str:
    """Compact, best-effort text rendering of an AST (for explain)."""
    if isinstance(expression, Literal):
        value = expression.value
        if isinstance(value, bool):
            return "true()" if value else "false()"
        if isinstance(value, str):
            return f'"{value}"'
        return str(value)
    if isinstance(expression, TextLiteral):
        return f'"{expression.value}"'
    if isinstance(expression, VarRef):
        return f"${expression.name}"
    if isinstance(expression, ContextItem):
        return "."
    if isinstance(expression, SequenceExpr):
        return "(" + ", ".join(render(i) for i in expression.items) + ")"
    if isinstance(expression, PathExpr):
        parts: list[str] = []
        if expression.start is None:
            prefix = ""
        elif isinstance(expression.start, ContextItem):
            prefix = "."
        else:
            prefix = render(expression.start)
        for step, descendant in zip(expression.steps,
                                    expression.descendant_flags):
            sep = "//" if descendant else "/"
            if step.axis == "attribute":
                text = "@" + step.nodetest
            elif step.axis == "parent":
                text = ".."
            elif step.axis == "self":
                text = "."
            else:
                text = step.nodetest
            preds = "".join(f"[{render(p)}]" for p in step.predicates)
            parts.append(sep + text + preds)
        rendered = prefix + "".join(parts)
        return rendered[2:] if rendered.startswith("./") else rendered
    if isinstance(expression, BinaryOp):
        return (f"{render(expression.left)} {expression.op} "
                f"{render(expression.right)}")
    if isinstance(expression, UnaryOp):
        return f"{expression.op}{render(expression.operand)}"
    if isinstance(expression, FunctionCall):
        return (expression.name + "("
                + ", ".join(render(a) for a in expression.args) + ")")
    if isinstance(expression, Quantified):
        bindings = ", ".join(
            f"${name} in {render(source)}"
            for name, source in expression.bindings)
        return (f"{expression.kind} {bindings} satisfies "
                f"{render(expression.condition)}")
    if isinstance(expression, IfExpr):
        return (f"if ({render(expression.condition)}) then "
                f"{render(expression.then_branch)} else "
                f"{render(expression.else_branch)}")
    return repr(expression)
