"""Join-aware evaluation of quantified expressions.

The translated integrity checks are conjunctive joins written as
``some $v1 in src1, ..., $vn in srcn satisfies F1 and ... and Fk``.
Evaluating them by naive nested iteration is quadratic or worse in the
document size; a real XQuery engine (eXist in the paper) evaluates such
joins with value indexes.  This module provides the equivalent:

* **frontier evaluation** — bindings are processed breadth-first over a
  list of candidate environments;
* **condition pushdown** — every conjunct of the ``satisfies`` clause
  is applied as soon as the variables it mentions are bound, pruning
  the frontier early;
* **hash joins** — when a binding's source is uncorrelated (it does not
  reference variables of this quantifier) and some pushed-down conjunct
  is an equality linking the new variable to already-bound ones, the
  source is evaluated once, indexed by the equality's key expression,
  and probed per environment instead of iterated.

Hash keys are canonicalized to mirror the general-comparison coercion
rules (untyped atomics match both their string and numeric readings).
"""

from __future__ import annotations

from typing import Callable

from repro.analysis.concurrency import make_lock

from repro.xquery.ast import (
    AxisStep,
    BinaryOp,
    ContextItem,
    ElementConstructor,
    Expression,
    FLWOR,
    ForClause,
    FunctionCall,
    IfExpr,
    LetClause,
    Literal,
    PathExpr,
    Quantified,
    SequenceExpr,
    TextLiteral,
    UnaryOp,
    VarRef,
    WhereClause,
)
from repro.xquery.values import Sequence, UntypedAtomic, atomize

Evaluator = Callable[..., Sequence]


def conjuncts(expression: Expression) -> list[Expression]:
    """Flatten an ``and`` tree into its conjuncts."""
    if isinstance(expression, BinaryOp) and expression.op == "and":
        return conjuncts(expression.left) + conjuncts(expression.right)
    return [expression]


def free_variables(expression: Expression) -> frozenset[str]:
    """Names of the variables an expression references."""
    names: set[str] = set()
    _collect_variables(expression, names)
    return frozenset(names)


def _collect_variables(expression: Expression, names: set[str]) -> None:
    if isinstance(expression, VarRef):
        names.add(expression.name)
    elif isinstance(expression, (Literal, TextLiteral, ContextItem)):
        pass
    elif isinstance(expression, SequenceExpr):
        for item in expression.items:
            _collect_variables(item, names)
    elif isinstance(expression, PathExpr):
        if expression.start is not None:
            _collect_variables(expression.start, names)
        for step in expression.steps:
            for predicate in step.predicates:
                _collect_variables(predicate, names)
    elif isinstance(expression, AxisStep):  # pragma: no cover - not reached
        for predicate in expression.predicates:
            _collect_variables(predicate, names)
    elif isinstance(expression, BinaryOp):
        _collect_variables(expression.left, names)
        _collect_variables(expression.right, names)
    elif isinstance(expression, UnaryOp):
        _collect_variables(expression.operand, names)
    elif isinstance(expression, FunctionCall):
        for argument in expression.args:
            _collect_variables(argument, names)
    elif isinstance(expression, FLWOR):
        bound: set[str] = set()
        for clause in expression.clauses:
            if isinstance(clause, (ForClause, LetClause)):
                _collect_shadowed(clause.source, names, bound)
                bound.add(clause.variable)
            else:
                assert isinstance(clause, WhereClause)
                _collect_shadowed(clause.condition, names, bound)
        _collect_shadowed(expression.result, names, bound)
    elif isinstance(expression, Quantified):
        bound = set()
        for name, source in expression.bindings:
            _collect_shadowed(source, names, bound)
            bound.add(name)
        _collect_shadowed(expression.condition, names, bound)
    elif isinstance(expression, IfExpr):
        _collect_variables(expression.condition, names)
        _collect_variables(expression.then_branch, names)
        _collect_variables(expression.else_branch, names)
    elif isinstance(expression, ElementConstructor):
        for _, value in expression.attributes:
            _collect_variables(value, names)
        for child in expression.children:
            _collect_variables(child, names)


def _collect_shadowed(expression: Expression, names: set[str],
                      shadowed: set[str]) -> None:
    inner: set[str] = set()
    _collect_variables(expression, inner)
    names.update(inner - shadowed)


#: functions whose value depends on the dynamic focus position
_FOCUS_FUNCTIONS = {"position", "last"}
#: functions/operators whose result is statically a singleton boolean
_BOOLEAN_FUNCTIONS = {"not", "exists", "empty", "boolean", "true", "false",
                      "contains", "starts-with", "ends-with"}
_BOOLEAN_OPS = {"and", "or", "=", "!=", "<", "<=", ">", ">="}


def boolean_filter_safe(predicate: Expression) -> bool:
    """Whether a step predicate filters purely by effective boolean value.

    The generic path applies predicates per parent item, so positions
    run over each parent's candidate list.  A predicate whose result is
    statically a singleton boolean can never trigger the numeric
    positional rule, and if it also never reads ``position()``/
    ``last()`` at its own focus level it is insensitive to how the
    candidate list is partitioned — it may be applied element-wise
    over a whole-document tag-index fetch without changing semantics.
    Nested step predicates establish their own focus and do not count.
    """
    return _statically_boolean(predicate) \
        and not _reads_own_focus_position(predicate)


def _statically_boolean(expression: Expression) -> bool:
    if isinstance(expression, BinaryOp):
        return expression.op in _BOOLEAN_OPS
    if isinstance(expression, FunctionCall):
        return expression.name in _BOOLEAN_FUNCTIONS
    if isinstance(expression, Quantified):
        return True
    if isinstance(expression, Literal):
        return isinstance(expression.value, bool)
    if isinstance(expression, IfExpr):
        return _statically_boolean(expression.then_branch) \
            and _statically_boolean(expression.else_branch)
    return False


def _reads_own_focus_position(expression: Expression) -> bool:
    """``position()``/``last()`` used at the expression's own focus level.

    Descends into every sub-expression *except* step predicates, which
    evaluate under a focus of their own.
    """
    if isinstance(expression, FunctionCall):
        if expression.name in _FOCUS_FUNCTIONS:
            return True
        return any(_reads_own_focus_position(a) for a in expression.args)
    if isinstance(expression, PathExpr):
        return expression.start is not None \
            and _reads_own_focus_position(expression.start)
    if isinstance(expression, BinaryOp):
        return _reads_own_focus_position(expression.left) \
            or _reads_own_focus_position(expression.right)
    if isinstance(expression, UnaryOp):
        return _reads_own_focus_position(expression.operand)
    if isinstance(expression, SequenceExpr):
        return any(_reads_own_focus_position(i) for i in expression.items)
    if isinstance(expression, IfExpr):
        return _reads_own_focus_position(expression.condition) \
            or _reads_own_focus_position(expression.then_branch) \
            or _reads_own_focus_position(expression.else_branch)
    if isinstance(expression, Quantified):
        return any(_reads_own_focus_position(source)
                   for _, source in expression.bindings) \
            or _reads_own_focus_position(expression.condition)
    if isinstance(expression, FLWOR):
        for clause in expression.clauses:
            if isinstance(clause, (ForClause, LetClause)):
                if _reads_own_focus_position(clause.source):
                    return True
            else:
                assert isinstance(clause, WhereClause)
                if _reads_own_focus_position(clause.condition):
                    return True
        return _reads_own_focus_position(expression.result)
    if isinstance(expression, ElementConstructor):
        return any(_reads_own_focus_position(v)
                   for _, v in expression.attributes) \
            or any(_reads_own_focus_position(c)
                   for c in expression.children)
    return False


def focus_free(expression: Expression) -> bool:
    """No context item, ``position()`` or ``last()`` at the own focus level.

    A focus-free expression evaluates to the same value for every
    candidate of a predicate, so it can serve as the probe side of a
    value-index lookup.  (Variable references are fine — they are bound
    outside the predicate.)
    """
    if isinstance(expression, ContextItem):
        return False
    if isinstance(expression, PathExpr):
        if expression.start is None:
            return True
        return focus_free(expression.start)
    if isinstance(expression, FunctionCall):
        if expression.name in _FOCUS_FUNCTIONS:
            return False
        return all(focus_free(a) for a in expression.args)
    if isinstance(expression, BinaryOp):
        return focus_free(expression.left) and focus_free(expression.right)
    if isinstance(expression, UnaryOp):
        return focus_free(expression.operand)
    if isinstance(expression, SequenceExpr):
        return all(focus_free(i) for i in expression.items)
    if isinstance(expression, IfExpr):
        return focus_free(expression.condition) \
            and focus_free(expression.then_branch) \
            and focus_free(expression.else_branch)
    if isinstance(expression, (Literal, TextLiteral, VarRef)):
        return True
    if isinstance(expression, Quantified):
        return all(focus_free(source)
                   for _, source in expression.bindings) \
            and focus_free(expression.condition)
    return False


def hash_keys(item: object) -> list[tuple]:
    """Canonical hash keys of one atomized item.

    Two items can compare equal under general-comparison coercion iff
    they share a key:

    * numbers (and booleans) → ``("num", float)``;
    * typed strings → ``("str", value)``;
    * untyped atomics → the string key plus, when the text parses as a
      number, the numeric key.
    """
    if isinstance(item, bool):
        return [("num", float(item))]
    if isinstance(item, (int, float)):
        if item != item:  # NaN never equals anything
            return []
        return [("num", float(item))]
    if isinstance(item, UntypedAtomic):
        keys: list[tuple] = [("str", str(item))]
        try:
            keys.append(("num", float(str(item).strip())))
        except ValueError:
            pass
        return keys
    if isinstance(item, str):
        return [("str", item)]
    return []


def probe_keys(sequence: Sequence) -> set[tuple]:
    """Hash keys of every atomized item of a probe sequence."""
    keys: set[tuple] = set()
    for item in atomize(sequence):
        keys.update(hash_keys(item))
    return keys


class JoinPlan:
    """The static plan of one quantified expression (cached on the AST).

    ``steps[i]`` describes binding *i*: whether its source is
    correlated with earlier quantifier variables, and which pushed-down
    conjuncts become checkable right after it binds.
    """

    __slots__ = ("bindings", "checks_after", "correlated", "equality_for")

    def __init__(self, quantified: Quantified) -> None:
        factors = conjuncts(quantified.condition)
        names = [name for name, _ in quantified.bindings]
        position = {name: index for index, name in enumerate(names)}
        factor_vars = [free_variables(factor) for factor in factors]
        self.bindings = quantified.bindings
        self.correlated = []
        for index, (_, source) in enumerate(quantified.bindings):
            source_vars = free_variables(source)
            self.correlated.append(
                any(name in position and position[name] < index
                    for name in source_vars))
        # a factor becomes checkable after the last quantifier variable
        # it mentions is bound (outer variables are always bound)
        self.checks_after: list[list[Expression]] = [
            [] for _ in quantified.bindings]
        self.equality_for: list[tuple | None] = [
            None for _ in quantified.bindings]
        for factor, variables in zip(factors, factor_vars):
            latest = -1
            for name in variables:
                if name in position:
                    latest = max(latest, position[name])
            slot = max(latest, 0)
            self.checks_after[slot].append(factor)
        # hash-join detection: for an uncorrelated binding i, find an
        # equality factor L = R checkable at i where one side mentions
        # only binding i (plus outer vars) and the other only earlier
        # bindings (plus outer vars)
        for index, (name, _) in enumerate(quantified.bindings):
            if self.correlated[index]:
                continue
            for factor in self.checks_after[index]:
                if not (isinstance(factor, BinaryOp) and factor.op == "="):
                    continue
                left_vars = free_variables(factor.left)
                right_vars = free_variables(factor.right)
                earlier = set(names[:index])
                if self._side_ok(left_vars, name, position) \
                        and right_vars & set(names) <= earlier:
                    self.equality_for[index] = (factor, factor.left,
                                                factor.right)
                    break
                if self._side_ok(right_vars, name, position) \
                        and left_vars & set(names) <= earlier:
                    self.equality_for[index] = (factor, factor.right,
                                                factor.left)
                    break

    @staticmethod
    def _side_ok(variables: frozenset[str], name: str,
                 position: dict[str, int]) -> bool:
        quantifier_vars = {var for var in variables if var in position}
        return quantifier_vars == {name}


_PLAN_CACHE: dict[Quantified, JoinPlan] = {}  # guarded-by: _PLAN_LOCK
_PLAN_LOCK = make_lock("xquery.plan_cache")


def plan_for(quantified: Quantified) -> JoinPlan:
    """The (cached) join plan of a quantified expression.

    AST nodes are immutable and hash by value, so structurally equal
    expressions share one plan.  Plans are immutable once built, so two
    threads racing on a miss at worst build the same plan twice.
    """
    with _PLAN_LOCK:
        plan = _PLAN_CACHE.get(quantified)
    if plan is None:
        plan = JoinPlan(quantified)
        with _PLAN_LOCK:
            if len(_PLAN_CACHE) > 4096:
                _PLAN_CACHE.clear()
            _PLAN_CACHE[quantified] = plan
    return plan
