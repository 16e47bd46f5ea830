"""Static expression analysis and equality-key canonicalisation.

What the planner (:mod:`repro.xquery.planner`), its vectorized
executor (:mod:`repro.xquery.columnar`) and the column store's
:class:`~repro.relational.columns.PathIndex` share to detect and serve
equality joins; who joins what, and how, is the planner's decision
alone:

* :func:`conjuncts`, :func:`free_variables`, :func:`focus_free` —
  static facts about an expression (its ``and`` factors, the variables
  it reads, whether it reads the focus);
* :func:`hash_keys`, :func:`probe_keys`, :func:`matching_keys` — the
  one key format every value index is built and probed with.  The
  reference engine (:mod:`repro.xquery.engine`) decides ``=`` with
  :func:`repro.xquery.values.compare_atomics` and never sees a key,
  which is what lets the differential suites check this module.
"""

from __future__ import annotations

from repro.xquery.ast import (
    FOCUS_FUNCTIONS,
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
        if expression.name in FOCUS_FUNCTIONS:
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
    """Index-side keys of one atomized item: what the item *is*.

    An index maps these to the item; a probe looks up
    :func:`probe_keys`.  The two sides differ so that a bucket hit
    implies ``compare_atomics("=", indexed, probing)``, whose coercion
    depends on *both* operand types — an untyped atomic equals another
    untyped atomic (or a string) on its text and a number on its
    numeric reading, so ``"1"`` and ``"1.0"`` must not meet each other
    yet both must meet ``1``:

    * untyped atomics → ``("str", text)`` plus, when the text reads as
      a number, ``("unum", number)``;
    * typed strings → ``("str", value)``;
    * numbers → ``("num", value)`` (NaN never equals anything: no key);
    * booleans → ``("bool", value)``.

    Numbers are keyed by value, not by ``float(value)``: equal ints and
    floats hash alike, and ints past 2**53 stay exact.
    """
    if isinstance(item, bool):
        return [("bool", item)]
    if isinstance(item, (int, float)):
        if item != item:
            return []
        return [("num", item)]
    if isinstance(item, UntypedAtomic):
        keys: list[tuple] = [("str", str(item))]
        try:
            number = float(item.strip())
        except ValueError:
            return keys
        if number == number:
            keys.append(("unum", number))
        return keys
    if isinstance(item, str):
        return [("str", item)]
    return []


def matching_keys(keys: frozenset) -> frozenset:
    """The index-side keys that items keyed ``keys`` compare equal to.

    The probe form of index-side keys: a string (typed or not) meets
    equal strings; the numeric reading of an untyped atomic meets
    numbers only; a number meets numbers, untyped numeric readings and
    booleans; a boolean meets booleans and numbers.  Text-only key
    sets — names, titles: the common case — are their own probe form
    and come back as the same object.
    """
    matched: set[tuple] = set()
    for key in keys:
        kind, value = key
        if kind == "unum":
            matched.add(("num", value))
        elif kind == "num":
            matched.update((key, ("unum", value), ("bool", value)))
        elif kind == "bool":
            matched.update((key, ("num", value)))
    if not matched:
        return keys
    matched.update(key for key in keys if key[0] == "str")
    return frozenset(matched)


def probe_keys(sequence: Sequence) -> frozenset:
    """Probe-side keys of a sequence: every index-side key some
    atomized item of it compares equal to."""
    return matching_keys(frozenset(
        key for item in atomize(sequence) for key in hash_keys(item)))
