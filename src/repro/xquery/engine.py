"""Reference evaluator for the XQuery fragment.

Queries run against a *collection* of documents (the paper's
constraints span ``pub.xml`` and ``rev.xml``); absolute paths start at
the roots of every document in the collection, in collection order.

This is the oracle the differential suites compare the planner
(:mod:`repro.xquery.planner`) against, so it evaluates by the book:
quantifiers and FLWORs are depth-first nested loops in source order,
and ``=`` is decided by :func:`repro.xquery.values.compare_atomics`
alone.  It knows nothing about joins, value indexes or hash keys —
production checks never run here (the planner borrows the step
helpers below and falls back on an evaluation error); slower is fine.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterator

from repro.errors import XQueryEvaluationError
from repro.xquery import functions
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
    boolean_filter_safe,
)
from repro.xquery.parser import parse_query
from repro.xquery.values import (
    Sequence,
    UntypedAtomic,
    atomize,
    effective_boolean_value,
    general_compare,
    is_node,
    to_number,
)
from repro.xtree.node import Document, Element, Node, Text


@dataclass(frozen=True)
class QueryContext:
    """Dynamic evaluation context."""

    documents: tuple[Document, ...]
    variables: dict[str, Sequence] = field(default_factory=dict)
    item: object | None = None
    position: int = 1
    size: int = 1

    def with_variable(self, name: str, value: Sequence) -> "QueryContext":
        variables = dict(self.variables)
        variables[name] = value
        return replace(self, variables=variables)

    def with_focus(self, item: object, position: int,
                   size: int) -> "QueryContext":
        return replace(self, item=item, position=position, size=size)


def evaluate_query(query: "Expression | str",
                   documents: "list[Document] | Document",
                   variables: dict[str, Sequence] | None = None) -> Sequence:
    """Evaluate a query (text or AST) against one or more documents."""
    if isinstance(query, str):
        query = parse_query(query)
    if isinstance(documents, Document):
        documents = [documents]
    context = QueryContext(tuple(documents), dict(variables or {}))
    return _evaluate(query, context)


def query_truth(query: "Expression | str",
                documents: "list[Document] | Document",
                variables: dict[str, Sequence] | None = None) -> bool:
    """Effective boolean value of a query result."""
    return effective_boolean_value(
        evaluate_query(query, documents, variables))


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------

def _evaluate(expression: Expression, context: QueryContext) -> Sequence:
    if isinstance(expression, Literal):
        return [expression.value]
    if isinstance(expression, TextLiteral):
        return [expression.value]
    if isinstance(expression, VarRef):
        try:
            return list(context.variables[expression.name])
        except KeyError:
            raise XQueryEvaluationError(
                f"unbound variable ${expression.name}") from None
    if isinstance(expression, ContextItem):
        if context.item is None:
            raise XQueryEvaluationError("no context item")
        return [context.item]
    if isinstance(expression, SequenceExpr):
        result: Sequence = []
        for item_expr in expression.items:
            result.extend(_evaluate(item_expr, context))
        return result
    if isinstance(expression, PathExpr):
        return _evaluate_path(expression, context)
    if isinstance(expression, BinaryOp):
        return _evaluate_binary(expression, context)
    if isinstance(expression, UnaryOp):
        return _evaluate_unary(expression, context)
    if isinstance(expression, FunctionCall):
        return _evaluate_call(expression, context)
    if isinstance(expression, FLWOR):
        return _evaluate_flwor(expression, context)
    if isinstance(expression, Quantified):
        return _evaluate_quantified(expression, context)
    if isinstance(expression, IfExpr):
        condition = effective_boolean_value(
            _evaluate(expression.condition, context))
        branch = expression.then_branch if condition \
            else expression.else_branch
        return _evaluate(branch, context)
    if isinstance(expression, ElementConstructor):
        return [_construct(expression, context)]
    raise XQueryEvaluationError(
        f"cannot evaluate expression {expression!r}")


# ---------------------------------------------------------------------------
# Paths
# ---------------------------------------------------------------------------

def _evaluate_path(path: PathExpr, context: QueryContext) -> Sequence:
    if path.start is None:
        current: Sequence = list(context.documents)
    else:
        current = _evaluate(path.start, context)
    for step, descendant in zip(path.steps, path.descendant_flags):
        if descendant:
            fast = _indexed_tag_step(step, current, context)
            if fast is not None:
                current = fast
                continue
            current = _descendant_or_self(current)
        current = _apply_step(step, current, context)
    return current


def _indexed_tag_step(step: AxisStep, sequence: Sequence,
                      context: QueryContext) -> Sequence | None:
    """``//tag`` over whole documents, served by the per-tag index.

    Applicable when every context item is a document and the step is a
    named child step: the candidates are exactly the document's
    elements with that tag, which
    :meth:`repro.xtree.node.Document.elements_by_tag` maintains
    incrementally — documents whose tag bucket is empty contribute
    nothing, so a step only one document can satisfy never walks the
    others.  Predicates are allowed when
    they filter purely by effective boolean value
    (:func:`repro.xquery.ast.boolean_filter_safe`): those are
    insensitive to the per-parent candidate partitioning of the generic
    path, so applying them element-wise over the index fetch is
    equivalent.  Positional predicates keep the generic path.  Returns
    ``None`` when not applicable.
    """
    if step.axis != "child" \
            or step.nodetest in ("*", "node()", "text()", "position()"):
        return None
    if not all(boolean_filter_safe(predicate)
               for predicate in step.predicates):
        return None
    if not all(isinstance(item, Document) for item in sequence):
        return None
    result: Sequence = []
    seen: set[int] = set()
    for document in sequence:
        if id(document) not in seen:
            seen.add(id(document))
            result.extend(document.elements_by_tag(step.nodetest))
    for predicate in step.predicates:
        result = _filter_predicate(predicate, result, context)
    return result


def _descendant_or_self(sequence: Sequence) -> Sequence:
    result: Sequence = []
    seen: set[int] = set()
    for item in sequence:
        for node in _self_and_descendants(item):
            if id(node) not in seen:
                seen.add(id(node))
                result.append(node)
    return result


def _self_and_descendants(item: object) -> Iterator[object]:
    if isinstance(item, Document):
        yield item
        yield from item.root.iter()
    elif isinstance(item, Element):
        yield from item.iter()
    elif isinstance(item, Text):
        yield item


def _apply_step(step: AxisStep, sequence: Sequence,
                context: QueryContext) -> Sequence:
    result: Sequence = []
    seen: set[int] = set()
    for item in sequence:
        candidates = _axis_candidates(step, item)
        for predicate in step.predicates:
            candidates = _filter_predicate(predicate, candidates, context)
        for candidate in candidates:
            if is_node(candidate):
                if id(candidate) not in seen:
                    seen.add(id(candidate))
                    result.append(candidate)
            else:
                result.append(candidate)
    return result


def _axis_candidates(step: AxisStep, item: object) -> Sequence:
    axis, nodetest = step.axis, step.nodetest
    if nodetest == "position()":
        if isinstance(item, Element):
            return [item.child_position]
        raise XQueryEvaluationError(
            "position() step requires an element context")
    if axis == "child":
        children: list[Node]
        if isinstance(item, Document):
            children = [item.root]
        elif isinstance(item, Element):
            children = item.children
        else:
            return []
        return [child for child in children if _matches(nodetest, child)]
    if axis == "attribute":
        if isinstance(item, Element):
            if nodetest == "*":
                return [UntypedAtomic(value)
                        for value in item.attributes.values()]
            if nodetest in item.attributes:
                return [UntypedAtomic(item.attributes[nodetest])]
        return []
    if axis == "parent":
        if isinstance(item, (Element, Text)) and item.parent is not None:
            return [item.parent]
        return []
    if axis == "self":
        return [item]
    if axis == "descendant":
        if isinstance(item, (Element, Document)):
            nodes = list(_self_and_descendants(item))[1:]
            return [node for node in nodes if _matches(nodetest, node)]
        return []
    raise XQueryEvaluationError(f"unsupported axis {axis!r}")


def _matches(nodetest: str, node: object) -> bool:
    if nodetest == "node()":
        return True
    if nodetest == "text()":
        return isinstance(node, Text)
    if nodetest == "*":
        return isinstance(node, Element)
    return isinstance(node, Element) and node.tag == nodetest


def _filter_predicate(predicate: Expression, candidates: Sequence,
                      context: QueryContext) -> Sequence:
    result: Sequence = []
    size = len(candidates)
    for position, candidate in enumerate(candidates, start=1):
        inner = context.with_focus(candidate, position, size)
        value = _evaluate(predicate, inner)
        if len(value) == 1 and isinstance(value[0], (int, float)) \
                and not isinstance(value[0], bool):
            if value[0] == position:
                result.append(candidate)
        elif effective_boolean_value(value):
            result.append(candidate)
    return result


# ---------------------------------------------------------------------------
# Operators
# ---------------------------------------------------------------------------

_GENERAL_OPS = {"=", "!=", "<", "<=", ">", ">="}
_ARITHMETIC_OPS = {"+", "-", "*", "div", "idiv", "mod"}


def _evaluate_binary(expression: BinaryOp, context: QueryContext) -> Sequence:
    op = expression.op
    if op == "and":
        left = effective_boolean_value(_evaluate(expression.left, context))
        if not left:
            return [False]
        return [effective_boolean_value(
            _evaluate(expression.right, context))]
    if op == "or":
        left = effective_boolean_value(_evaluate(expression.left, context))
        if left:
            return [True]
        return [effective_boolean_value(
            _evaluate(expression.right, context))]
    if op in _GENERAL_OPS:
        return [general_compare(op, _evaluate(expression.left, context),
                                _evaluate(expression.right, context))]
    if op in _ARITHMETIC_OPS:
        return _arithmetic(op, _evaluate(expression.left, context),
                           _evaluate(expression.right, context))
    if op == "to":
        left_seq = atomize(_evaluate(expression.left, context))
        right_seq = atomize(_evaluate(expression.right, context))
        if not left_seq or not right_seq:
            return []
        start = int(to_number(left_seq[0]))
        end = int(to_number(right_seq[0]))
        return list(range(start, end + 1))
    if op == "|":
        left_nodes = _evaluate(expression.left, context)
        right_nodes = _evaluate(expression.right, context)
        result: Sequence = []
        seen: set[int] = set()
        for node in left_nodes + right_nodes:
            if id(node) not in seen:
                seen.add(id(node))
                result.append(node)
        return result
    raise XQueryEvaluationError(f"unknown operator {op!r}")


def _arithmetic(op: str, left: Sequence, right: Sequence) -> Sequence:
    left_atoms = atomize(left)
    right_atoms = atomize(right)
    if not left_atoms or not right_atoms:
        return []
    if len(left_atoms) > 1 or len(right_atoms) > 1:
        raise XQueryEvaluationError("arithmetic on non-singleton sequences")
    left_value = to_number(left_atoms[0])
    right_value = to_number(right_atoms[0])
    if op == "+":
        result = left_value + right_value
    elif op == "-":
        result = left_value - right_value
    elif op == "*":
        result = left_value * right_value
    elif op == "div":
        if right_value == 0:
            raise XQueryEvaluationError("division by zero")
        result = left_value / right_value
    elif op == "idiv":
        if right_value == 0:
            raise XQueryEvaluationError("division by zero")
        return [int(left_value // right_value)]
    elif op == "mod":
        if right_value == 0:
            raise XQueryEvaluationError("division by zero")
        result = left_value % right_value
    else:  # pragma: no cover - dispatch prevents this
        raise XQueryEvaluationError(f"unknown arithmetic operator {op!r}")
    if float(result).is_integer() and op != "div":
        return [int(result)]
    return [result]


def _evaluate_unary(expression: UnaryOp, context: QueryContext) -> Sequence:
    atoms = atomize(_evaluate(expression.operand, context))
    if not atoms:
        return []
    value = to_number(atoms[0])
    result = -value if expression.op == "-" else value
    return [int(result)] if float(result).is_integer() else [result]


# ---------------------------------------------------------------------------
# Functions, FLWOR, quantifiers, constructors
# ---------------------------------------------------------------------------

def _evaluate_call(expression: FunctionCall,
                   context: QueryContext) -> Sequence:
    name = expression.name
    if name == "position":
        return [context.position]
    if name == "last":
        return [context.size]
    entry = functions.REGISTRY.get(name)
    if entry is None:
        raise XQueryEvaluationError(f"unknown function {name}()")
    implementation, min_arity, max_arity = entry
    if not min_arity <= len(expression.args) <= max_arity:
        raise XQueryEvaluationError(
            f"{name}() expects between {min_arity} and {max_arity} "
            f"arguments, got {len(expression.args)}")
    arguments = [_evaluate(arg, context) for arg in expression.args]
    return implementation(*arguments)


def _evaluate_flwor(expression: FLWOR, context: QueryContext) -> Sequence:
    result: Sequence = []

    def run(clause_index: int, current: QueryContext) -> None:
        if clause_index == len(expression.clauses):
            result.extend(_evaluate(expression.result, current))
            return
        clause = expression.clauses[clause_index]
        if isinstance(clause, ForClause):
            for item in _evaluate(clause.source, current):
                run(clause_index + 1,
                    current.with_variable(clause.variable, [item]))
        elif isinstance(clause, LetClause):
            run(clause_index + 1,
                current.with_variable(clause.variable,
                                      _evaluate(clause.source, current)))
        else:
            assert isinstance(clause, WhereClause)
            if effective_boolean_value(
                    _evaluate(clause.condition, current)):
                run(clause_index + 1, current)

    run(0, context)
    return result


def _evaluate_quantified(expression: Quantified,
                         context: QueryContext) -> Sequence:
    """Depth-first nested loops over the bindings, in source order."""
    holds = any if expression.kind == "some" else all

    def check(binding_index: int, current: QueryContext) -> bool:
        if binding_index == len(expression.bindings):
            return effective_boolean_value(
                _evaluate(expression.condition, current))
        name, source = expression.bindings[binding_index]
        return holds(
            check(binding_index + 1, current.with_variable(name, [item]))
            for item in _evaluate(source, current))

    return [check(0, context)]


def _construct(expression: ElementConstructor,
               context: QueryContext) -> Element:
    attributes: dict[str, str] = {}
    for name, value_expr in expression.attributes:
        atoms = atomize(_evaluate(value_expr, context))
        attributes[name] = "".join(str(atom) for atom in atoms)
    element = Element(expression.tag, attributes)
    for child in expression.children:
        atoms = atomize(_evaluate(child, context))
        text = "".join(str(atom) for atom in atoms)
        if text:
            element.append(Text(text))
    return element
