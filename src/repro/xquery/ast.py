"""Abstract syntax of the supported XQuery fragment."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union


@dataclass(frozen=True)
class Literal:
    value: str | int | float

    def __str__(self) -> str:
        if isinstance(self.value, str):
            return '"' + self.value.replace('"', '""') + '"'
        return str(self.value)


@dataclass(frozen=True)
class VarRef:
    name: str

    def __str__(self) -> str:
        return f"${self.name}"


@dataclass(frozen=True)
class ContextItem:
    def __str__(self) -> str:
        return "."


@dataclass(frozen=True)
class SequenceExpr:
    items: tuple["Expression", ...]

    def __str__(self) -> str:
        return "(" + ", ".join(str(item) for item in self.items) + ")"


@dataclass(frozen=True)
class AxisStep:
    """One path step.  ``axis`` ∈ child, descendant, descendant-or-self,
    attribute, parent, self.  ``nodetest`` is a name, ``"*"``,
    ``"text()"``, ``"node()"``, or the engine extension ``"position()"``
    (the node's sibling position, matching the ``Pos`` column)."""

    axis: str
    nodetest: str
    predicates: tuple["Expression", ...] = ()

    def __str__(self) -> str:
        if self.axis == "parent":
            base = ".."
        elif self.axis == "attribute":
            base = f"@{self.nodetest}"
        elif self.axis == "self":
            base = "."
        else:
            base = self.nodetest
        return base + "".join(f"[{pred}]" for pred in self.predicates)


@dataclass(frozen=True)
class PathExpr:
    """``start`` is ``None`` for absolute paths (anchored at the
    document roots of the evaluation collection); otherwise the
    expression producing the starting sequence.  ``descendant_flags[i]``
    is True when step *i* follows ``//``."""

    start: "Expression | None"
    steps: tuple[AxisStep, ...]
    descendant_flags: tuple[bool, ...]

    def __str__(self) -> str:
        parts: list[str] = []
        if self.start is not None:
            parts.append(str(self.start))
        for index, (step, descendant) in enumerate(
                zip(self.steps, self.descendant_flags)):
            if self.start is None and index == 0:
                parts.append("//" if descendant else "/")
            else:
                parts.append("//" if descendant else "/")
            parts.append(str(step))
        return "".join(parts)


@dataclass(frozen=True)
class BinaryOp:
    """``op`` ∈ or, and, =, !=, <, <=, >, >=, eq, ne, lt, le, gt, ge,
    +, -, *, div, idiv, mod, to, |"""

    op: str
    left: "Expression"
    right: "Expression"

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True)
class UnaryOp:
    op: str  # "-" or "+"
    operand: "Expression"

    def __str__(self) -> str:
        return f"{self.op}{self.operand}"


@dataclass(frozen=True)
class FunctionCall:
    name: str
    args: tuple["Expression", ...]

    def __str__(self) -> str:
        inner = ", ".join(str(arg) for arg in self.args)
        return f"{self.name}({inner})"


@dataclass(frozen=True)
class ForClause:
    variable: str
    source: "Expression"


@dataclass(frozen=True)
class LetClause:
    variable: str
    source: "Expression"


@dataclass(frozen=True)
class WhereClause:
    condition: "Expression"


FLWORClause = Union[ForClause, LetClause, WhereClause]


@dataclass(frozen=True)
class FLWOR:
    clauses: tuple[FLWORClause, ...]
    result: "Expression"

    def __str__(self) -> str:
        parts: list[str] = []
        for clause in self.clauses:
            if isinstance(clause, ForClause):
                parts.append(f"for ${clause.variable} in {clause.source}")
            elif isinstance(clause, LetClause):
                parts.append(f"let ${clause.variable} := {clause.source}")
            else:
                parts.append(f"where {clause.condition}")
        parts.append(f"return {self.result}")
        return " ".join(parts)


@dataclass(frozen=True)
class Quantified:
    kind: str  # "some" | "every"
    bindings: tuple[tuple[str, "Expression"], ...]
    condition: "Expression"

    def __str__(self) -> str:
        bindings = ", ".join(
            f"${name} in {source}" for name, source in self.bindings)
        return f"{self.kind} {bindings} satisfies {self.condition}"


@dataclass(frozen=True)
class IfExpr:
    condition: "Expression"
    then_branch: "Expression"
    else_branch: "Expression"

    def __str__(self) -> str:
        return (f"if ({self.condition}) then {self.then_branch} "
                f"else {self.else_branch}")


@dataclass(frozen=True)
class ElementConstructor:
    tag: str
    attributes: tuple[tuple[str, "Expression"], ...] = ()
    children: tuple["Expression", ...] = ()

    def __str__(self) -> str:
        attrs = "".join(f' {name}="{value}"'
                        for name, value in self.attributes)
        if not self.children:
            return f"<{self.tag}{attrs}/>"
        inner = "".join(str(child) for child in self.children)
        return f"<{self.tag}{attrs}>{inner}</{self.tag}>"


@dataclass(frozen=True)
class TextLiteral:
    """Literal text content inside an element constructor."""

    value: str

    def __str__(self) -> str:
        return self.value


Expression = Union[
    Literal, VarRef, ContextItem, SequenceExpr, PathExpr, BinaryOp, UnaryOp,
    FunctionCall, FLWOR, Quantified, IfExpr, ElementConstructor, TextLiteral,
]


# ---------------------------------------------------------------------------
# Static predicate shape
# ---------------------------------------------------------------------------

#: functions whose value depends on the dynamic focus position
FOCUS_FUNCTIONS = {"position", "last"}
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
        if expression.name in FOCUS_FUNCTIONS:
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
