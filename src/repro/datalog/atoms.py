"""Literals of denial bodies: database atoms, comparisons, aggregates."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from repro.datalog.terms import (
    Arithmetic,
    Constant,
    Parameter,
    Term,
    Variable,
    term_parameters,
    term_variables,
)


@dataclass(frozen=True, slots=True)
class Atom:
    """A database atom ``predicate(arg1, ..., argN)``."""

    predicate: str
    args: tuple[Term, ...]

    def arity(self) -> int:
        return len(self.args)

    def variables(self) -> set[Variable]:
        result: set[Variable] = set()
        for arg in self.args:
            result |= term_variables(arg)
        return result

    def parameters(self) -> set[Parameter]:
        result: set[Parameter] = set()
        for arg in self.args:
            result |= term_parameters(arg)
        return result

    def __str__(self) -> str:
        inner = ",".join(str(arg) for arg in self.args)
        return f"{self.predicate}({inner})"


_COMPARISON_SYMBOLS = {
    "eq": "=",
    "ne": "≠",
    "lt": "<",
    "le": "≤",
    "gt": ">",
    "ge": "≥",
}

_NEGATED_OP = {
    "eq": "ne",
    "ne": "eq",
    "lt": "ge",
    "ge": "lt",
    "gt": "le",
    "le": "gt",
}

_SWAPPED_OP = {
    "eq": "eq",
    "ne": "ne",
    "lt": "gt",
    "gt": "lt",
    "le": "ge",
    "ge": "le",
}

COMPARISON_OPS = tuple(_COMPARISON_SYMBOLS)


@dataclass(frozen=True, slots=True)
class Comparison:
    """A built-in comparison literal ``left op right``."""

    op: str  # one of COMPARISON_OPS
    left: Term
    right: Term

    def __post_init__(self) -> None:
        if self.op not in _COMPARISON_SYMBOLS:
            raise ValueError(f"unknown comparison operator {self.op!r}")

    def variables(self) -> set[Variable]:
        return term_variables(self.left) | term_variables(self.right)

    def parameters(self) -> set[Parameter]:
        return term_parameters(self.left) | term_parameters(self.right)

    def swapped(self) -> "Comparison":
        """The same condition with the operands exchanged."""
        return Comparison(_SWAPPED_OP[self.op], self.right, self.left)

    def __str__(self) -> str:
        return f"{self.left} {_COMPARISON_SYMBOLS[self.op]} {self.right}"


def negate_comparison(comparison: Comparison) -> Comparison:
    """The complementary condition (``=`` ↔ ``≠``, ``<`` ↔ ``≥``, ...)."""
    return Comparison(_NEGATED_OP[comparison.op], comparison.left,
                      comparison.right)


_AGG_NAMES = {"cnt": "Cnt", "sum": "Sum", "max": "Max", "min": "Min",
              "avg": "Avg"}


@dataclass(frozen=True, slots=True)
class Aggregate:
    """An aggregate expression over a conjunctive body.

    ``Cnt_D(sub(_,_,Ir,_))`` from example 7 is
    ``Aggregate("cnt", distinct=True, term=None, group_by=(),
    body=(sub(...),))`` — a row count; the group is pinned by the
    variable ``Ir`` shared with the rest of the denial.

    ``Cnt_D{[R]; //track[rev/name→R]}`` from example 2 counts *distinct
    values of a term* (the selected track's node id) per group-by
    binding of ``R``: ``term`` is the counted variable and ``group_by``
    lists the grouping variables.
    """

    func: str  # "cnt", "sum", "max", "min", "avg"
    distinct: bool
    term: Term | None  # None only for func == "cnt" (row count)
    group_by: tuple[Term, ...]
    body: tuple[Atom, ...]

    def __post_init__(self) -> None:
        if self.func not in _AGG_NAMES:
            raise ValueError(f"unknown aggregate {self.func!r}")
        if self.term is None and self.func != "cnt":
            raise ValueError(f"{self.func} requires an aggregated term")

    def variables(self) -> set[Variable]:
        result: set[Variable] = set()
        for atom in self.body:
            result |= atom.variables()
        if self.term is not None:
            result |= term_variables(self.term)
        for term in self.group_by:
            result |= term_variables(term)
        return result

    def local_variables(self) -> set[Variable]:
        """Variables existentially quantified inside the aggregate.

        These are the body variables that are neither grouped on nor
        visible outside; they can be renamed freely.
        """
        exported: set[Variable] = set()
        for term in self.group_by:
            exported |= term_variables(term)
        return self.variables() - exported

    def parameters(self) -> set[Parameter]:
        result: set[Parameter] = set()
        for atom in self.body:
            result |= atom.parameters()
        if self.term is not None:
            result |= term_parameters(self.term)
        for term in self.group_by:
            result |= term_parameters(term)
        return result

    def __str__(self) -> str:
        name = _AGG_NAMES[self.func] + ("D" if self.distinct else "")
        body = " ∧ ".join(str(atom) for atom in self.body)
        if not self.group_by and self.term is None:
            return f"{name}({body})"
        groups = ",".join(str(term) for term in self.group_by)
        term = "" if self.term is None else f"{self.term} "
        return f"{name}{{{term}[{groups}]; {body}}}"


@dataclass(frozen=True, slots=True)
class AggregateCondition:
    """An aggregate compared against a bound, e.g. ``Cnt_D(...) > 4``."""

    aggregate: Aggregate
    op: str  # one of COMPARISON_OPS
    bound: Term

    def __post_init__(self) -> None:
        if self.op not in _COMPARISON_SYMBOLS:
            raise ValueError(f"unknown comparison operator {self.op!r}")

    def variables(self) -> set[Variable]:
        return self.aggregate.variables() | term_variables(self.bound)

    def parameters(self) -> set[Parameter]:
        return self.aggregate.parameters() | term_parameters(self.bound)

    def __str__(self) -> str:
        symbol = _COMPARISON_SYMBOLS[self.op]
        return f"{self.aggregate} {symbol} {self.bound}"


@dataclass(frozen=True, slots=True)
class Negation:
    """A negated existential subquery ``¬∃ x̄ (A1 ∧ ... ∧ C1 ∧ ...)``.

    ``body`` is a conjunction of database atoms and comparisons; the
    variables occurring *only* inside the body are existentially
    quantified under the negation, so
    ``← sub(Is,_,_,T) ∧ ¬(pub(_,_,_,T))`` states the referential
    constraint "every submission's title matches some publication" —
    the constraint class (keys / foreign keys) the paper's related work
    singles out, expressible here thanks to [16]'s treatment of
    negation in the simplification framework.
    """

    body: tuple["Atom | Comparison", ...]

    def __post_init__(self) -> None:
        if not self.body:
            raise ValueError("a negation needs a non-empty body")
        for literal in self.body:
            if not isinstance(literal, (Atom, Comparison)):
                raise ValueError(
                    "negation bodies hold atoms and comparisons only, "
                    f"not {literal!r}")

    def variables(self) -> set[Variable]:
        result: set[Variable] = set()
        for literal in self.body:
            result |= literal.variables()
        return result

    def parameters(self) -> set[Parameter]:
        result: set[Parameter] = set()
        for literal in self.body:
            result |= literal.parameters()
        return result

    def atoms(self) -> tuple[Atom, ...]:
        return tuple(lit for lit in self.body if isinstance(lit, Atom))

    def comparisons(self) -> tuple[Comparison, ...]:
        return tuple(lit for lit in self.body
                     if isinstance(lit, Comparison))

    def __str__(self) -> str:
        inner = " ∧ ".join(str(literal) for literal in self.body)
        return f"¬({inner})"


Literal = Union[Atom, Comparison, AggregateCondition, Negation]


def comparison_truth(comparison: Comparison) -> bool | None:
    """Truth value of a comparison decidable without a database.

    Returns ``True``/``False`` when the comparison is decided by its
    syntactic form, ``None`` when it depends on unknown values:

    * two equal constants / identical terms under ``=`` → ``True``;
    * two distinct constants under ``=`` → ``False``; and so on for the
      ordering operators on ground numeric/string operands;
    * identical non-constant terms (same variable or same parameter) are
      decided for every operator (``X = X`` is true, ``X < X`` false);
    * anything involving two different variables/parameters → ``None``.
    """
    left, right = comparison.left, comparison.right
    if isinstance(left, Constant) and isinstance(right, Constant):
        try:
            return _apply_op(comparison.op, left.value, right.value)
        except TypeError:
            return None
    if left == right and not isinstance(left, Arithmetic):
        return comparison.op in ("eq", "le", "ge")
    return None


def _apply_op(op: str, left: object, right: object) -> bool:
    if op == "eq":
        return left == right
    if op == "ne":
        return left != right
    if type(left) is bool or type(right) is bool:
        raise TypeError("booleans are not ordered")
    if isinstance(left, str) != isinstance(right, str):
        raise TypeError("cannot order values of different kinds")
    if op == "lt":
        return left < right  # type: ignore[operator]
    if op == "le":
        return left <= right  # type: ignore[operator]
    if op == "gt":
        return left > right  # type: ignore[operator]
    if op == "ge":
        return left >= right  # type: ignore[operator]
    raise ValueError(f"unknown comparison operator {op!r}")


def apply_comparison_op(op: str, left: object, right: object) -> bool:
    """Apply a comparison operator to two Python values.

    Mixed-kind orderings raise ``TypeError``; equality between mixed
    kinds is simply ``False``/``True`` by Python semantics.
    """
    return _apply_op(op, left, right)
