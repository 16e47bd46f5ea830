"""Substitutions: finite mappings from variables to terms."""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, Mapping

from repro.datalog.terms import (
    Arithmetic,
    Parameter,
    Term,
    Variable,
    evaluate_arithmetic,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.datalog.atoms import (
        Aggregate,
        AggregateCondition,
        Atom,
        Comparison,
        Literal,
    )


class Substitution:
    """An immutable variable→term mapping.

    Application is *not* recursive: bindings are expected to be in solved
    form (no bound variable occurs in any image), which :meth:`bind`
    maintains by composing on the fly.
    """

    __slots__ = ("_mapping",)

    def __init__(self, mapping: Mapping[Variable, Term] | None = None) -> None:
        self._mapping: dict[Variable, Term] = dict(mapping or {})

    # -- mapping protocol ----------------------------------------------------

    def __contains__(self, variable: Variable) -> bool:
        return variable in self._mapping

    def __getitem__(self, variable: Variable) -> Term:
        return self._mapping[variable]

    def __len__(self) -> int:
        return len(self._mapping)

    def __iter__(self) -> Iterator[Variable]:
        return iter(self._mapping)

    def get(self, variable: Variable, default: Term | None = None) -> Term | None:
        return self._mapping.get(variable, default)

    def items(self) -> Iterator[tuple[Variable, Term]]:
        return iter(self._mapping.items())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Substitution):
            return NotImplemented
        return self._mapping == other._mapping

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{var}↦{term}" for var, term in sorted(
                self._mapping.items(), key=lambda pair: pair[0].name))
        return "{" + inner + "}"

    # -- construction ----------------------------------------------------------

    def bind(self, variable: Variable, term: Term) -> "Substitution":
        """Return a new substitution with ``variable ↦ term`` added.

        Existing images are updated so the result stays in solved form.
        """
        term = self.apply_term(term)
        if term == variable:
            return self
        single = Substitution({variable: term})
        updated = {
            var: single.apply_term(image)
            for var, image in self._mapping.items()
        }
        updated[variable] = term
        return Substitution(updated)

    def compose(self, other: "Substitution") -> "Substitution":
        """``(self ∘ other)``: apply ``self`` first, then ``other``."""
        result = {
            var: other.apply_term(image)
            for var, image in self._mapping.items()
        }
        for var, image in other.items():
            result.setdefault(var, image)
        return Substitution(result)

    def restricted(self, variables: set[Variable]) -> "Substitution":
        """Keep only the bindings of the given variables."""
        return Substitution({
            var: image for var, image in self._mapping.items()
            if var in variables
        })

    # -- application -------------------------------------------------------------

    def apply_term(self, term: Term) -> Term:
        if isinstance(term, Variable):
            return self._mapping.get(term, term)
        if isinstance(term, Arithmetic):
            return evaluate_arithmetic(Arithmetic(
                term.op, self.apply_term(term.left),
                self.apply_term(term.right)))
        return term

    def apply_atom(self, atom: "Atom") -> "Atom":
        from repro.datalog.atoms import Atom
        return Atom(atom.predicate,
                    tuple(self.apply_term(arg) for arg in atom.args))

    def apply_literal(self, literal: "Literal") -> "Literal":
        from repro.datalog.atoms import (
            Aggregate,
            AggregateCondition,
            Atom,
            Comparison,
            Negation,
        )
        if isinstance(literal, Atom):
            return self.apply_atom(literal)
        if isinstance(literal, Comparison):
            return Comparison(literal.op, self.apply_term(literal.left),
                              self.apply_term(literal.right))
        if isinstance(literal, Negation):
            return Negation(tuple(
                self.apply_literal(inner)  # type: ignore[misc]
                for inner in literal.body))
        if isinstance(literal, AggregateCondition):
            aggregate = literal.aggregate
            new_aggregate = Aggregate(
                aggregate.func,
                aggregate.distinct,
                None if aggregate.term is None
                else self.apply_term(aggregate.term),
                tuple(self.apply_term(term) for term in aggregate.group_by),
                tuple(self.apply_atom(atom) for atom in aggregate.body),
            )
            return AggregateCondition(new_aggregate, literal.op,
                                      self.apply_term(literal.bound))
        raise TypeError(f"unknown literal kind: {literal!r}")


class ParameterBinding:
    """A parameter→term mapping applied at update time.

    Parameters are constants-to-be, so instantiating them is a separate
    operation from variable substitution.
    """

    __slots__ = ("_mapping",)

    def __init__(self, mapping: Mapping[Parameter, Term]) -> None:
        self._mapping = dict(mapping)

    def apply_term(self, term: Term) -> Term:
        if isinstance(term, Parameter):
            return self._mapping.get(term, term)
        if isinstance(term, Arithmetic):
            return evaluate_arithmetic(Arithmetic(
                term.op, self.apply_term(term.left),
                self.apply_term(term.right)))
        return term

    def apply_literal(self, literal: "Literal") -> "Literal":
        from repro.datalog.atoms import (
            Aggregate,
            AggregateCondition,
            Atom,
            Comparison,
            Negation,
        )
        if isinstance(literal, Atom):
            return Atom(literal.predicate,
                        tuple(self.apply_term(arg) for arg in literal.args))
        if isinstance(literal, Comparison):
            return Comparison(literal.op, self.apply_term(literal.left),
                              self.apply_term(literal.right))
        if isinstance(literal, Negation):
            return Negation(tuple(
                self.apply_literal(inner)  # type: ignore[misc]
                for inner in literal.body))
        if isinstance(literal, AggregateCondition):
            aggregate = literal.aggregate
            new_aggregate = Aggregate(
                aggregate.func,
                aggregate.distinct,
                None if aggregate.term is None
                else self.apply_term(aggregate.term),
                tuple(self.apply_term(term) for term in aggregate.group_by),
                tuple(
                    Atom(atom.predicate,
                         tuple(self.apply_term(arg) for arg in atom.args))
                    for atom in aggregate.body),
            )
            return AggregateCondition(new_aggregate, literal.op,
                                      self.apply_term(literal.bound))
        raise TypeError(f"unknown literal kind: {literal!r}")
