"""Translation of Datalog denials into XQuery (section 6).

A denial becomes a boolean query that returns ``true`` exactly when the
denial's body is satisfiable — i.e. when integrity is violated.  The
shape follows the paper:

* every database atom contributes variable definitions — ``$Id in //p``
  (or ``$Id in $Par/p`` when the parent is already bound), ``$Par in
  $Id/..`` when the parent is referenced elsewhere, ``$V in
  $Id/d/text()`` for used value columns;
* definitions of never-used variables are not emitted, except node
  identifiers (which carry the existential force of the atom);
* remaining comparisons form the ``satisfies`` condition of a
  ``some ... satisfies ...`` expression;
* parameters (the ``%`` placeholders of the paper) are emitted as
  ``%{name}`` tokens: *node* parameters (in id/parent positions) are
  replaced at update time by the absolute location path of the target
  node (``/review/track[2]/rev[5]``), *value* parameters by literals;
* aggregate conditions become ``count(path)`` / ``sum(path)``
  comparisons, with aggregate bodies rendered as location paths with
  predicates.

The translated query evaluates on our own engine; the direct Datalog
evaluation of the same denial is the differential-testing oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

from repro.datalog.atoms import (
    Aggregate,
    AggregateCondition,
    Atom,
    Comparison,
    Negation,
)
from repro.datalog.denial import Denial
from repro.datalog.terms import (
    Arithmetic,
    Constant,
    Parameter,
    Term,
    Variable,
)
from repro.errors import CompilationError, XQueryError
from repro.relational.schema import PredicateSchema, RelationalSchema
from repro.xquery.ast import Expression
from repro.xquery.parser import parse_query
from repro.xtree.node import Document, Element

_OP_SYMBOLS = {"eq": "=", "ne": "!=", "lt": "<", "le": "<=", "gt": ">",
               "ge": ">="}

#: prefix of the external XQuery variables that carry parameter values
#: in prepared plans.  Translator-generated variable names never start
#: with an underscore (see ``_Translator._name_for``), so no collision.
PARAM_VARIABLE_PREFIX = "__p_"


@dataclass
class TranslatedQuery:
    """An XQuery check with update-time placeholders.

    ``text`` contains ``%{name}`` tokens; ``parameters`` maps each name
    to its kind: ``"node"`` (a bound element) or ``"value"`` (a scalar).

    ``prepared`` is the *prepared plan*: ``text`` parsed once, at
    schema-compile time, with every ``%{name}`` token replaced by the
    external variable ``$__p_name``.  At update time the parameters are
    bound as context variables (:meth:`variables_for`) — node
    parameters directly to the live element, with no location-path
    rendering, re-resolution or literal quoting — and the AST is
    evaluated as-is (:meth:`truth`).  The legacy text path
    (:meth:`instantiate`) remains for ad-hoc queries and as the
    differential-testing baseline.

    The check owns its compiled plans (``plans``), one per *size
    class* of the documents it runs on: the bit length of each
    document's element count.  Writes within a class reuse the plan;
    a document crossing a power of two gets a fresh one, planned on
    its statistics then.  A plan holds no document, so documents of
    the same size class (service groups sharing one schema) share it.
    """

    text: str
    parameters: dict[str, str]
    denial: Denial
    #: compile-time AST with parameters as external variables; ``None``
    #: only if the prepared text failed to parse (never for the
    #: translator's own output — a safety net for hand-built queries)
    prepared: Expression | None = None
    #: parameter name → external variable name used in ``prepared``
    variable_names: dict[str, str] = field(default_factory=dict)
    #: size class → compiled plan of ``prepared`` (see above)
    plans: dict[tuple[int, ...], Callable] = field(
        default_factory=dict, repr=False, compare=False)

    def instantiate(self, bindings: Mapping[str, object]) -> str:
        """Fill the placeholders with concrete update values."""
        text = self.text
        for name, kind in self.parameters.items():
            value = self._binding(bindings, name, kind)
            if kind == "node":
                rendered = value.location_path()  # type: ignore[union-attr]
            else:
                rendered = _literal(value)
            text = text.replace("%{" + name + "}", rendered)
        return text

    def variables_for(
            self, bindings: Mapping[str, object]) -> dict[str, list]:
        """External-variable bindings for the prepared plan.

        Node parameters become singleton node sequences (the live
        element itself), value parameters singleton atomics.
        """
        variables: dict[str, list] = {}
        for name, kind in self.parameters.items():
            value = self._binding(bindings, name, kind)
            variables[self.variable_names[name]] = [value]
        return variables

    def truth(self, documents: "list[Document] | Document",
              bindings: Mapping[str, object] | None = None) -> bool:
        """Evaluate the check without re-parsing any query text.

        Uses the prepared plan with variable-bound parameters when
        available, falling back to instantiate-and-parse otherwise.
        """
        from repro.xquery import planner
        from repro.xquery.engine import query_truth

        if self.prepared is None:
            return query_truth(self.instantiate(bindings or {}),
                               documents)
        variables = self.variables_for(bindings or {}) \
            if self.parameters else None
        if not planner.enabled():
            return query_truth(self.prepared, documents, variables)
        docs = (documents,) if isinstance(documents, Document) \
            else tuple(documents)
        size_class = tuple(document.element_count().bit_length()
                           for document in docs)
        truth_fn = self.plans.get(size_class)
        if truth_fn is None:
            truth_fn = planner.plan(self.prepared, docs)
            self.plans[size_class] = truth_fn
        return planner.run(truth_fn, self.prepared, docs, variables)

    def _binding(self, bindings: Mapping[str, object], name: str,
                 kind: str) -> object:
        if name not in bindings:
            raise CompilationError(
                f"missing binding for parameter {name!r}")
        value = bindings[name]
        if kind == "node" and not isinstance(value, Element):
            raise CompilationError(
                f"parameter {name!r} needs an element, got "
                f"{type(value).__name__}")
        return value


def prepare_query(text: str,
                  parameters: dict[str, str]) -> tuple[
                      Expression | None, dict[str, str]]:
    """Parse placeholder text once into a prepared (AST, variables) plan.

    Every ``%{name}`` token is rewritten to the external variable
    ``$__p_name`` and the result parsed.  Returns ``(None, names)``
    when the rewritten text is outside the parsable fragment, in which
    case callers fall back to the instantiate-text path.
    """
    variable_names = {
        name: PARAM_VARIABLE_PREFIX + name for name in parameters}
    prepared_text = text
    for name, variable in variable_names.items():
        prepared_text = prepared_text.replace(
            "%{" + name + "}", "$" + variable)
    try:
        return parse_query(prepared_text), variable_names
    except XQueryError:
        return None, variable_names


def _literal(value: object) -> str:
    if isinstance(value, bool):
        return "true()" if value else "false()"
    if isinstance(value, (int, float)):
        return str(value)
    text = str(value)
    if '"' not in text:
        return f'"{text}"'
    if "'" not in text:
        return f"'{text}'"
    raise CompilationError(
        "cannot render a literal containing both quote characters")


class _Translator:
    def __init__(self, denial: Denial, schema: RelationalSchema) -> None:
        self.denial = denial
        self.schema = schema
        self.definitions: list[tuple[str, str]] = []  # ($var, source)
        self.conditions: list[str] = []
        self.parameters: dict[str, str] = {}
        #: variable → XQuery reference for its *value*
        self.value_refs: dict[Variable, str] = {}
        #: id variable → XQuery reference for the *node*
        self.node_refs: dict[Variable, str] = {}
        self._var_names: dict[Variable, str] = {}
        self._used_names: set[str] = set()
        self._usage = self._count_usage()

    # -- bookkeeping -----------------------------------------------------------

    def _count_usage(self) -> dict[Variable, int]:
        counts: dict[Variable, int] = {}

        def walk_term(term: Term) -> None:
            if isinstance(term, Variable):
                counts[term] = counts.get(term, 0) + 1
            elif isinstance(term, Arithmetic):
                walk_term(term.left)
                walk_term(term.right)

        def walk_literal(literal) -> None:
            if isinstance(literal, Atom):
                for arg in literal.args:
                    walk_term(arg)
            elif isinstance(literal, Comparison):
                walk_term(literal.left)
                walk_term(literal.right)
            elif isinstance(literal, Negation):
                for inner in literal.body:
                    walk_literal(inner)

        for literal in self.denial.body:
            if isinstance(literal, (Atom, Comparison, Negation)):
                walk_literal(literal)
            else:
                assert isinstance(literal, AggregateCondition)
                aggregate = literal.aggregate
                for atom in aggregate.body:
                    for arg in atom.args:
                        walk_term(arg)
                if aggregate.term is not None:
                    walk_term(aggregate.term)
                for term in aggregate.group_by:
                    walk_term(term)
                walk_term(literal.bound)
        return counts

    def _name_for(self, variable: Variable) -> str:
        if variable not in self._var_names:
            base = variable.name.split("#")[0].replace("_", "V") or "V"
            if not base[0].isalpha():
                base = "V" + base
            name = base
            suffix = 1
            while name in self._used_names:
                suffix += 1
                name = f"{base}{suffix}"
            self._used_names.add(name)
            self._var_names[variable] = name
        return self._var_names[variable]

    def _parameter_token(self, parameter: Parameter, kind: str) -> str:
        existing = self.parameters.get(parameter.name)
        if existing is not None and existing != kind:
            raise CompilationError(
                f"parameter {parameter.name!r} is used both as a node and "
                "as a value")
        self.parameters[parameter.name] = kind
        return "%{" + parameter.name + "}"

    # -- main ---------------------------------------------------------------------

    def translate(self) -> TranslatedQuery:
        atoms = self._sorted_atoms()
        for atom in atoms:
            self._translate_atom(atom)
        for literal in self.denial.body:
            if isinstance(literal, Negation):
                self.conditions.append(self._translate_negation(literal))
        for literal in self.denial.body:
            if isinstance(literal, AggregateCondition):
                self._translate_aggregate(literal)
        for literal in self.denial.body:
            if isinstance(literal, Comparison):
                self.conditions.append(self._render_comparison(literal))
        condition_text = " and ".join(self.conditions) if self.conditions \
            else "true()"
        if self.definitions:
            defs = ", ".join(f"${name} in {source}"
                             for name, source in self.definitions)
            text = f"some {defs} satisfies {condition_text}"
        else:
            text = condition_text
        parameters = dict(self.parameters)
        prepared, variable_names = prepare_query(text, parameters)
        return TranslatedQuery(text, parameters, self.denial, prepared,
                               variable_names)

    def _sorted_atoms(self) -> list[Atom]:
        """Atoms ordered so a node is defined before it is used as a
        parent (the sorting step of section 6)."""
        remaining = list(self.denial.atoms())
        ordered: list[Atom] = []
        defined_ids: set[Variable] = set()
        while remaining:
            progressed = False
            for atom in list(remaining):
                parent = atom.args[2] if len(atom.args) > 2 else None
                if isinstance(parent, Variable) \
                        and parent not in defined_ids \
                        and any(_id_term(other) == parent
                                for other in remaining if other is not atom):
                    continue  # wait until the parent's atom is processed
                identifier = _id_term(atom)
                if isinstance(identifier, Variable):
                    defined_ids.add(identifier)
                ordered.append(atom)
                remaining.remove(atom)
                progressed = True
            if not progressed:
                # parent cycle (impossible for tree data): fall back to
                # the original order
                ordered.extend(remaining)
                break
        return ordered

    # -- atoms ---------------------------------------------------------------------

    def _translate_atom(self, atom: Atom) -> None:
        predicate = self.schema.predicate_for(atom.predicate)
        if len(atom.args) != predicate.arity():
            raise CompilationError(
                f"atom {atom} does not match schema predicate {predicate}")
        identifier = atom.args[0]
        parent = atom.args[2]
        node_ref = self._define_node(atom, identifier, parent, predicate)
        self._translate_columns(atom, predicate, node_ref)

    def _define_node(self, atom: Atom, identifier: Term, parent: Term,
                     predicate: PredicateSchema) -> str:
        tag = atom.predicate
        if isinstance(identifier, Parameter):
            # the atom talks about one specific (existing) node
            return self._parameter_token(identifier, "node")
        if not isinstance(identifier, Variable):
            raise CompilationError(
                f"node identifier of {atom} must be a variable or a "
                "parameter")
        if identifier in self.node_refs:
            return self.node_refs[identifier]
        source = self._node_source(tag, parent)
        name = self._name_for(identifier)
        self.definitions.append((name, source))
        reference = f"${name}"
        self.node_refs[identifier] = reference
        self.value_refs.setdefault(identifier, reference)
        if isinstance(parent, Variable) and parent not in self.node_refs \
                and self._usage.get(parent, 0) > 1:
            parent_name = self._name_for(parent)
            self.definitions.append((parent_name, f"{reference}/.."))
            self.node_refs[parent] = f"${parent_name}"
            self.value_refs.setdefault(parent, f"${parent_name}")
        return reference

    def _node_source(self, tag: str, parent: Term) -> str:
        if isinstance(parent, Parameter):
            return f"{self._parameter_token(parent, 'node')}/{tag}"
        if isinstance(parent, Variable) and parent in self.node_refs:
            return f"{self.node_refs[parent]}/{tag}"
        return f"//{tag}"

    def _translate_columns(self, atom: Atom, predicate: PredicateSchema,
                           node_ref: str) -> None:
        for index, column in enumerate(predicate.columns):
            if index in (0, 2):
                continue  # id and parent handled structurally
            term = atom.args[index]
            path = f"{node_ref}/{_column_path(column)}"
            if isinstance(term, Variable):
                if self._usage.get(term, 0) <= 1:
                    continue  # anonymous / unused: no condition
                if term in self.value_refs:
                    self.conditions.append(
                        f"{self.value_refs[term]} = {path}")
                else:
                    name = self._name_for(term)
                    self.definitions.append((name, path))
                    self.value_refs[term] = f"${name}"
            elif isinstance(term, Constant):
                self.conditions.append(f"{path} = {_literal(term.value)}")
            elif isinstance(term, Parameter):
                token = self._parameter_token(term, "value")
                self.conditions.append(f"{path} = {token}")
            else:
                raise CompilationError(
                    f"cannot translate column term {term} of {atom}")

    # -- negations ---------------------------------------------------------------------

    def _translate_negation(self, negation: Negation) -> str:
        """Render ``¬∃(...)`` as ``not(some ... satisfies ...)``.

        The inner subquery is translated in a nested scope: its atoms
        may reference outer nodes (through parent links and shared
        value variables), while definitions introduced inside stay
        local to the ``not(...)``.
        """
        outer_definitions = self.definitions
        outer_conditions = self.conditions
        outer_value_refs = dict(self.value_refs)
        outer_node_refs = dict(self.node_refs)
        self.definitions = []
        self.conditions = []
        try:
            inner_denial = Denial(negation.body)
            for atom in self._sorted_atoms_of(inner_denial):
                self._translate_atom(atom)
            for inner in negation.body:
                if isinstance(inner, Comparison):
                    self.conditions.append(
                        self._render_comparison(inner))
            condition_text = " and ".join(self.conditions) \
                if self.conditions else "true()"
            if self.definitions:
                defs = ", ".join(f"${name} in {source}"
                                 for name, source in self.definitions)
                inner_text = f"some {defs} satisfies {condition_text}"
            else:
                inner_text = condition_text
        finally:
            self.definitions = outer_definitions
            self.conditions = outer_conditions
            self.value_refs = outer_value_refs
            self.node_refs = outer_node_refs
        return f"not({inner_text})"

    def _sorted_atoms_of(self, denial: Denial) -> list[Atom]:
        saved = self.denial
        self.denial = denial
        try:
            return self._sorted_atoms()
        finally:
            self.denial = saved

    # -- comparisons ------------------------------------------------------------------

    def _render_comparison(self, literal: Comparison) -> str:
        left, right = literal.left, literal.right
        if literal.op in ("eq", "ne") \
                and isinstance(left, Variable) and left in self.node_refs \
                and isinstance(right, Variable) \
                and right in self.node_refs:
            # node-identity comparison: two node variables denote the
            # same node iff their union has one member
            union = (f"count(({self.node_refs[left]} | "
                     f"{self.node_refs[right]}))")
            return f"{union} = 1" if literal.op == "eq" else f"{union} = 2"
        return (f"{self._render_operand(left)} "
                f"{_OP_SYMBOLS[literal.op]} "
                f"{self._render_operand(right)}")

    def _render_operand(self, term: Term) -> str:
        if isinstance(term, Constant):
            return _literal(term.value)
        if isinstance(term, Parameter):
            kind = self.parameters.get(term.name, "value")
            return self._parameter_token(term, kind)
        if isinstance(term, Variable):
            reference = self.value_refs.get(term)
            if reference is None:
                raise CompilationError(
                    f"variable {term} of a comparison is not bound by any "
                    "database atom")
            return reference
        if isinstance(term, Arithmetic):
            left = self._render_operand(term.left)
            right = self._render_operand(term.right)
            return f"({left} {term.op} {right})"
        raise CompilationError(f"cannot render term {term}")

    # -- aggregates --------------------------------------------------------------------

    def _translate_aggregate(self, condition: AggregateCondition) -> None:
        aggregate = condition.aggregate
        self._ensure_group_definitions(aggregate)
        path, target_kind = self._aggregate_path(aggregate)
        if aggregate.func == "cnt":
            if aggregate.distinct and target_kind == "value":
                value = f"count(distinct-values({path}))"
            else:
                value = f"count({path})"
        elif aggregate.func == "sum":
            value = f"sum({path})"
        elif aggregate.func == "max":
            value = f"max({path})"
        elif aggregate.func == "min":
            value = f"min({path})"
        else:
            value = f"avg({path})"
        bound = self._render_operand(condition.bound)
        symbol = _OP_SYMBOLS[condition.op]
        self.conditions.append(f"{value} {symbol} {bound}")

    def _ensure_group_definitions(self, aggregate: Aggregate) -> None:
        """Bind group-by variables not defined by the rest of the denial.

        Groups range over the values the aggregate body can produce, so
        the defining path of the group variable inside the body, made
        absolute, enumerates the candidate groups (wrapped in
        ``distinct-values``).
        """
        for term in aggregate.group_by:
            if not isinstance(term, Variable) or term in self.value_refs:
                continue
            defining = self._group_defining_path(aggregate, term)
            name = self._name_for(term)
            self.definitions.append(
                (name, f"distinct-values({defining})"))
            self.value_refs[term] = f"${name}"

    def _group_defining_path(self, aggregate: Aggregate,
                             variable: Variable) -> str:
        for atom in aggregate.body:
            predicate = self.schema.predicate_for(atom.predicate)
            for index, column in enumerate(predicate.columns):
                if index in (0, 2):
                    continue
                if atom.args[index] == variable:
                    anchor = self._body_anchor(aggregate, atom)
                    return f"{anchor}/{_column_path(column)}"
        raise CompilationError(
            f"group variable {variable} is not produced by the aggregate "
            "body")

    def _body_anchor(self, aggregate: Aggregate, atom: Atom) -> str:
        """Absolute path selecting the nodes an aggregate-body atom
        describes, ignoring its column constraints."""
        chain: list[str] = [atom.predicate]
        current = atom
        guard = 0
        while True:
            guard += 1
            if guard > len(aggregate.body) + 2:
                raise CompilationError("aggregate body has a parent cycle")
            parent = current.args[2]
            parent_atom = None
            if isinstance(parent, Variable):
                for other in aggregate.body:
                    if other is not current and _id_term(other) == parent:
                        parent_atom = other
                        break
            if parent_atom is None:
                if isinstance(parent, Parameter):
                    return self._parameter_token(parent, "node") + "/" + \
                        "/".join(reversed(chain))
                if isinstance(parent, Variable) \
                        and parent in self.node_refs:
                    return self.node_refs[parent] + "/" + \
                        "/".join(reversed(chain))
                return "//" + "/".join(reversed(chain))
            chain.append(parent_atom.predicate)
            current = parent_atom

    def _aggregate_path(self, aggregate: Aggregate) -> tuple[str, str]:
        """Location path producing the aggregated items.

        Returns the path text and whether it selects nodes or values.
        The body must form a tree through parent links; the spine goes
        from the root atom to the *target* (the atom whose id is the
        aggregated term, or the only atom for row counts); other atoms
        become existence predicates.
        """
        body = list(aggregate.body)
        target = self._target_atom(aggregate, body)
        # children mapping through parent links
        children: dict[int, list[Atom]] = {}
        roots: list[Atom] = []
        by_id: dict[Variable, Atom] = {}
        for atom in body:
            identifier = _id_term(atom)
            if isinstance(identifier, Variable):
                by_id[identifier] = atom
        parent_of: dict[int, Atom | None] = {}
        for atom in body:
            parent = atom.args[2]
            if isinstance(parent, Variable) and parent in by_id \
                    and by_id[parent] is not atom:
                parent_atom = by_id[parent]
                children.setdefault(id(parent_atom), []).append(atom)
                parent_of[id(atom)] = parent_atom
            else:
                roots.append(atom)
                parent_of[id(atom)] = None
        # spine: target up to its root
        spine: list[Atom] = []
        cursor: Atom | None = target
        while cursor is not None:
            spine.append(cursor)
            cursor = parent_of[id(cursor)]
        spine.reverse()
        root = spine[0]
        if len(roots) > 1:
            raise CompilationError(
                "aggregate bodies with multiple unconnected atoms cannot "
                "be translated to a single path")
        anchor = self._anchor_for_root(root)
        spine_ids = {id(atom) for atom in spine}
        parts = [anchor]
        for atom in spine:
            step = atom.predicate if atom is not root else ""
            predicates = self._atom_predicates(atom, children, spine_ids,
                                               aggregate.term)
            if atom is root:
                parts[0] = anchor + predicates
            else:
                parts.append("/" + step + predicates)
        path = "".join(parts)
        term = aggregate.term
        target_kind = "node"
        if term is not None and term != _id_term(target):
            predicate = self.schema.predicate_for(target.predicate)
            for index, column in enumerate(predicate.columns):
                if index in (0, 2):
                    continue
                if target.args[index] == term:
                    path += "/" + _column_path(column)
                    target_kind = "value"
                    break
            else:
                raise CompilationError(
                    f"aggregated term {term} is not produced by the target "
                    "atom")
        return path, target_kind

    def _target_atom(self, aggregate: Aggregate, body: list[Atom]) -> Atom:
        term = aggregate.term
        if term is None:
            if len(body) == 1:
                return body[0]
            raise CompilationError(
                "row counts over multi-atom aggregate bodies cannot be "
                "translated; use a counted term")
        if isinstance(term, Variable):
            for atom in body:
                if _id_term(atom) == term:
                    return atom
            for atom in body:
                if term in atom.variables():
                    return atom
        raise CompilationError(
            f"cannot locate the aggregate target for term {term}")

    def _anchor_for_root(self, root: Atom) -> str:
        parent = root.args[2]
        if isinstance(parent, Parameter):
            return self._parameter_token(parent, "node") + "/" \
                + root.predicate
        if isinstance(parent, Variable) and parent in self.node_refs:
            return f"{self.node_refs[parent]}/{root.predicate}"
        return f"//{root.predicate}"

    def _atom_predicates(self, atom: Atom, children: dict[int, list[Atom]],
                         spine_ids: set[int],
                         skip_term: Term | None = None) -> str:
        predicate = self.schema.predicate_for(atom.predicate)
        parts: list[str] = []
        for index, column in enumerate(predicate.columns):
            if index in (0, 2):
                continue
            term = atom.args[index]
            if skip_term is not None and term == skip_term:
                # the aggregated value: selected by the path suffix, not
                # filtered by a predicate
                continue
            column_path = _column_path(column)
            if isinstance(term, Constant):
                parts.append(f"[{column_path} = {_literal(term.value)}]")
            elif isinstance(term, Parameter):
                token = self._parameter_token(term, "value")
                parts.append(f"[{column_path} = {token}]")
            elif isinstance(term, Variable):
                reference = self.value_refs.get(term)
                if reference is not None:
                    parts.append(f"[{column_path} = {reference}]")
                elif self._usage.get(term, 0) > 1 \
                        and term != _id_term(atom):
                    raise CompilationError(
                        f"shared aggregate-body variable {term} is not "
                        "bound outside the aggregate")
        for child in children.get(id(atom), ()):
            if id(child) not in spine_ids:
                branch = child.predicate \
                    + self._atom_predicates(child, children, spine_ids,
                                            skip_term)
                parts.append(f"[{branch}]")
        return "".join(parts)


def _id_term(atom: Atom) -> Term:
    return atom.args[0]


def _column_path(column) -> str:
    if column.kind == "text_child":
        return f"{column.source}/text()"
    if column.kind == "attribute":
        return f"@{column.source}"
    if column.kind == "text":
        return "text()"
    if column.kind == "pos":
        return "position()"
    raise CompilationError(f"unexpected column kind {column.kind!r}")


def translate_denial(denial: Denial,
                     schema: RelationalSchema) -> TranslatedQuery:
    """Translate one Datalog denial into an XQuery check (section 6)."""
    return _Translator(denial, schema).translate()


def translate_denials(denials: list[Denial],
                      schema: RelationalSchema) -> list[TranslatedQuery]:
    """Translate a set of denials; one query per denial."""
    return [translate_denial(denial, schema) for denial in denials]
