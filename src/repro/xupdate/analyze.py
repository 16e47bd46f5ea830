"""Static analysis of XUpdate insertions (the update mapping of §4.1).

An insertion is mapped to a *relational update pattern*: one parametric
atom per created node, with

* a fresh-identifier parameter for each new node (``is``, ``ia``);
* a position parameter per node (``ps``, ``pa``);
* a node parameter for the existing parent of the inserted fragment
  (``ir``) — the only reference into the current document;
* a value parameter per inlined text child / attribute present in the
  fragment (``t``, ``n``).

Parameter names follow the paper's convention: ``i``/``p`` plus the
first letter of the node type, and the first letter of the column tag
for values (collisions get longer names).

The *signature* (operation kind, parent node type, fragment shape)
identifies the pattern class: two concrete updates with the same
signature share the same simplified constraints, instantiated with
different parameter bindings — the run-time pattern recognition of
footnote 4.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.datalog.atoms import Atom
from repro.datalog.denial import Denial
from repro.datalog.terms import Constant, Parameter, Term
from repro.errors import SimplificationError, XUpdateError
from repro.relational.schema import RelationalSchema
from repro.simplify.update import UpdatePattern, freshness_hypotheses
from repro.xtree.node import Document, Element
from repro.xupdate.apply import resolve_select
from repro.xupdate.parser import InsertOperation, Operation, RemoveOperation


@dataclass(frozen=True)
class UpdateSignature:
    """What makes two updates instances of the same pattern."""

    kind: str  # "after" | "before" | "append"
    parent_tag: str
    shape: str

    def __str__(self) -> str:
        return f"{self.kind}:{self.parent_tag}/{self.shape}"


#: binder specs: ("node", "parent") | ("position", index) |
#: ("value", index, column_source)
BindingSpec = tuple


@dataclass
class AnalyzedUpdate:
    """The design-time artifact for one insertion pattern."""

    signature: UpdateSignature
    pattern: UpdatePattern
    hypotheses: list[Denial]
    binding_specs: dict[str, BindingSpec]

    def bind(self, document: Document,
             operation: InsertOperation) -> dict[str, object]:
        """Parameter bindings for a concrete operation on ``document``.

        Only parameters that refer to the *present* state are bound:
        the parent node, positions and values.  Fresh identifiers are
        not bindable before execution (and, by construction, never
        survive into optimized checks).
        """
        anchor = resolve_select(document, operation.select)
        if operation.kind == "append":
            parent: Element | None = anchor
            base_position = len(anchor.element_children()) + 1
        else:
            parent = anchor.parent
            if parent is None:
                raise XUpdateError(
                    "cannot insert a sibling of the document root")
            base_position = anchor.child_position \
                + (1 if operation.kind == "after" else 0)
        elements = _fragment_elements(operation)
        bindings: dict[str, object] = {}
        for name, spec in self.binding_specs.items():
            if spec[0] == "node":
                bindings[name] = parent
            elif spec[0] == "position":
                index = spec[1]
                element = elements[index]
                if element.parent is None:
                    # a top-level fragment element: position depends on
                    # the insertion point
                    offset = [e for e in elements if e.parent is None
                              ].index(element)
                    bindings[name] = base_position + offset
                else:
                    bindings[name] = element.child_position
            else:
                assert spec[0] == "value"
                index, source = spec[1], spec[2]
                element = elements[index]
                if source.startswith("@"):
                    bindings[name] = element.attributes.get(source[1:], "")
                elif source == "#text":
                    bindings[name] = element.text()
                else:
                    child = element.first_child(source)
                    bindings[name] = "" if child is None else child.text()
        return bindings


def analyze_operation(operation: Operation,
                      schema: RelationalSchema) -> AnalyzedUpdate:
    """Derive signature, pattern, Δ and binder for an insertion.

    Deletions raise :class:`repro.errors.SimplificationError`: the
    paper's framework (and ours) simplifies w.r.t. insertions — XML
    documents typically grow — so deletions take the brute-force path.
    """
    if isinstance(operation, RemoveOperation):
        raise SimplificationError(
            "deletions are not simplified; use the brute-force checker")
    assert isinstance(operation, InsertOperation)
    parent_tag = _static_parent_tag(operation, schema)
    builder = _PatternBuilder(schema, parent_tag)
    for element in operation.content:
        if isinstance(element, Element):
            builder.add_top_level(element)
    if not builder.atoms:
        raise SimplificationError(
            "the inserted fragment creates no relational tuples")
    shape = "+".join(
        _shape_of(element, schema) for element in operation.content
        if isinstance(element, Element))
    signature = UpdateSignature(operation.kind, parent_tag, shape)
    pattern = UpdatePattern(tuple(builder.atoms),
                            frozenset(builder.fresh),
                            name=str(signature))
    hypotheses = freshness_hypotheses(pattern, schema)
    return AnalyzedUpdate(signature, pattern, hypotheses,
                          builder.binding_specs)


def signature_of(operation: Operation,
                 schema: RelationalSchema) -> UpdateSignature:
    """The signature of a concrete operation (for pattern lookup)."""
    if isinstance(operation, RemoveOperation):
        raise SimplificationError("deletions have no insertion signature")
    assert isinstance(operation, InsertOperation)
    parent_tag = _static_parent_tag(operation, schema)
    shape = "+".join(
        _shape_of(element, schema) for element in operation.content
        if isinstance(element, Element))
    return UpdateSignature(operation.kind, parent_tag, shape)


def fragment_elements(operation: InsertOperation) -> list[Element]:
    """All fragment elements of an insertion, in binder preorder.

    Public alias used by the static analysis passes; indexes agree with
    the ``("position"/"value", index, ...)`` binding specs.
    """
    return _fragment_elements(operation)


def insertion_parent_tag(operation: InsertOperation,
                         schema: RelationalSchema) -> str:
    """The node type the inserted fragment lands under (public alias)."""
    return _static_parent_tag(operation, schema)


# ---------------------------------------------------------------------------
# Internals
# ---------------------------------------------------------------------------

def _fragment_elements(operation: InsertOperation) -> list[Element]:
    """All fragment elements in preorder (over every content item)."""
    elements: list[Element] = []
    for node in operation.content:
        if isinstance(node, Element):
            elements.extend(node.iter_elements())
    return elements


def _static_parent_tag(operation: InsertOperation,
                       schema: RelationalSchema) -> str:
    """The node type under which the fragment lands, from the select."""
    anchor_tag = _last_select_tag(operation.select)
    if operation.kind == "append":
        return anchor_tag
    if schema.is_root(anchor_tag):
        raise XUpdateError("cannot insert a sibling of the document root")
    parents = schema.parents_of(anchor_tag)
    if len(parents) != 1:
        raise XUpdateError(
            f"parent of {anchor_tag!r} is ambiguous in the schema: "
            f"{parents}")
    return parents[0]


def _last_select_tag(select: str) -> str:
    last = select.rstrip("/").split("/")[-1]
    tag = last.split("[")[0].strip()
    if not tag or tag.startswith("@") or tag in ("..", "."):
        raise XUpdateError(
            f"cannot determine the target node type of select {select!r}")
    return tag


def _shape_of(element: Element, schema: RelationalSchema) -> str:
    children = ",".join(
        _shape_of(child, schema) for child in element.element_children())
    attributes = "".join(
        f"@{name}" for name in sorted(element.attributes))
    inner = children + attributes
    return f"{element.tag}({inner})" if inner else element.tag


class _PatternBuilder:
    """Builds the pattern atoms, walking fragments in the same preorder
    as :func:`_fragment_elements` so binder indexes line up."""

    def __init__(self, schema: RelationalSchema, parent_tag: str) -> None:
        self.schema = schema
        self.parent_tag = parent_tag
        self.atoms: list[Atom] = []
        self.fresh: set[Parameter] = set()
        self.binding_specs: dict[str, BindingSpec] = {}
        self._used_names: set[str] = set()
        self._counter = 0
        self._parent_parameter: Parameter | None = None

    def _name(self, base: str, full: str) -> str:
        candidates = [base, full]
        suffix = 2
        for candidate in candidates:
            if candidate not in self._used_names:
                self._used_names.add(candidate)
                return candidate
        while f"{full}{suffix}" in self._used_names:
            suffix += 1
        name = f"{full}{suffix}"
        self._used_names.add(name)
        return name

    def parent_parameter(self) -> Parameter:
        if self._parent_parameter is None:
            name = self._name("i" + self.parent_tag[0],
                              "i_" + self.parent_tag)
            self._parent_parameter = Parameter(name)
            self.binding_specs[name] = ("node", "parent")
        return self._parent_parameter

    def add_top_level(self, element: Element) -> None:
        self._add_element(element, self.parent_tag, None)

    def _add_element(self, element: Element, parent_tag: str,
                     parent_id: Parameter | None) -> None:
        tag = element.tag
        index = self._counter
        self._counter += 1
        if self.schema.is_inlined(parent_tag, tag):
            # carried as a column of the parent's atom; text-only, so it
            # has no element descendants to enumerate
            return
        if not self.schema.has_predicate(tag):
            raise XUpdateError(
                f"inserted element <{tag}> is unknown to the schema")
        predicate = self.schema.predicate_for(tag)
        if parent_tag not in predicate.parent_tags \
                and not self.schema.is_root(parent_tag):
            raise XUpdateError(
                f"<{tag}> cannot occur under <{parent_tag}>")
        id_name = self._name("i" + tag[0], "i_" + tag)
        id_param = Parameter(id_name)
        self.fresh.add(id_param)
        pos_name = self._name("p" + tag[0], "p_" + tag)
        pos_param = Parameter(pos_name)
        self.binding_specs[pos_name] = ("position", index)
        if parent_id is not None:
            parent_term: Term = parent_id
        else:
            parent_term = self.parent_parameter()
        args: list[Term] = [id_param, pos_param, parent_term]
        for column in predicate.value_columns():
            args.append(self._column_term(element, column, index))
        self.atoms.append(Atom(tag, tuple(args)))
        for child in element.element_children():
            self._add_element(child, tag, id_param)

    def _column_term(self, element: Element, column,
                     index: int) -> Term:
        if column.kind == "text_child":
            child = element.first_child(column.source or "")
            if child is None:
                return Constant(None)
            name = self._name(column.source[0], column.source)
            self.binding_specs[name] = ("value", index, column.source)
            return Parameter(name)
        if column.kind == "attribute":
            if (column.source or "") not in element.attributes:
                return Constant(None)
            name = self._name(column.source[0], "a_" + column.source)
            self.binding_specs[name] = ("value", index, "@" + column.source)
            return Parameter(name)
        assert column.kind == "text"
        name = self._name("x" + element.tag[0], "x_" + element.tag)
        self.binding_specs[name] = ("value", index, "#text")
        return Parameter(name)


# ---------------------------------------------------------------------------
# Transactions (deferred checking for multi-operation documents)
# ---------------------------------------------------------------------------

@dataclass
class AnalyzedTransaction:
    """A multi-insertion transaction as one update pattern (Def. 2).

    The paper's updates are *sets* of added tuples, and checking is
    deferred — constraints need not hold in intermediate states.  A
    modification document with several ``append`` operations is
    analyzed as the union of the per-operation patterns (parameters
    renamed apart), so ``Simp`` specializes the constraints w.r.t. the
    whole transaction and the guard checks it once, before executing
    anything.
    """

    signatures: tuple[UpdateSignature, ...]
    pattern: UpdatePattern
    hypotheses: list[Denial]
    parts: list[tuple[AnalyzedUpdate, dict[str, str]]]

    def bind(self, operations: list[InsertOperation],
             resolve_document) -> dict[str, object]:
        """Combined parameter bindings for the concrete operations.

        Positions of later appends to the *same* parent are shifted by
        the number of earlier appends targeting it, since all bindings
        are computed against the pre-transaction state.
        """
        if len(operations) != len(self.parts):
            raise XUpdateError(
                "transaction shape does not match the analyzed pattern")
        bindings: dict[str, object] = {}
        appended_so_far: dict[int, int] = {}  # parent node id → count
        for operation, (analyzed, renaming) in zip(operations, self.parts):
            document = resolve_document(operation)
            local = analyzed.bind(document, operation)
            from repro.xupdate.apply import resolve_select
            parent = resolve_select(document, operation.select)
            offset = appended_so_far.get(parent.node_id or -1, 0)
            top_level = sum(
                1 for node in operation.content
                if isinstance(node, Element))
            for name, value in local.items():
                renamed = renaming.get(name, name)
                spec = analyzed.binding_specs.get(name)
                if offset and spec and spec[0] == "position":
                    index = spec[1]
                    element = _fragment_elements(operation)[index]
                    if element.parent is None:  # a top-level fragment node
                        value = value + offset  # type: ignore[operator]
                bindings[renamed] = value
            appended_so_far[parent.node_id or -1] = offset + top_level
        return bindings


def analyze_transaction(operations: "list[Operation]",
                        schema: RelationalSchema) -> AnalyzedTransaction:
    """Analyze a multi-operation document as one insertion pattern.

    Restricted to all-``append`` transactions: their selects resolve
    against the pre-transaction state and the only structural
    interference between operations — later positions under a shared
    parent — is compensated at bind time.  Anything else raises
    :class:`repro.errors.SimplificationError` (brute-force fallback).
    """
    inserts: list[InsertOperation] = []
    for operation in operations:
        if not isinstance(operation, InsertOperation) \
                or operation.kind != "append":
            raise SimplificationError(
                "only all-append transactions are analyzed as one "
                "pattern")
        inserts.append(operation)
    if len(inserts) < 2:
        raise SimplificationError(
            "transactions need at least two operations; use "
            "analyze_operation for single updates")
    atoms: list[Atom] = []
    fresh: set[Parameter] = set()
    hypotheses: list[Denial] = []
    parts: list[tuple[AnalyzedUpdate, dict[str, str]]] = []
    signatures: list[UpdateSignature] = []
    used_names: set[str] = set()
    for index, operation in enumerate(inserts):
        analyzed = analyze_operation(operation, schema)
        signatures.append(analyzed.signature)
        renaming: dict[str, str] = {}
        for parameter in sorted(analyzed.pattern.parameters(),
                                key=lambda p: p.name):
            name = parameter.name
            candidate = name
            suffix = index + 1
            while candidate in used_names:
                candidate = f"{name}_{suffix}"
                suffix += len(inserts)
            used_names.add(candidate)
            renaming[name] = candidate
        from repro.datalog.subst import ParameterBinding
        binder = ParameterBinding({
            Parameter(old): Parameter(new)
            for old, new in renaming.items()
        })
        for atom in analyzed.pattern.additions:
            atoms.append(binder.apply_literal(atom))  # type: ignore[arg-type]
        fresh |= {Parameter(renaming[p.name])
                  for p in analyzed.pattern.fresh_parameters}
        for hypothesis in analyzed.hypotheses:
            hypotheses.append(Denial(tuple(
                binder.apply_literal(literal)
                for literal in hypothesis.body)))
        parts.append((analyzed, renaming))
    pattern = UpdatePattern(tuple(atoms), frozenset(fresh),
                            name="+".join(str(s) for s in signatures))
    return AnalyzedTransaction(tuple(signatures), pattern, hypotheses,
                               parts)
