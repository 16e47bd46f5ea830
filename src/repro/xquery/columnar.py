"""Set-at-a-time evaluation of planned quantifiers: the planner's one
way to evaluate a ``some``.

The planner (:mod:`repro.xquery.planner`) chooses a binding order;
this module lowers it to a *frontier* pipeline in which each level is
one operation over a whole column of candidate rows —

* ``_Down`` — a chain of child steps,
  :meth:`~repro.xtree.node.Element.element_children`: the DOM's
  child lists are the ``IdParent`` lookup;
* ``_Values`` — a trailing ``text()``/attribute step, served by the
  value index's atoms, one row per atom, carried as canonical
  hash-key sets;
* ``_Parent`` — the parent step (DOM parent pointers);
* ``_Join`` — an uncorrelated ``//tag`` source with an equality
  conjunct, probed against the value index;
* ``_Probe`` — a named child step ``$x in $p/tag`` with an equality
  conjunct on a downpath of ``$x``: the value index of ``//tag`` is
  probed once per distinct key set and its hits grouped by parent, so
  a row emits only its ``$p``'s matching children (the mapping's
  ``IdParent`` equi-join).  A cost gate keeps ``_Down`` plus a key
  filter when one key is estimated to hit more elements than the
  expansion would visit;
* ``_Eval`` — any other source, through its compiled closure: run
  once and cross-expanded when it reads no variable of the quantifier
  (a ``//tag`` scan, an outer parameter such as
  ``$__p_ir/name/text()``), else once per distinct row with the row's
  variables bound.

Value indexes come from one accessor,
:func:`repro.relational.columns.value_index`: the document's own
delta-maintained :class:`~repro.relational.columns.PathIndex`.

Conjuncts become filters.  An ``=`` between key-space sides — a bare
variable, a plain downpath from one, an expression free of the
quantifier's variables — is a *key filter*: by the
:func:`repro.xquery.optimizer.hash_keys` invariant, two atoms
general-compare equal iff the index-side keys of one meet the
probe-side keys of the other, so equality is decided by key-set
intersection.  Every other conjunct (``<``, ``!=``, aggregates such as
``count(…) >= 3``, nested quantifiers) is a *row filter*: its truth
closure, compiled once, runs per surviving row with the row's
variables bound in the runtime environment.  A variable that a row
filter or another binding's source reads is carried as items, never as
key sets.

``every`` arrives here as ``not(some … satisfies not(…))``.  Lowering
refuses only a quantifier that binds one name twice, and a frontier
beyond :data:`_FRONTIER_CAP` rows raises :class:`Bail`; the planner
sends either to the reference engine (verdict parity is the
differential suite's job).

The dependency runs one way: the planner imports this module, and this
module imports nothing from the planner.  :func:`lower_some` takes the
closures it needs from the plan it is handed (``pl.compile(expr)`` for
a value, ``pl.truth(expr)`` for an effective boolean value, ``pl.stats``
for the cost gate), and :class:`Runtime`, the state every compiled
closure runs on, lives here.
"""

from __future__ import annotations

from typing import Callable

from repro.relational import columns
from repro.xquery.ast import BinaryOp, Expression, PathExpr, VarRef
from repro.xquery.engine import QueryContext
from repro.xquery.optimizer import (
    SIMPLE_STEP_NODETESTS,
    free_variables,
    hash_keys,
    join_equality,
    matching_keys,
    probe_keys,
    simple_descendant_tag,
    var_downpath,
)
from repro.xquery.values import Sequence, atomize
from repro.xtree.node import Document, Element, Text

#: frontiers beyond this many rows raise :class:`Bail`, and the
#: quantifier is evaluated by the reference engine instead
_FRONTIER_CAP = 200_000

_MISSING = object()

Downpath = tuple[tuple[str, str], ...]


class Bail(Exception):
    """Raised mid-run when vectorized evaluation cannot proceed."""


class Runtime:
    """Mutable evaluation state threaded through compiled closures.

    Where the engine copies a frozen context per binding, compiled
    plans share one environment dict and set/restore keys around each
    loop level.  :meth:`context` bridges into the reference engine for
    constructs outside the compiled fragment — the engine's
    copy-on-write variable handling makes sharing the dict safe.
    """

    __slots__ = ("documents", "env", "item", "profile", "backends",
                 "fallback")

    def __init__(self, documents: tuple[Document, ...],
                 env: dict[str, Sequence]) -> None:
        self.documents = documents
        self.env = env
        self.item: object | None = None
        #: (quantifier, binding) key → [items examined, tuples passed];
        #: populated by explain runs only
        self.profile: dict[tuple, list[int]] | None = None
        #: (quantifier index, backend, reason) records; populated when
        #: an explain run sets it to a list
        self.backends: list[tuple[int, str, str | None]] | None = None
        #: the evaluation error that sent this run to the engine
        self.fallback: str | None = None

    def context(self) -> QueryContext:
        return QueryContext(self.documents, self.env, self.item)


def _index_of(indexes: dict, element: Element, tag: str | None,
              steps: Downpath):
    """The value index serving ``element/steps``, if one applies;
    ``indexes`` memoises it per document for one call."""
    document = element.document
    if tag is None or element.tag != tag or document is None:
        return None
    index = indexes.get(id(document))
    if index is None:
        index = indexes[id(document)] = columns.value_index(
            document, tag, steps)
    return index


# ---------------------------------------------------------------------------
# Key-filter sides (``=`` conjuncts and join probes)
# ---------------------------------------------------------------------------
#
# ``keys_fn(rt, cols, probe)`` returns row → key set: the index-side
# keys of the row's atoms, or with ``probe`` the keys they match
# (:func:`repro.xquery.optimizer.matching_keys`).  An ``=`` holds on a
# row iff one side's index form meets the other's probe form.  Memos
# are keyed by ``id`` and live for one call, while the column holds
# every item alive.

def _keys(sequence: list, probe: bool) -> frozenset:
    if probe:
        return probe_keys(sequence)
    return frozenset(key for atom in atomize(sequence)
                     for key in hash_keys(atom))


class _SideVar:
    """A bare quantifier variable: keys from its frontier column."""

    __slots__ = ("name", "is_keys")

    def __init__(self, name: str, is_keys: bool) -> None:
        self.name = name
        self.is_keys = is_keys

    def refs(self) -> frozenset[str]:
        return frozenset((self.name,))

    def keys_fn(self, rt: Runtime, cols: dict[str, list],
                probe: bool) -> Callable[[int], frozenset]:
        column = cols[self.name]
        if self.is_keys:
            if not probe:
                return column.__getitem__
            matching: dict[frozenset, frozenset] = {}

            def matching_of(i: int) -> frozenset:
                keys = column[i]
                matched = matching.get(keys)
                if matched is None:
                    matched = matching[keys] = matching_keys(keys)
                return matched
            return matching_of
        memo: dict[int, frozenset] = {}

        def keys_of(i: int) -> frozenset:
            item = column[i]
            keys = memo.get(id(item))
            if keys is None:
                keys = memo[id(item)] = _keys([item], probe)
            return keys
        return keys_of


class _SidePath:
    """A plain downpath rooted at a quantifier variable.

    Served by the value index when the variable's tag is known
    statically; computed per distinct item otherwise — the formula is
    identical either way (``atomize`` × ``hash_keys``).
    """

    __slots__ = ("name", "steps", "tag")

    def __init__(self, name: str, steps: Downpath,
                 tag: str | None) -> None:
        self.name = name
        self.steps = steps
        self.tag = tag

    def refs(self) -> frozenset[str]:
        return frozenset((self.name,))

    def keys_fn(self, rt: Runtime, cols: dict[str, list],
                probe: bool) -> Callable[[int], frozenset]:
        column = cols[self.name]
        memo: dict[int, frozenset] = {}
        indexes: dict[int, object] = {}
        tag = self.tag
        steps = self.steps

        def keys_of(i: int) -> frozenset:
            item = column[i]
            keys = memo.get(id(item))
            if keys is not None:
                return keys
            if not isinstance(item, Element):
                keys = frozenset()
            else:
                index = _index_of(indexes, item, tag, steps)
                if index is None:
                    keys = _keys(
                        columns.eval_downpath(steps, item), probe)
                else:
                    keys = index.flat_keys(item.node_id or -1)
                    if probe:
                        keys = matching_keys(keys)
            memo[id(item)] = keys
            return keys
        return keys_of


class _SideConst:
    """An expression free of the quantifier's variables: evaluated once
    per run."""

    __slots__ = ("closure",)

    def __init__(self, closure: Callable) -> None:
        self.closure = closure

    def refs(self) -> frozenset[str]:
        return frozenset()

    def keys_fn(self, rt: Runtime, cols: dict[str, list],
                probe: bool) -> Callable[[int], frozenset]:
        keys = _keys(self.closure(rt), probe)
        return lambda i: keys


class _RowFilter:
    """Any other conjunct: its truth closure, per row."""

    __slots__ = ("truth", "names")

    def __init__(self, truth: Callable, names: tuple[str, ...]) -> None:
        self.truth = truth
        self.names = names

    def refs(self) -> frozenset[str]:
        return frozenset(self.names)

    def holds_fn(self, rt: Runtime,
                 cols: dict[str, list]) -> Callable[[int], bool]:
        """Row → truth, with the row's variables bound in ``rt.env``
        for the call (the caller restores the environment)."""
        env = rt.env
        truth = self.truth
        columns = [(name, cols[name]) for name in self.names]

        def holds(i: int) -> bool:
            for name, column in columns:
                env[name] = [column[i]]
            return truth(rt)
        return holds


def _bound_env(rt: Runtime, names) -> dict:
    """The environment entries that binding ``names`` will overwrite."""
    return {name: rt.env.get(name, _MISSING) for name in names}


def _restore_env(rt: Runtime, saved: dict) -> None:
    for name, value in saved.items():
        if value is _MISSING:
            rt.env.pop(name, None)
        else:
            rt.env[name] = value


# ---------------------------------------------------------------------------
# Frontier operations (one per binding, in the planner's chosen order)
# ---------------------------------------------------------------------------

class _Down:
    """A chain of named child steps from an element variable."""

    __slots__ = ("name", "source", "tags")
    kind = "correlated scan"

    def __init__(self, name: str, source: str,
                 tags: tuple[str, ...]) -> None:
        self.name = name
        self.source = source
        self.tags = tags

    def refs(self) -> frozenset[str]:
        return frozenset((self.source,))

    def expand(self, rt: Runtime, cols: dict[str, list],
               count: int) -> tuple[list[int], list]:
        column = cols[self.source]
        take: list[int] = []
        values: list = []
        memo: dict[int, list] = {}
        for i in range(count):
            item = column[i]
            current = memo.get(id(item))
            if current is None:
                if isinstance(item, Element):
                    current = [item]
                    for tag in self.tags:
                        current = [
                            child for element in current
                            for child in element.element_children(tag)]
                        if not current:
                            break
                else:
                    current = []
                memo[id(item)] = current
            for child in current:
                take.append(i)
                values.append(child)
        return take, values


class _Values:
    """A value-producing downpath (trailing ``text()``/attribute).

    One row per atom; the carried value is the atom's index-side
    hash-key set, which is all a key filter or a join probe needs.
    """

    __slots__ = ("name", "source", "steps", "source_tag")
    kind = "correlated scan"

    def __init__(self, name: str, source: str, steps: Downpath,
                 source_tag: str | None) -> None:
        self.name = name
        self.source = source
        self.steps = steps
        self.source_tag = source_tag

    def refs(self) -> frozenset[str]:
        return frozenset((self.source,))

    def expand(self, rt: Runtime, cols: dict[str, list],
               count: int) -> tuple[list[int], list]:
        column = cols[self.source]
        take: list[int] = []
        values: list = []
        memo: dict[int, list[frozenset]] = {}
        indexes: dict[int, object] = {}
        for i in range(count):
            item = column[i]
            key_sets = memo.get(id(item))
            if key_sets is None:
                if not isinstance(item, Element):
                    atoms: tuple = ()
                else:
                    index = _index_of(indexes, item,
                                      self.source_tag, self.steps)
                    if index is not None:
                        atoms = index.atoms_of.get(
                            item.node_id or -1, ())
                    else:
                        atoms = tuple(
                            tuple(hash_keys(atom)) for atom in atomize(
                                columns.eval_downpath(self.steps, item)))
                key_sets = [frozenset(atom) for atom in atoms]
                memo[id(item)] = key_sets
            for keys in key_sets:
                take.append(i)
                values.append(keys)
        return take, values


class _Parent:
    """The parent step from a node variable."""

    __slots__ = ("name", "source")
    kind = "correlated scan"

    def __init__(self, name: str, source: str) -> None:
        self.name = name
        self.source = source

    def refs(self) -> frozenset[str]:
        return frozenset((self.source,))

    def expand(self, rt: Runtime, cols: dict[str, list],
               count: int) -> tuple[list[int], list]:
        column = cols[self.source]
        take: list[int] = []
        values: list = []
        for i in range(count):
            item = column[i]
            parent = item.parent if isinstance(item, (Element, Text)) \
                else None
            if parent is not None:
                take.append(i)
                values.append(parent)
        return take, values


class _Eval:
    """Any source, through its compiled closure.

    With no quantifier variable in ``names`` the source is evaluated
    once and cross-expanded; otherwise once per distinct combination
    of the row's ``names`` values, bound in ``rt.env``.
    """

    __slots__ = ("name", "closure", "names", "kind")

    def __init__(self, name: str, closure: Callable,
                 names: tuple[str, ...]) -> None:
        self.name = name
        self.closure = closure
        self.names = names
        self.kind = "correlated scan" if names else "scan"

    def refs(self) -> frozenset[str]:
        return frozenset(self.names)

    def expand(self, rt: Runtime, cols: dict[str, list],
               count: int) -> tuple[list[int], list]:
        if not self.names:
            items = list(self.closure(rt))
            if count == 1:
                return [0] * len(items), items
            if count * len(items) > _FRONTIER_CAP:
                raise Bail("constant cross-expansion exceeds frontier cap")
            return ([i for i in range(count) for _ in items],
                    items * count)
        columns = [(name, cols[name]) for name in self.names]
        env = rt.env
        saved = _bound_env(rt, self.names)
        take: list[int] = []
        values: list = []
        memo: dict[tuple, list] = {}
        try:
            for i in range(count):
                row = tuple(id(column[i]) for _, column in columns)
                items = memo.get(row)
                if items is None:
                    for name, column in columns:
                        env[name] = [column[i]]
                    items = memo[row] = list(self.closure(rt))
                for item in items:
                    take.append(i)
                    values.append(item)
                if len(values) > _FRONTIER_CAP:
                    raise Bail("frontier exceeds row cap")
        finally:
            _restore_env(rt, saved)
        return take, values


class _Join:
    """An uncorrelated ``//tag`` source probed through a value index:
    a whole frontier column per call."""

    __slots__ = ("name", "tag", "steps", "probe")
    kind = "hash join"

    def __init__(self, name: str, tag: str, steps: Downpath,
                 probe: object) -> None:
        self.name = name
        self.tag = tag
        self.steps = steps
        self.probe = probe

    def refs(self) -> frozenset[str]:
        return self.probe.refs()  # type: ignore[attr-defined]

    def expand(self, rt: Runtime, cols: dict[str, list],
               count: int) -> tuple[list[int], list]:
        indexes = [columns.value_index(document, self.tag, self.steps)
                   for document in rt.documents]
        keys_of = self.probe.keys_fn(rt, cols, True)  # type: ignore
        take: list[int] = []
        values: list = []
        matched_memo: dict[frozenset, list[Element]] = {}
        for i in range(count):
            keys = keys_of(i)
            matched = matched_memo.get(keys)
            if matched is None:
                matched = matched_memo[keys] = columns.probe(
                    indexes, keys)
            for element in matched:
                take.append(i)
                values.append(element)
        return take, values


class _Probe:
    """A key-filtered named child step, ``$x in $p/tag`` with
    ``$x/steps = probe``: the §4.1 ``IdParent`` equi-join through the
    value index of ``//tag``.

    Per distinct probe key set, the index hits are grouped by parent
    once; a row emits its ``$p``'s group, never visiting the children
    the key rules out.  The ``=`` is consumed, so its key-space
    semantics are :class:`_Join`'s.  A row whose ``$p`` is in no
    runtime document (a detached fragment) has no index to ask and
    expands and filters its children instead.
    """

    __slots__ = ("name", "source", "tag", "steps", "probe")
    kind = "correlated probe"

    def __init__(self, name: str, source: str, tag: str, steps: Downpath,
                 probe: object) -> None:
        self.name = name
        self.source = source
        self.tag = tag
        self.steps = steps
        self.probe = probe

    def refs(self) -> frozenset[str]:
        return self.probe.refs() | {self.source}  # type: ignore

    def expand(self, rt: Runtime, cols: dict[str, list],
               count: int) -> tuple[list[int], list]:
        column = cols[self.source]
        keys_of = self.probe.keys_fn(rt, cols, True)  # type: ignore
        indexed = {id(document) for document in rt.documents}
        indexes: list | None = None
        groups_memo: dict[frozenset, dict[int, list[Element]]] = {}
        take: list[int] = []
        values: list = []
        for i in range(count):
            parent = column[i]
            if not isinstance(parent, Element):
                continue
            keys = keys_of(i)
            if id(parent.document) in indexed:
                groups = groups_memo.get(keys)
                if groups is None:
                    if indexes is None:
                        indexes = [columns.value_index(
                            document, self.tag, self.steps)
                            for document in rt.documents]
                    groups = groups_memo[keys] = {}
                    for element in columns.probe(indexes, keys):
                        groups.setdefault(id(element.parent),
                                          []).append(element)
                children = groups.get(id(parent), ())
            else:
                children = [
                    child for child in parent.element_children(self.tag)
                    if not keys.isdisjoint(
                        _keys(columns.eval_downpath(self.steps, child),
                              False))]
            for child in children:
                take.append(i)
                values.append(child)
        return take, values


# ---------------------------------------------------------------------------
# Levels and the compiled vector plan
# ---------------------------------------------------------------------------

class _Level:
    """One binding: expand, filter, project, dedup.

    ``carry`` is every variable the level itself needs materialized
    (filter sides plus downstream ``keep``); ``keep`` is what survives
    into the next level.  ``typed`` marks the kept columns that may
    hold atoms, which dedup by type as well as value (``1``, ``1.0``
    and ``true()`` are one Python key, not one XQuery value).
    """

    __slots__ = ("op", "filters", "checks", "bound", "keep", "carry",
                 "typed")

    def __init__(self, op, filters: list[tuple],
                 checks: list[_RowFilter], keep: tuple[str, ...],
                 carry: tuple[str, ...], typed: tuple[bool, ...]) -> None:
        self.op = op
        self.filters = filters
        self.checks = checks
        #: the variables the row filters bind in ``rt.env``
        self.bound = tuple(sorted({name for check in checks
                                   for name in check.names}))
        self.keep = keep
        self.carry = carry
        self.typed = typed

    def apply(self, rt: Runtime, cols: dict[str, list], count: int,
              qindex: int, level: int) -> tuple[dict[str, list], int]:
        take, values = self.op.expand(rt, cols, count)
        total = len(values)
        if total > _FRONTIER_CAP:
            raise Bail("frontier exceeds row cap")
        profile = rt.profile
        counters = None if profile is None \
            else profile.setdefault((qindex, level), [0, 0])
        if counters is not None:
            counters[0] += total
        name = self.op.name
        expanded = {variable: [cols[variable][i] for i in take]
                    for variable in self.carry if variable != name}
        expanded[name] = values
        if not self.keep:
            # Nothing survives this level: the frontier collapses to a
            # single witness row, and filters can short-circuit on the
            # first surviving row.
            survived = self._any_row(rt, expanded, total)
            if counters is not None:
                counters[1] += 1 if survived else 0
            return {}, (1 if survived else 0)
        kept: list[int] | None = None  # None = every row survives
        for left, right in self.filters:
            left_of = left.keys_fn(rt, expanded, False)
            right_of = right.keys_fn(rt, expanded, True)
            candidates = range(total) if kept is None else kept
            kept = [i for i in candidates
                    if not left_of(i).isdisjoint(right_of(i))]
        if self.checks:
            saved = _bound_env(rt, self.bound)
            try:
                for check in self.checks:
                    holds = check.holds_fn(rt, expanded)
                    candidates = range(total) if kept is None else kept
                    kept = [i for i in candidates if holds(i)]
            finally:
                _restore_env(rt, saved)
        if kept is None:
            projected = {variable: expanded[variable]
                         for variable in self.keep}
            count = total
        else:
            projected = {variable: [expanded[variable][i] for i in kept]
                         for variable in self.keep}
            count = len(kept)
        if counters is not None:
            counters[1] += count
        # Dedup rows over the projected variables: expansion is
        # multiplicative, and truth only needs one witness per
        # combination of values still in play.
        if count > 1:
            columns = [
                [(type(item), item) for item in projected[variable]]
                if typed else projected[variable]
                for variable, typed in zip(self.keep, self.typed)]
            seen: set = set()
            rows: list[int] = []
            for i, row in enumerate(zip(*columns) if len(columns) > 1
                                    else columns[0]):
                if row not in seen:
                    seen.add(row)
                    rows.append(i)
            if len(rows) != count:
                projected = {variable: [projected[variable][i]
                                        for i in rows]
                             for variable in self.keep}
                count = len(rows)
        return projected, count

    def _any_row(self, rt: Runtime, expanded: dict[str, list],
                 total: int) -> bool:
        """Whether any row survives every filter (early exit)."""
        sides = [(left.keys_fn(rt, expanded, False),
                  right.keys_fn(rt, expanded, True))
                 for left, right in self.filters]
        if not self.checks:
            if not sides:
                return total > 0
            if len(sides) == 1:
                left_of, right_of = sides[0]
                for i in range(total):
                    if not left_of(i).isdisjoint(right_of(i)):
                        return True
                return False
            for i in range(total):
                if all(not left_of(i).isdisjoint(right_of(i))
                       for left_of, right_of in sides):
                    return True
            return False
        saved = _bound_env(rt, self.bound)
        try:
            checks = [check.holds_fn(rt, expanded) for check in self.checks]
            for i in range(total):
                for left_of, right_of in sides:
                    if left_of(i).isdisjoint(right_of(i)):
                        break
                else:
                    for holds in checks:
                        if not holds(i):
                            break
                    else:
                        return True
            return False
        finally:
            _restore_env(rt, saved)


class VectorSome:
    """The vectorized form of one ``some`` quantifier."""

    __slots__ = ("levels", "qindex")

    def __init__(self, levels: list[_Level], qindex: int) -> None:
        self.levels = levels
        self.qindex = qindex

    def run(self, rt: Runtime) -> bool:
        """Existential truth by frontier evaluation.

        Raises :class:`Bail` when the frontier outgrows the cap; the
        caller falls back to the reference engine.
        """
        cols: dict[str, list] = {}
        count = 1
        for level, spec in enumerate(self.levels):
            cols, count = spec.apply(rt, cols, count, self.qindex, level)
            if count == 0:
                return False
        return True


# ---------------------------------------------------------------------------
# Lowering
# ---------------------------------------------------------------------------

def lower_some(bindings, name_set: frozenset[str], qindex: int,
               pl) -> "tuple[VectorSome | None, str | None]":
    """Lower one planned ``some`` quantifier to a vector plan.

    ``bindings`` is ``(name, source, factors, (estimate, rows))`` per
    binding, in the planner's chosen order: the conjuncts that become
    decidable once it is bound, the source's estimated cardinality
    and the frontier rows estimated to reach it.  ``pl`` is the
    planner's compilation context: ``pl.compile``/``pl.truth`` give
    the source and row-filter closures, ``pl.stats`` the statistics.
    Returns ``(plan, None)`` or ``(None, reason)``.
    """
    names = [name for name, _, _, _ in bindings]
    if len(set(names)) != len(names):
        return None, "duplicate binding variable"
    # A variable is carried as key sets only if nothing but a key
    # filter's bare side reads it.
    items_read: set[str] = set()
    for _, source, factors, _ in bindings:
        items_read |= free_variables(source) & name_set
        for factor in factors:
            sides = _key_sides(factor, name_set)
            if sides is None:
                items_read |= free_variables(factor) & name_set
            else:
                items_read.update(
                    root for root in (_path_root(side, name_set)
                                      for side in sides)
                    if root is not None)
    kinds: dict[str, tuple[str, str | None]] = {}
    lowered: list[tuple] = []
    for index, (name, source, factors, estimates) in enumerate(bindings):
        op, consumed = _lower_binding(
            name, source, factors, set(names[:index]), kinds,
            name in items_read, name_set, pl, estimates)
        filters: list[tuple] = []
        checks: list[_RowFilter] = []
        for factor in factors:
            if factor is consumed:
                continue
            sides = _key_sides(factor, name_set)
            if sides is not None:
                filters.append(tuple(_lower_side(side, kinds, name_set, pl)
                                     for side in sides))
            else:
                checks.append(_RowFilter(
                    pl.truth(factor),
                    tuple(sorted(free_variables(factor) & name_set))))
        lowered.append((op, filters, checks))
    needed: frozenset[str] = frozenset()
    shapes: list[tuple[tuple[str, ...], tuple[str, ...]]] = []
    for op, filters, checks in reversed(lowered):
        keep = tuple(sorted(needed))
        side_refs: frozenset[str] = frozenset()
        for left, right in filters:
            side_refs |= left.refs() | right.refs()
        for check in checks:
            side_refs |= check.refs()
        carry = tuple(sorted(set(keep) | side_refs))
        shapes.append((keep, carry))
        needed = (needed | side_refs | op.refs()) - {op.name}
    shapes.reverse()
    levels = [
        _Level(op, filters, checks, keep, carry,
               tuple(kinds[variable][0] == "items" for variable in keep))
        for (op, filters, checks), (keep, carry)
        in zip(lowered, shapes)]
    return VectorSome(levels, qindex), None


def _key_sides(factor: Expression, name_set: frozenset[str]
               ) -> "tuple[Expression, Expression] | None":
    """``(left, right)`` when ``factor`` is an ``=`` decidable in key
    space, else None (a row filter)."""
    if not isinstance(factor, BinaryOp) or factor.op != "=":
        return None
    for side in (factor.left, factor.right):
        if isinstance(side, VarRef) and side.name in name_set:
            continue
        root = _path_root(side, name_set)
        if root is not None:
            if var_downpath(side, root) is None:
                return None
            continue
        if free_variables(side) & name_set:
            return None
    return factor.left, factor.right


def _path_root(side: Expression, name_set: frozenset[str]) -> str | None:
    """The quantifier variable a path side starts at, if any."""
    if isinstance(side, PathExpr) and isinstance(side.start, VarRef) \
            and side.start.name in name_set:
        return side.start.name
    return None


def _lower_side(side: Expression, kinds: dict, name_set: frozenset[str],
                pl) -> "_SideVar | _SidePath | _SideConst":
    if isinstance(side, VarRef) and side.name in name_set:
        return _SideVar(side.name, kinds[side.name][0] == "keys")
    root = _path_root(side, name_set)
    if root is not None:
        return _SidePath(root, var_downpath(side, root),
                         kinds[root][1])
    return _SideConst(pl.compile(side))


def _lower_binding(name: str, source: Expression, factors: list,
                   bound: set[str], kinds: dict, as_items: bool,
                   name_set: frozenset[str], pl,
                   estimates: tuple[float, float]) -> tuple[object, object]:
    """``(op, consumed factor)``; records the variable's kind:
    ``keys`` (hash-key sets), ``nodes`` (of a known tag, or None) or
    ``items`` (anything a source yields)."""
    correlated = free_variables(source) & name_set
    tag = simple_descendant_tag(source)
    if tag is not None and not correlated:
        kinds[name] = ("nodes", tag)
        keyed = _key_equality(name, factors, bound, name_set)
        if keyed is not None:
            factor, steps, probe = keyed
            return _Join(name, tag, steps,
                         _lower_side(probe, kinds, name_set, pl)), factor
        return _Eval(name, pl.compile(source), ()), None
    probed = _lower_probe(name, source, factors, bound, kinds, name_set,
                          pl, estimates)
    if probed is not None:
        return probed
    op = _lower_navigation(name, source, kinds, as_items)
    if op is not None:
        return op, None
    kinds[name] = ("items", None)
    return _Eval(name, pl.compile(source),
                 tuple(sorted(correlated))), None


def _lower_probe(name: str, source: Expression, factors: list,
                 bound: set[str], kinds: dict, name_set: frozenset[str], pl,
                 estimates: tuple[float, float]) -> "tuple | None":
    """``(_Probe, consumed factor)`` for a key-filtered named child
    step ``$x in $p/tag``, or None.

    The cost gate keeps expand + filter when a probe key's estimated
    index hits (``count(tag) / distinct keys``) exceed the children the
    expansion would visit (upstream rows × fan-out): for a one-row
    check, when a key is shared by more elements than one parent has
    children.
    """
    if not isinstance(source, PathExpr) \
            or not isinstance(source.start, VarRef) \
            or len(source.steps) != 1 or source.descendant_flags[0]:
        return None
    root = source.start.name
    step = source.steps[0]
    if kinds.get(root, ("",))[0] != "nodes" or step.axis != "child" \
            or step.predicates \
            or step.nodetest in SIMPLE_STEP_NODETESTS:
        return None
    keyed = _key_equality(name, factors, bound, name_set)
    if keyed is None:
        return None
    factor, steps, probe = keyed
    tag = step.nodetest
    stats = pl.stats
    fanout, rows = estimates
    if stats.count(tag) / stats.key_distinct(tag, steps) > rows * fanout:
        return None
    kinds[name] = ("nodes", tag)
    return _Probe(name, root, tag, steps,
                  _lower_side(probe, kinds, name_set, pl)), factor


def _key_equality(name: str, factors: list, bound: set[str],
                  name_set: frozenset[str]) -> "tuple | None":
    """``(factor, steps, probe side)``: the key-space ``=`` conjunct
    that keys ``$name`` by a plain downpath ``steps`` against values
    already ``bound``, or None."""
    equality = join_equality(name, bound, name_set, factors)
    if equality is None or _key_sides(equality[0], name_set) is None:
        return None
    steps = var_downpath(equality[1], name)
    if steps is None:
        return None
    return equality[0], steps, equality[2]


def _lower_navigation(name: str, source: Expression, kinds: dict,
                      as_items: bool) -> object | None:
    """A child/parent/value step from a node variable, or None (also
    for a value step whose variable must be carried ``as_items``)."""
    if not isinstance(source, PathExpr) \
            or not isinstance(source.start, VarRef):
        return None
    root = source.start.name
    if kinds.get(root, ("",))[0] != "nodes":
        return None
    root_tag = kinds[root][1]
    steps = source.steps
    if len(steps) == 1 and steps[0].axis == "parent" \
            and not steps[0].predicates \
            and not any(source.descendant_flags):
        kinds[name] = ("nodes", None)
        return _Parent(name, root)
    downpath = var_downpath(source, root)
    if downpath is None:
        return None
    last_axis, last_test = downpath[-1]
    if any(axis != "child" or nodetest == "text()"
           for axis, nodetest in downpath[:-1]):
        return None
    if last_axis == "attribute" or last_test == "text()":
        if as_items:
            return None
        kinds[name] = ("keys", None)
        return _Values(name, root, downpath, root_tag)
    kinds[name] = ("nodes", last_test)
    return _Down(name, root, tuple(nodetest for _, nodetest in downpath))
