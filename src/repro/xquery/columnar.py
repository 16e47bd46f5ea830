"""Set-at-a-time evaluation of planned quantifiers over column stores.

The planner's tuple-at-a-time search (``_compile_some``) walks one
nested-loop tree per candidate tuple.  This module lowers the same
chosen binding order to a *frontier* pipeline: each level is one
vectorized operation over a whole column of candidate rows —

* ``_Scan`` — all elements of a tag, straight from the column store's
  :class:`~repro.relational.columns.TagTable`;
* ``_Down`` — a chain of child steps,
  :meth:`~repro.xtree.node.Element.element_children`: the DOM's
  child lists are the ``IdParent`` lookup;
* ``_Values`` — a trailing ``text()``/attribute step, served by the
  store's :class:`~repro.relational.columns.PathIndex` atoms, one row
  per atom, carried as canonical hash-key sets;
* ``_Parent`` — the parent step (DOM parent pointers);
* ``_Const`` — a quantifier-variable-free source (outer-variable
  parameters like ``$__p_ir/name/text()``), evaluated once and
  cross-expanded;
* ``_Join`` — an uncorrelated ``//tag`` source with an equality
  conjunct, probed against the store's hook-maintained value index.

Equality conjuncts become key-set intersection filters.  Only ``=``
is vectorized: by the :func:`repro.xquery.optimizer.hash_keys`
invariant, two atoms general-compare equal iff the index-side keys of
one meet the probe-side keys of the other, so equality is decided
entirely in key space.  Everything else —
other comparison operators, function calls, nested quantifiers,
sources outside the fragment — makes :func:`lower_some` refuse, and
the planner keeps its tuple-at-a-time search (verdict parity is the
differential suite's job).  At run time, a missing store or an
oversized frontier raises :class:`Bail` and the planner falls back the
same way.
"""

from __future__ import annotations

from typing import Callable

from repro.xquery import planner as _planner
from repro.xquery.ast import BinaryOp, Expression, PathExpr, VarRef
from repro.xquery.optimizer import (
    focus_free,
    free_variables,
    hash_keys,
    matching_keys,
    probe_keys,
)
from repro.xquery.planner import _eval_downpath, _Runtime
from repro.xquery.values import atomize
from repro.xtree.node import Element

#: refuse frontiers beyond this many rows and fall back to the
#: tuple-at-a-time search, whose memory use is bounded by depth
_FRONTIER_CAP = 200_000

Downpath = tuple[tuple[str, str], ...]


class Bail(Exception):
    """Raised mid-run when vectorized evaluation cannot proceed."""


class _RunContext:
    """Per-run caches: value indexes, per-item key sets."""

    __slots__ = ("rt", "indexes", "item_keys")

    def __init__(self, rt: _Runtime) -> None:
        self.rt = rt
        #: (doc id, tag, steps) → PathIndex
        self.indexes: dict[tuple, object] = {}
        #: (side kind, steps?, probe form?) → id(item) → frozenset of
        #: hash keys
        self.item_keys: dict[tuple, dict[int, frozenset]] = {}

    def index_for(self, element: Element, tag: str, steps: Downpath):
        document = element.document
        if document is None:
            return None
        key = (id(document), tag, steps)
        index = self.indexes.get(key)
        if index is None:
            store = document.column_store
            if store is None:
                raise Bail("column store detached mid-run")
            index = store.value_index(tag, steps)
            self.indexes[key] = index
        return index


# ---------------------------------------------------------------------------
# Comparison sides (filters and join probes)
# ---------------------------------------------------------------------------
#
# ``keys_fn(ctx, cols, probe)`` returns row → key set: the index-side
# keys of the row's atoms, or with ``probe`` the keys they match
# (:func:`repro.xquery.optimizer.matching_keys`).  An ``=`` holds on a
# row iff one side's index form meets the other's probe form.

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

    def keys_fn(self, ctx: _RunContext, cols: dict[str, list],
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
        memo = ctx.item_keys.setdefault(("item", probe), {})

        def keys_of(i: int) -> frozenset:
            item = column[i]
            keys = memo.get(id(item))
            if keys is None:
                keys = memo[id(item)] = _keys([item], probe)
            return keys
        return keys_of


class _SidePath:
    """A downward path rooted at an ITEMS variable.

    Served by the store's value index when the variable's tag is known
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

    def keys_fn(self, ctx: _RunContext, cols: dict[str, list],
                probe: bool) -> Callable[[int], frozenset]:
        column = cols[self.name]
        memo = ctx.item_keys.setdefault(("path", self.steps, probe), {})
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
                index = ctx.index_for(item, tag, steps) \
                    if tag is not None and item.tag == tag else None
                if index is None:
                    keys = _keys(_eval_downpath(steps, item), probe)
                else:
                    keys = index.flat_keys(item.node_id or -1)
                    if probe:
                        keys = matching_keys(keys)
            memo[id(item)] = keys
            return keys
        return keys_of


class _SideConst:
    """A quantifier-variable-free expression, evaluated once per run."""

    __slots__ = ("closure",)

    def __init__(self, closure: Callable) -> None:
        self.closure = closure

    def refs(self) -> frozenset[str]:
        return frozenset()

    def keys_fn(self, ctx: _RunContext, cols: dict[str, list],
                probe: bool) -> Callable[[int], frozenset]:
        keys = _keys(self.closure(ctx.rt), probe)
        return lambda i: keys


_Side = "_SideVar | _SidePath | _SideConst"


# ---------------------------------------------------------------------------
# Frontier operations (one per binding, in the planner's chosen order)
# ---------------------------------------------------------------------------

class _Scan:
    """All elements of ``//tag`` (level 0 only)."""

    __slots__ = ("name", "tag")
    kind = "scan"

    def __init__(self, name: str, tag: str) -> None:
        self.name = name
        self.tag = tag

    def refs(self) -> frozenset[str]:
        return frozenset()

    def expand(self, ctx: _RunContext, cols: dict[str, list],
               count: int) -> tuple[list[int], list]:
        elements: list = []
        for document in ctx.rt.documents:
            store = document.column_store
            if store is None:
                raise Bail("column store detached mid-run")
            elements.extend(store.table(self.tag).elements)
        return [0] * len(elements), elements


class _Down:
    """A chain of named child steps from an ITEMS variable."""

    __slots__ = ("name", "source", "tags")
    kind = "down"

    def __init__(self, name: str, source: str,
                 tags: tuple[str, ...]) -> None:
        self.name = name
        self.source = source
        self.tags = tags

    def refs(self) -> frozenset[str]:
        return frozenset((self.source,))

    def expand(self, ctx: _RunContext, cols: dict[str, list],
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
    hash-key set, which is all any surviving use (an ``=`` side or a
    join probe) ever needs.
    """

    __slots__ = ("name", "source", "steps", "source_tag")
    kind = "values"

    def __init__(self, name: str, source: str, steps: Downpath,
                 source_tag: str | None) -> None:
        self.name = name
        self.source = source
        self.steps = steps
        self.source_tag = source_tag

    def refs(self) -> frozenset[str]:
        return frozenset((self.source,))

    def expand(self, ctx: _RunContext, cols: dict[str, list],
               count: int) -> tuple[list[int], list]:
        column = cols[self.source]
        take: list[int] = []
        values: list = []
        tag = self.source_tag
        memo: dict[int, list[frozenset]] = {}
        for i in range(count):
            item = column[i]
            key_sets = memo.get(id(item))
            if key_sets is None:
                if not isinstance(item, Element):
                    atoms: tuple = ()
                else:
                    index = ctx.index_for(item, tag, self.steps) \
                        if tag is not None and item.tag == tag else None
                    if index is not None:
                        atoms = index.atoms_of.get(
                            item.node_id or -1, ())
                    else:
                        atoms = tuple(
                            tuple(hash_keys(atom)) for atom in
                            atomize(_eval_downpath(self.steps, item)))
                key_sets = [frozenset(atom) for atom in atoms]
                memo[id(item)] = key_sets
            for keys in key_sets:
                take.append(i)
                values.append(keys)
        return take, values


class _Parent:
    """The parent step from an ITEMS variable."""

    __slots__ = ("name", "source")
    kind = "parent"

    def __init__(self, name: str, source: str) -> None:
        self.name = name
        self.source = source

    def refs(self) -> frozenset[str]:
        return frozenset((self.source,))

    def expand(self, ctx: _RunContext, cols: dict[str, list],
               count: int) -> tuple[list[int], list]:
        column = cols[self.source]
        take: list[int] = []
        values: list = []
        for i in range(count):
            item = column[i]
            parent = item.parent if isinstance(item, Element) else None
            if parent is not None:
                take.append(i)
                values.append(parent)
        return take, values


class _Const:
    """A quantifier-variable-free source: evaluate once, cross-expand."""

    __slots__ = ("name", "closure")
    kind = "const"

    def __init__(self, name: str, closure: Callable) -> None:
        self.name = name
        self.closure = closure

    def refs(self) -> frozenset[str]:
        return frozenset()

    def expand(self, ctx: _RunContext, cols: dict[str, list],
               count: int) -> tuple[list[int], list]:
        items = list(self.closure(ctx.rt))
        if count * len(items) > _FRONTIER_CAP:
            raise Bail("constant cross-expansion exceeds frontier cap")
        take: list[int] = []
        values: list = []
        for i in range(count):
            for item in items:
                take.append(i)
                values.append(item)
        return take, values


class _Join:
    """An uncorrelated ``//tag`` source probed through a value index.

    The vectorized form of the planner's ``_HashJoinStep``: both probe
    the store's delta-maintained index; this one answers a whole
    frontier column per call.
    """

    __slots__ = ("name", "tag", "steps", "probe")
    kind = "join"

    def __init__(self, name: str, tag: str, steps: Downpath,
                 probe: object) -> None:
        self.name = name
        self.tag = tag
        self.steps = steps
        self.probe = probe

    def refs(self) -> frozenset[str]:
        return self.probe.refs()  # type: ignore[attr-defined]

    def expand(self, ctx: _RunContext, cols: dict[str, list],
               count: int) -> tuple[list[int], list]:
        indexes = []
        for document in ctx.rt.documents:
            store = document.column_store
            if store is None:
                raise Bail("column store detached mid-run")
            indexes.append(store.value_index(self.tag, self.steps))
        keys_of = self.probe.keys_fn(ctx, cols, True)  # type: ignore
        take: list[int] = []
        values: list = []
        matched_memo: dict[frozenset, list[Element]] = {}
        for i in range(count):
            keys = keys_of(i)
            matched = matched_memo.get(keys)
            if matched is None:
                matched = []
                seen: set[int] = set()
                for key in keys:
                    for index in indexes:
                        bucket = index.buckets.get(key)
                        if not bucket:
                            continue
                        for node_id, element in bucket.items():
                            if node_id not in seen:
                                seen.add(node_id)
                                matched.append(element)
                matched_memo[keys] = matched
            for element in matched:
                take.append(i)
                values.append(element)
        return take, values


# ---------------------------------------------------------------------------
# Levels and the compiled vector plan
# ---------------------------------------------------------------------------

class _Level:
    """One binding: expand, filter by key intersection, project, dedup.

    ``carry`` is every variable the level itself needs materialized
    (filter sides plus downstream ``keep``); ``keep`` is what survives
    into the next level.
    """

    __slots__ = ("op", "filters", "keep", "carry")

    def __init__(self, op, filters: list[tuple], keep: tuple[str, ...],
                 carry: tuple[str, ...]) -> None:
        self.op = op
        self.filters = filters
        self.keep = keep
        self.carry = carry

    def apply(self, ctx: _RunContext, cols: dict[str, list], count: int,
              qindex: int, level: int) -> tuple[dict[str, list], int]:
        take, values = self.op.expand(ctx, cols, count)
        total = len(values)
        if total > _FRONTIER_CAP:
            raise Bail("frontier exceeds row cap")
        profile = ctx.rt.profile
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
            survived = self._any_row(ctx, expanded, total)
            if counters is not None:
                counters[1] += 1 if survived else 0
            return {}, (1 if survived else 0)
        kept: list[int] | None = None  # None = every row survives
        for left, right in self.filters:
            left_of = left.keys_fn(ctx, expanded, False)
            right_of = right.keys_fn(ctx, expanded, True)
            candidates = range(total) if kept is None else kept
            kept = [i for i in candidates
                    if not left_of(i).isdisjoint(right_of(i))]
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
            try:
                columns = [projected[variable] for variable in self.keep]
                seen: set[tuple] = set()
                rows: list[int] = []
                if len(columns) == 1:
                    unique: list = []
                    for item in columns[0]:
                        if item not in seen:
                            seen.add(item)
                            unique.append(item)
                    if len(unique) != count:
                        projected = {self.keep[0]: unique}
                        count = len(unique)
                else:
                    for i, row in enumerate(zip(*columns)):
                        if row not in seen:
                            seen.add(row)
                            rows.append(i)
                    if len(rows) != count:
                        projected = {
                            variable: [projected[variable][i]
                                       for i in rows]
                            for variable in self.keep}
                        count = len(rows)
            except TypeError:  # pragma: no cover - all carried values
                pass           # are hashable today; stay safe anyway
        return projected, count

    def _any_row(self, ctx: _RunContext, expanded: dict[str, list],
                 total: int) -> bool:
        """Whether any row survives every filter (early exit)."""
        if not self.filters:
            return total > 0
        sides = [(left.keys_fn(ctx, expanded, False),
                  right.keys_fn(ctx, expanded, True))
                 for left, right in self.filters]
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


class VectorSome:
    """The vectorized form of one ``some`` quantifier."""

    __slots__ = ("levels", "qindex")

    def __init__(self, levels: list[_Level], qindex: int) -> None:
        self.levels = levels
        self.qindex = qindex

    def ready(self, rt: _Runtime) -> str | None:
        """``None`` when runnable, else the reason it is not."""
        if not _planner.columnar_enabled():
            return ("frontier lowering disabled; "
                    "value indexes still store-served")
        for document in rt.documents:
            if document.column_store is None:
                return ("no column store attached; "
                        "value indexes built per evaluation")
        return None

    def run(self, rt: _Runtime) -> bool:
        """Existential truth by frontier evaluation.

        Raises :class:`Bail` when a store disappears mid-run or the
        frontier outgrows the cap; the caller falls back to the
        tuple-at-a-time search.
        """
        ctx = _RunContext(rt)
        cols: dict[str, list] = {}
        count = 1
        for level, spec in enumerate(self.levels):
            cols, count = spec.apply(ctx, cols, count, self.qindex,
                                     level)
            if count == 0:
                return False
        return True


# ---------------------------------------------------------------------------
# Lowering
# ---------------------------------------------------------------------------

def lower_some(bindings, name_set: frozenset[str], qindex: int,
               pl) -> "tuple[VectorSome | None, str | None]":
    """Lower one planned ``some`` quantifier to a vector plan.

    ``bindings`` is the planner's per-binding description, already in
    the chosen order: ``(name, source, factors, equality, correlated)``
    with ``equality`` the ``(factor, key_side, probe_side)`` conjunct a
    hash join would consume (or ``None``).  Returns ``(plan, None)``
    or ``(None, reason)`` — any construct outside the vectorizable
    fragment refuses the whole quantifier, never one binding.
    """
    kinds: dict[str, tuple[str, str | None]] = {}
    lowered: list[tuple] = []
    names = [name for name, *_ in bindings]
    if len(set(names)) != len(names):
        return None, "duplicate binding variable"
    for level, (name, source, factors, equality, correlated) \
            in enumerate(bindings):
        op, reason = _lower_binding(name, source, equality, correlated,
                                    level, kinds, name_set, pl)
        if op is None:
            return None, reason
        filters = []
        consumed = equality[0] if isinstance(op, _Join) \
            and equality is not None else None
        for factor in factors:
            if factor is consumed:
                continue
            comparison, why = _lower_filter(factor, kinds, name_set, pl)
            if comparison is None:
                return None, why
            filters.append(comparison)
        lowered.append((op, filters))
    needed: frozenset[str] = frozenset()
    shapes: list[tuple[tuple[str, ...], tuple[str, ...]]] = []
    for op, filters in reversed(lowered):
        keep = tuple(sorted(needed))
        side_refs: frozenset[str] = frozenset()
        for left, right in filters:
            side_refs |= left.refs() | right.refs()
        carry = tuple(sorted(set(keep) | side_refs))
        shapes.append((keep, carry))
        needed = (needed | side_refs | op.refs()) - {op.name}
    shapes.reverse()
    levels = [_Level(op, filters, keep, carry)
              for (op, filters), (keep, carry) in zip(lowered, shapes)]
    return VectorSome(levels, qindex), None


def _lower_binding(name: str, source: Expression, equality, correlated,
                   level: int, kinds: dict, name_set: frozenset[str],
                   pl) -> "tuple[object | None, str | None]":
    tag = _planner._simple_descendant_tag(source)
    if equality is not None and tag is not None:
        steps = _planner._var_downpath(equality[1], name)
        if steps is not None:
            probe, why = _lower_side(equality[2], kinds, name_set, pl)
            if probe is not None:
                kinds[name] = ("items", tag)
                return _Join(name, tag, steps, probe), None
            return None, f"join probe for ${name}: {why}"
        return None, f"join key side for ${name} is not a downpath"
    if correlated:
        return _lower_correlated(name, source, kinds, name_set)
    if tag is not None:
        if level == 0:
            kinds[name] = ("items", tag)
            return _Scan(name, tag), None
        return None, f"uncorrelated scan of //{tag} after level 0"
    if not (free_variables(source) & name_set) and focus_free(source):
        kinds[name] = ("items", None)
        return _Const(name, _planner._compile(source, pl)), None
    return None, f"source of ${name} outside the columnar fragment"


def _lower_correlated(name: str, source: Expression, kinds: dict,
                      name_set: frozenset[str]
                      ) -> "tuple[object | None, str | None]":
    if not isinstance(source, PathExpr) \
            or not isinstance(source.start, VarRef):
        return None, f"correlated source of ${name} is not a var path"
    root = source.start.name
    if root not in kinds:
        return None, f"source of ${name} uses an outer-scope variable"
    root_kind, root_tag = kinds[root]
    if root_kind != "items":
        return None, f"source of ${name} navigates from a value"
    steps = source.steps
    if len(steps) == 1 and steps[0].axis == "parent" \
            and not steps[0].predicates \
            and not any(source.descendant_flags):
        kinds[name] = ("items", None)
        return _Parent(name, root), None
    downpath = _planner._var_downpath(source, root)
    if downpath is None:
        return None, f"source of ${name} is not a plain downpath"
    last_axis, last_test = downpath[-1]
    prefix = downpath[:-1]
    if any(axis != "child" or nodetest == "text()"
           for axis, nodetest in prefix):
        return None, f"source of ${name} mixes values into the path"
    if last_axis == "attribute" or last_test == "text()":
        kinds[name] = ("keys", None)
        return _Values(name, root, downpath, root_tag), None
    kinds[name] = ("items", last_test)
    return _Down(name, root,
                 tuple(nodetest for _, nodetest in downpath)), None


def _lower_filter(factor: Expression, kinds: dict,
                  name_set: frozenset[str],
                  pl) -> "tuple[tuple | None, str | None]":
    if not isinstance(factor, BinaryOp) or factor.op != "=":
        return None, "non-equality conjunct"
    left, left_why = _lower_side(factor.left, kinds, name_set, pl)
    if left is None:
        return None, left_why
    right, right_why = _lower_side(factor.right, kinds, name_set, pl)
    if right is None:
        return None, right_why
    return (left, right), None


def _lower_side(expression: Expression, kinds: dict,
                name_set: frozenset[str],
                pl) -> "tuple[object | None, str | None]":
    if isinstance(expression, VarRef) and expression.name in name_set:
        bound = kinds.get(expression.name)
        if bound is None:
            return None, f"${expression.name} referenced before binding"
        return _SideVar(expression.name, bound[0] == "keys"), None
    if isinstance(expression, PathExpr) \
            and isinstance(expression.start, VarRef) \
            and expression.start.name in name_set:
        root = expression.start.name
        bound = kinds.get(root)
        if bound is None or bound[0] != "items":
            return None, f"path from ${root} is not navigable"
        steps = _planner._var_downpath(expression, root)
        if steps is None:
            return None, f"path from ${root} is not a plain downpath"
        return _SidePath(root, steps, bound[1]), None
    if not (free_variables(expression) & name_set) \
            and focus_free(expression):
        return _SideConst(_planner._compile(expression, pl)), None
    return None, "comparison side outside the columnar fragment"
