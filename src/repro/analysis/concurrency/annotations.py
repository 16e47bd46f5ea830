"""Lock-discipline annotations and the canonical lock hierarchy.

The paper's philosophy — move integrity work from run time to compile
time — applied to the codebase itself: the locking discipline that
PRs 3–6 grew across eight modules is *declared* here and *proved* by
the static pass in :mod:`repro.analysis.concurrency.checker` (codes
``XIC501``–``XIC505``, surfaced through ``repro lint --concurrency``).

Three declaration forms exist:

* :func:`guarded_by` — a class decorator naming the attributes a lock
  protects (``@guarded_by("self._lock", "_elements_by_tag", ...)``);
* :func:`requires_lock` — a function decorator marking a helper that
  must only be called with the named lock already held
  (``@requires_lock("self._lock")``);
* ``# guarded-by: <LOCK_NAME>`` — a trailing comment on a
  module-level variable's defining assignment, tying the global to a
  module-level lock.

All three are run-time no-ops (the decorators only stash their
arguments on the decorated object for introspection); the static
checker reads them from the AST without importing the annotated
modules.  A trailing ``# lock: ignore`` comment suppresses the
discipline checks on one line — for documented benign races such as
the failpoint registry's lock-free fast path.

:data:`LOCK_ORDER` is the canonical acquisition order (outermost
first).  The static pass validates every statically visible nesting
edge against it (``XIC502``) and the run-time sanitizer
(:mod:`repro.analysis.concurrency.sanitizer`) enforces it on armed
processes, so the two sides can never silently diverge.
"""

from __future__ import annotations

from typing import Callable, TypeVar

_T = TypeVar("_T")

#: Canonical lock acquisition order, outermost first.  A thread may
#: only acquire a lock whose rank is *strictly greater* than every
#: lock it already holds (reentrant re-acquisition of the same RLock
#: instance excepted).  The last two are leaves: nothing may be
#: acquired underneath the sanitizer's lock except the failpoint
#: registry, which the instrumented ``fail.point`` sites reach from
#: inside any scope.
LOCK_ORDER: tuple[str, ...] = (
    "service.store",          # DocumentStore reader–writer lock
    "document",               # Document._lock (per-document RLock)
    "service.persistence",    # DurableLog file/sequence lock
    "sanitizer.violations",   # sanitizer._VIOLATIONS_LOCK
    "testing.failpoints",     # failpoints registry (innermost)
)

#: name → rank index into :data:`LOCK_ORDER`
LOCK_RANKS: dict[str, int] = {
    name: rank for rank, name in enumerate(LOCK_ORDER)}


def rank_of(name: str) -> int | None:
    """Rank of a canonical lock name (``None`` for unknown names)."""
    return LOCK_RANKS.get(name)


def guarded_by(lock: str, *fields: str) -> Callable[[_T], _T]:
    """Declare that ``fields`` of the decorated class are protected by
    the lock reached through expression ``lock`` (e.g. ``self._lock``,
    ``self.store.lock``).

    The static pass (``XIC501``) then requires every access to those
    attributes to happen inside a matching ``with`` scope or inside a
    :func:`requires_lock`-marked helper.  At run time the decorator
    only records the declaration on the class.
    """

    def decorate(cls: _T) -> _T:
        declared = dict(getattr(cls, "__guarded_by__", {}))
        for field in fields:
            declared[field] = lock
        cls.__guarded_by__ = declared  # type: ignore[attr-defined]
        return cls

    return decorate


def requires_lock(lock: str) -> Callable[[_T], _T]:
    """Declare that the decorated function must only be called with
    the lock reached through expression ``lock`` already held.

    The static pass treats the lock as held throughout the function
    body (it is the annotation form of a ``with`` scope that lives in
    every caller) and charges call sites intraprocedurally where it
    can resolve them.  At run time the decorator is a no-op.
    """

    def decorate(func: _T) -> _T:
        held = getattr(func, "__requires_lock__", ())
        func.__requires_lock__ = (*held, lock)  # type: ignore
        return func

    return decorate
