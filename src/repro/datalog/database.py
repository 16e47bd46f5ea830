"""A fact database: named relations with secondary indexes.

Rows are tuples of plain Python values (``str``/``int``/``float``).
Hash indexes are built lazily per (relation, column) the first time a
lookup selects on that column, then maintained incrementally — the
pattern of a production-grade in-memory store scaled to this library's
needs (the shredded XML documents of section 4.1).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable, Iterator, Mapping

Row = tuple[object, ...]


class FactDatabase:
    """Mutable set of ground facts grouped by predicate."""

    def __init__(self) -> None:
        self._relations: dict[str, list[Row]] = {}
        # (predicate, column) -> value -> list of rows
        self._indexes: dict[tuple[str, int], dict[object, list[Row]]] = {}

    # -- mutation ----------------------------------------------------------

    def add(self, predicate: str, row: Iterable[object]) -> None:
        """Insert one fact.  Duplicate rows are stored once each call
        (bag semantics); the shredder never produces duplicates."""
        stored = tuple(row)
        self._relations.setdefault(predicate, []).append(stored)
        for (pred, column), index in self._indexes.items():
            if pred == predicate and column < len(stored):
                index.setdefault(stored[column], []).append(stored)

    def remove(self, predicate: str, row: Iterable[object]) -> bool:
        """Remove one occurrence of a fact; returns whether it existed."""
        stored = tuple(row)
        relation = self._relations.get(predicate)
        if not relation:
            return False
        try:
            relation.remove(stored)
        except ValueError:
            return False
        for (pred, column), index in self._indexes.items():
            if pred == predicate and column < len(stored):
                bucket = index.get(stored[column])
                if bucket is not None:
                    bucket.remove(stored)
                    if not bucket:
                        del index[stored[column]]
        return True

    # -- access ----------------------------------------------------------------

    def predicates(self) -> list[str]:
        return list(self._relations)

    def rows(self, predicate: str) -> list[Row]:
        return self._relations.get(predicate, [])

    def count(self, predicate: str) -> int:
        return len(self._relations.get(predicate, ()))

    def total_facts(self) -> int:
        return sum(len(rows) for rows in self._relations.values())

    def contains(self, predicate: str, row: Iterable[object]) -> bool:
        return tuple(row) in self._relations.get(predicate, ())

    def lookup(self, predicate: str,
               bound: Mapping[int, object]) -> Iterator[Row]:
        """Rows of ``predicate`` matching all (column → value) selections.

        Uses (and lazily builds) the index of the first bound column;
        remaining selections are filtered.
        """
        relation = self._relations.get(predicate)
        if not relation:
            return iter(())
        if not bound:
            return iter(relation)
        column = min(bound)
        index = self._index_for(predicate, column)
        candidates = index.get(bound[column], [])
        others = [(col, value) for col, value in bound.items()
                  if col != column]
        if not others:
            return iter(candidates)
        return (
            row for row in candidates
            if all(col < len(row) and row[col] == value
                   for col, value in others)
        )

    def _index_for(self, predicate: str,
                   column: int) -> dict[object, list[Row]]:
        key = (predicate, column)
        if key not in self._indexes:
            index: dict[object, list[Row]] = defaultdict(list)
            for row in self._relations.get(predicate, ()):
                if column < len(row):
                    index[row[column]].append(row)
            self._indexes[key] = dict(index)
        return self._indexes[key]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        sizes = ", ".join(
            f"{pred}:{len(rows)}" for pred, rows in self._relations.items())
        return f"FactDatabase({sizes})"
