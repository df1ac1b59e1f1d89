"""Inverted index over cell values.

The paper validates value constraints on columns "leveraging the inverted
index provided in most DBMS systems" (§2.3).  Discovery only ever asks
that index one question — *which columns hold this keyword?* — so this
module maps every term straight to the set of columns holding it, built
once per database.

Text values are indexed both as whole (case-folded) strings and as
individual word tokens so that a keyword such as ``"Tahoe"`` locates the
cell ``"Lake Tahoe"``, matching the keyword semantics of sample-driven
mapping systems.
"""

from __future__ import annotations

import re
from typing import Any, Iterable, Mapping

import numpy as np

from repro.dataset.database import Database
from repro.dataset.schema import ColumnRef

__all__ = ["InvertedIndex", "normalize_term"]

_TOKEN_PATTERN = re.compile(r"[A-Za-z0-9]+")


def normalize_term(value: Any) -> str:
    """Normalise a value into its index key (case-folded string)."""
    if isinstance(value, float) and value.is_integer():
        # 497.0 and 497 should hit the same key.
        return str(int(value))
    return str(value).strip().casefold()


def _tokenize(text: str) -> list[str]:
    return [match.group(0).casefold() for match in _TOKEN_PATTERN.finditer(text)]


def _distinct_values(values: Iterable[Any]) -> list[Any]:
    """The distinct non-NULL values, one per (type, value) class.

    Keyed by type as well as value: a plain ``set`` would merge ``True``,
    ``1`` and ``1.0``, whose terms (``"true"``, ``"1"``) differ.
    """
    return list({
        (type(value), value): value for value in values if value is not None
    }.values())


class _Linker:
    """Adds columns to terms' column sets, for one index's lifetime.

    Equal column sets are one shared object: most terms live in one
    column, and a term met in another column moves to the interned
    union of its old set and that column, so memory grows with the
    distinct sets, not with the terms.  Unions are interned by value,
    so a set reached by adding columns in another order (an append
    meets columns in its own order) is still the one object.  The
    index keeps one linker from its build through every
    :meth:`InvertedIndex.apply_delta`, and pickles it along, so the
    sets of a delta join the ones already interned.  The sets are
    immutable, so sharing them is safe.
    """

    __slots__ = ("_unions", "_sets")

    def __init__(self) -> None:
        # (set, column) → their union, and each distinct set → itself.
        self._unions: dict[tuple, frozenset[ColumnRef]] = {}
        self._sets: dict[frozenset[ColumnRef], frozenset[ColumnRef]] = {}

    def _union(
        self, columns: frozenset[ColumnRef], ref: ColumnRef
    ) -> frozenset[ColumnRef]:
        union = self._unions.get((columns, ref))
        if union is None:
            union = columns | {ref}
            union = self._unions[(columns, ref)] = self._sets.setdefault(
                union, union
            )
        return union

    def link(
        self, terms: dict[str, frozenset[ColumnRef]], keys: Iterable[str],
        ref: ColumnRef,
    ) -> None:
        """Add ``ref`` to the column set of every term in ``keys``."""
        single = self._union(frozenset(), ref)
        for key in keys:
            columns = terms.get(key)
            if columns is None:
                terms[key] = single
            elif ref not in columns:
                terms[key] = self._union(columns, ref)


class InvertedIndex:
    """Term → column-set index over an entire database.

    Every term maps to the columns (:class:`ColumnRef`) holding it in at
    least one row: whole (normalized) cell values in ``_exact``, word
    tokens of text cells in ``_tokens``.  The per-value work
    (normalizing, tokenizing) runs once per distinct value of a column,
    never once per cell.
    """

    def __init__(self) -> None:
        self._exact: dict[str, frozenset[ColumnRef]] = {}
        self._tokens: dict[str, frozenset[ColumnRef]] = {}
        self._indexed_cells = 0
        self._linker = _Linker()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(cls, database: Database) -> "InvertedIndex":
        """Build the index over every table of ``database``.

        Columns are read from the store's array snapshots: text columns
        are indexed once per dictionary entry some row references, typed
        columns once per distinct array value.
        """
        index = cls()
        for table in database:
            for position, column in enumerate(table.columns):
                ref = ColumnRef(table.name, column.name)
                kernel = table.backend.column_kernel(table.name, position)
                present = kernel.keys[kernel.valid]
                index._indexed_cells += len(present)
                if kernel.kind == "text":
                    index._add_entries(ref, kernel.dictionary, present)
                elif kernel.kind == "array":
                    index._add_values(ref, np.unique(present).tolist())
                else:
                    index._add_values(
                        ref, _distinct_values(present.tolist())
                    )
        return index

    def apply_delta(
        self,
        database: Database,
        deltas: Mapping[str, "TableDelta"],
    ) -> None:
        """Fold appended rows into the index instead of rebuilding it.

        ``deltas`` maps table name → :class:`~repro.storage.TableDelta`
        as produced by :meth:`Database.storage_deltas_since`.  Each
        appended value's column joins its terms' column sets — a set
        union through the index's one linker, so the result equals a
        from-scratch build over the grown database and equal sets stay
        one object.
        """
        for table_name, delta in deltas.items():
            table = database.table(table_name)
            for column, column_delta in zip(table.columns, delta.columns):
                ref = ColumnRef(table_name, column.name)
                self._indexed_cells += (
                    len(column_delta.values) - column_delta.null_count
                )
                if column_delta.codes is not None:
                    codes = np.asarray(column_delta.codes, dtype=np.int64)
                    self._add_entries(
                        ref, column_delta.dictionary, codes[codes >= 0]
                    )
                else:
                    self._add_values(
                        ref, _distinct_values(column_delta.values)
                    )

    def _add_entries(
        self, ref: ColumnRef, dictionary: Any, codes: np.ndarray
    ) -> None:
        """Index the dictionary entries of a text column that ``codes``
        (non-NULL) reference: each entry's whole value and word tokens."""
        keys: list[str] = []
        tokens: list[str] = []
        for code in np.unique(codes).tolist():
            value = dictionary[code]
            key = normalize_term(value)
            keys.append(key)
            tokens.extend(token for token in _tokenize(value) if token != key)
        self._linker.link(self._exact, keys, ref)
        self._linker.link(self._tokens, tokens, ref)

    def _add_values(self, ref: ColumnRef, values: Iterable[Any]) -> None:
        """Index distinct non-text values (only text cells tokenize)."""
        self._linker.link(self._exact, map(normalize_term, values), ref)

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------
    @property
    def indexed_cells(self) -> int:
        """Number of non-NULL cells indexed."""
        return self._indexed_cells

    @property
    def num_terms(self) -> int:
        """Number of distinct exact terms in the index."""
        return len(self._exact)

    def columns_containing(
        self, value: Any, include_tokens: bool = True
    ) -> set[ColumnRef]:
        """Distinct columns that contain ``value`` in at least one row.

        Args:
            value: the keyword or literal to search for.
            include_tokens: also match word tokens inside text cells.
        """
        key = normalize_term(value)
        columns = set(self._exact.get(key, ()))
        if include_tokens:
            columns.update(self._tokens.get(key, ()))
        return columns

    def columns_containing_any(
        self, values: Iterable[Any], include_tokens: bool = True
    ) -> set[ColumnRef]:
        """Columns containing at least one of ``values``."""
        result: set[ColumnRef] = set()
        for value in values:
            result |= self.columns_containing(value, include_tokens=include_tokens)
        return result
