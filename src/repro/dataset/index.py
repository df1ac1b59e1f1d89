"""Inverted index over cell values.

The paper validates value constraints on columns "leveraging the inverted
index provided in most DBMS systems" (§2.3).  This module provides that
substrate: a value → posting-list index built once per database, plus
column-level lookups used by related-column discovery.

Text values are indexed both as whole (case-folded) strings and as
individual word tokens so that a keyword such as ``"Tahoe"`` locates the
cell ``"Lake Tahoe"``, matching the keyword semantics of sample-driven
mapping systems.
"""

from __future__ import annotations

import re
from collections import defaultdict
from typing import Any, Iterable, Mapping, Optional, Sequence

from repro.dataset.database import Database
from repro.dataset.schema import ColumnRef
from repro.dataset.types import DataType

__all__ = ["InvertedIndex", "Posting", "normalize_term"]

_TOKEN_PATTERN = re.compile(r"[A-Za-z0-9]+")


def normalize_term(value: Any) -> str:
    """Normalise a value into its index key (case-folded string)."""
    if isinstance(value, float) and value.is_integer():
        # 497.0 and 497 should hit the same key.
        return str(int(value))
    return str(value).strip().casefold()


def _tokenize(text: str) -> list[str]:
    return [match.group(0).casefold() for match in _TOKEN_PATTERN.finditer(text)]


class Posting:
    """A single occurrence of an indexed term: (table, column, row index)."""

    __slots__ = ("table", "column", "row_index")

    def __init__(self, table: str, column: str, row_index: int):
        self.table = table
        self.column = column
        self.row_index = row_index

    @property
    def column_ref(self) -> ColumnRef:
        """The occurrence's column as a :class:`ColumnRef`."""
        return ColumnRef(self.table, self.column)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Posting):
            return NotImplemented
        return (
            self.table == other.table
            and self.column == other.column
            and self.row_index == other.row_index
        )

    def __hash__(self) -> int:
        return hash((self.table, self.column, self.row_index))

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Posting({self.table}.{self.column}[{self.row_index}])"


class InvertedIndex:
    """Value → posting list index over an entire database."""

    def __init__(self) -> None:
        self._exact: dict[str, list[Posting]] = defaultdict(list)
        self._tokens: dict[str, list[Posting]] = defaultdict(list)
        self._indexed_cells = 0
        #: Artifact key of the database this index was built from (empty
        #: for hand-assembled indexes); see :meth:`Database.artifact_key`.
        self.built_from: tuple = ()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(cls, database: Database) -> "InvertedIndex":
        """Build the index over every table of ``database``.

        Columns are read directly from the store.  For text columns (all
        dictionary-encoded) the per-value work (normalizing, tokenizing)
        is done once per distinct string and fanned out over the rows via
        the integer codes.
        """
        index = cls()
        index.built_from = database.artifact_key()
        for table in database:
            for column in table.columns:
                if column.data_type is DataType.TEXT:
                    codes, dictionary = table.text_column_codes(column.name)
                    index._add_encoded(
                        table.name, column.name, codes, dictionary
                    )
                    continue
                for row_index, value in enumerate(
                    table.column_values(column.name)
                ):
                    if value is None:
                        continue
                    index._add(table.name, column.name, row_index, value)
        return index

    def apply_delta(
        self,
        database: Database,
        deltas: Mapping[str, "TableDelta"],
        built_from: tuple,
    ) -> None:
        """Fold appended rows into the index instead of rebuilding it.

        ``deltas`` maps table name → :class:`~repro.storage.TableDelta`
        as produced by :meth:`Database.storage_deltas_since`.  Only new
        postings are appended — existing postings are never touched, so
        the result is identical (as a multiset of postings per term) to a
        from-scratch build over the grown database.  ``built_from`` is
        the artifact key of the post-delta state.
        """
        for table_name, delta in deltas.items():
            table = database.table(table_name)
            for column, column_delta in zip(table.columns, delta.columns):
                if column_delta.codes is not None:
                    self._add_encoded_delta(
                        table_name,
                        column.name,
                        column_delta.codes,
                        column_delta.dictionary,
                        row_offset=delta.start_row,
                    )
                    continue
                for offset, value in enumerate(column_delta.values):
                    if value is None:
                        continue
                    self._add(table_name, column.name,
                              delta.start_row + offset, value)
        self.built_from = built_from

    def _add_encoded_delta(
        self,
        table: str,
        column: str,
        codes: Sequence[int],
        dictionary: Sequence[str],
        row_offset: int,
    ) -> None:
        """Index appended rows of an encoded text column.

        Normalizing and tokenizing run once per *referenced* dictionary
        entry (not once per entry, as the cold build does), so the work is
        proportional to the delta, not to the column's distinct set.
        """
        cache: dict[int, tuple[str, list[str]]] = {}
        exact = self._exact
        tokens = self._tokens
        for offset, code in enumerate(codes):
            if code < 0:
                continue
            entry = cache.get(code)
            if entry is None:
                value = dictionary[code]
                key = normalize_term(value)
                entry = (key, [t for t in _tokenize(value) if t != key])
                cache[code] = entry
            posting = Posting(table, column, row_offset + offset)
            exact[entry[0]].append(posting)
            self._indexed_cells += 1
            for token in entry[1]:
                tokens[token].append(posting)

    def _add_encoded(
        self,
        table: str,
        column: str,
        codes: list[int],
        dictionary: list[str],
    ) -> None:
        """Index a dictionary-encoded text column."""
        keys = [normalize_term(value) for value in dictionary]
        token_lists = [
            [token for token in _tokenize(value) if token != key]
            for value, key in zip(dictionary, keys)
        ]
        exact = self._exact
        tokens = self._tokens
        for row_index, code in enumerate(codes):
            if code < 0:
                continue
            posting = Posting(table, column, row_index)
            exact[keys[code]].append(posting)
            self._indexed_cells += 1
            for token in token_lists[code]:
                tokens[token].append(posting)

    def _add(self, table: str, column: str, row_index: int, value: Any) -> None:
        """Index one non-text cell (text columns go through the
        dictionary-encoded paths, the only ones that tokenize)."""
        self._exact[normalize_term(value)].append(
            Posting(table, column, row_index)
        )
        self._indexed_cells += 1

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

    def lookup(self, value: Any, include_tokens: bool = True) -> list[Posting]:
        """All postings whose cell equals ``value`` (or contains it as a word).

        Args:
            value: the keyword or literal to search for.
            include_tokens: also match word tokens inside text cells.
        """
        key = normalize_term(value)
        postings = list(self._exact.get(key, ()))
        if include_tokens:
            postings.extend(self._tokens.get(key, ()))
        return postings

    def columns_containing(
        self, value: Any, include_tokens: bool = True
    ) -> set[ColumnRef]:
        """Distinct columns that contain ``value`` in at least one row."""
        return {
            posting.column_ref
            for posting in self.lookup(value, include_tokens=include_tokens)
        }

    def columns_containing_any(
        self, values: Iterable[Any], include_tokens: bool = True
    ) -> set[ColumnRef]:
        """Columns containing at least one of ``values``."""
        result: set[ColumnRef] = set()
        for value in values:
            result |= self.columns_containing(value, include_tokens=include_tokens)
        return result

    def row_indexes(self, column: ColumnRef, value: Any) -> set[int]:
        """Row indexes of ``column`` whose cell matches ``value``."""
        return {
            posting.row_index
            for posting in self.lookup(value)
            if posting.table == column.table and posting.column == column.column
        }

    def term_frequency(self, value: Any) -> int:
        """Number of cells whose exact value equals ``value``."""
        return len(self._exact.get(normalize_term(value), ()))

    def column_term_frequency(self, column: ColumnRef, value: Any) -> int:
        """Number of cells of ``column`` matching ``value`` (incl. tokens)."""
        return len(self.row_indexes(column, value))
