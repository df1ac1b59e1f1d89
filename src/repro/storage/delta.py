"""Append-delta primitives for incremental artifact maintenance.

The storage layer is append-only: rows are never reordered, text
dictionaries only grow, and the per-table version counter advances by one
per appended row.  That makes the difference between two table states
fully describable as a *delta* — a contiguous row range plus the
dictionary entries those rows introduced — provided nothing but appends
happened in between.

* :class:`TableMark` — a cheap fingerprint of one table's state (version,
  row count, per-column dictionary lengths) captured at publish time, e.g.
  when a preprocessing bundle is built;
* :class:`ColumnDelta` — the appended cells of one column, both decoded
  and (for text) dictionary-encoded;
* :class:`TableDelta` — the appended row range of one table with one
  :class:`ColumnDelta` per column and the :class:`TableMark` describing
  the post-delta state.

A backend that cannot prove the change was pure append (column layout
changed, version arithmetic doesn't match the row-count growth, a
dictionary shrank) returns ``None`` instead of a delta, and consumers —
:meth:`repro.api.ArtifactStore.refresh` above all — fall back to a
full rebuild.  Deltas capture their cell values at creation time, so a
delta stays valid even if the table keeps growing afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Sequence

__all__ = ["ColumnDelta", "TableDelta", "TableMark"]

#: Placeholder dictionary length recorded for non-text columns in a mark.
NO_DICTIONARY = -1


@dataclass(frozen=True)
class TableMark:
    """Fingerprint of one table's storage state at a point in time.

    Marks are tiny (a handful of integers) and are persisted alongside
    preprocessing bundles; comparing a mark against the live table is how
    a backend derives the append delta between the two states.
    """

    table: str
    version: int
    num_rows: int
    column_count: int
    #: Per-column dictionary length at capture time; ``NO_DICTIONARY`` for
    #: columns that are not dictionary-encoded.
    text_dict_lens: tuple[int, ...]
    #: Identity of the physical table store the mark was taken from.
    #: Version/row-count arithmetic alone cannot distinguish pure appends
    #: from a drop-and-recreate under the same table name (both counters
    #: restart together), so backends stamp each store with a unique token
    #: and refuse to derive a delta across different tokens.
    store_token: str = ""


@dataclass(frozen=True)
class ColumnDelta:
    """The appended cells of one column.

    ``values`` always holds the decoded cells (``None`` for NULLs).  For
    dictionary-encoded text columns ``codes``/``dictionary``/``dict_len``
    additionally expose the encoded view so consumers can keep doing
    per-distinct-value work (the inverted index normalizes and tokenizes
    once per referenced dictionary entry, not once per row), and
    ``new_dictionary_entries`` lists exactly the distinct strings first
    introduced by this delta's rows.

    ``dictionary`` may be the backend's live list; it is append-only, and
    ``codes`` only ever reference offsets below ``dict_len``, so readers
    must treat it as read-only and never index past ``dict_len``.
    """

    position: int
    is_text: bool
    values: tuple[Any, ...]
    codes: Optional[tuple[int, ...]] = None
    dictionary: Optional[Sequence[str]] = None
    dict_len: int = 0
    new_dictionary_entries: tuple[str, ...] = ()

    @property
    def non_null_values(self) -> list[Any]:
        """The delta's cells with NULLs removed (row order preserved)."""
        return [value for value in self.values if value is not None]

    @property
    def null_count(self) -> int:
        """Number of NULL cells in the delta."""
        return sum(1 for value in self.values if value is None)


@dataclass(frozen=True)
class TableDelta:
    """All rows appended to one table between two marks.

    Row indexes are stable (append-only storage), so the delta's rows are
    exactly the half-open range ``[start_row, end_row)`` of the live
    table, and every row index derived from the delta remains valid for
    the lifetime of the table.
    """

    table: str
    start_row: int
    end_row: int
    columns: tuple[ColumnDelta, ...]
    #: Mark describing the table state *after* this delta was captured;
    #: chaining refreshes hands this mark to the next delta computation.
    new_mark: TableMark

    @property
    def num_rows(self) -> int:
        """Number of appended rows covered by the delta."""
        return self.end_row - self.start_row
