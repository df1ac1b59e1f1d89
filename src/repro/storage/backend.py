"""The abstract storage-backend interface.

A backend owns the physical representation of one or more tables.  The
logical layer (:class:`repro.dataset.table.Table`) validates and coerces
cells, then hands fully prepared tuples to the backend; everything below
the tuple API — column arrays, NULL masks, column array snapshots — is
the backend's concern.  Keeping the surface here small is what makes
alternative backends (sqlite, remote) drop-in replacements later.

Row indexes are stable: rows are append-only and never reordered, so a row
index handed out by one call (e.g. a row selected by a scan) remains valid
for the lifetime of the table.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Any, Callable, Optional, Sequence

from repro.storage.delta import TableDelta, TableMark

if TYPE_CHECKING:
    from repro.storage.column_store import ColumnKernel

__all__ = ["StorageBackend", "CellReader"]

CellReader = Callable[[int], Any]
"""Reads one cell of a fixed (table, column) by row index."""


class StorageBackend(ABC):
    """Physical storage for registered tables.

    All methods identify tables by name and columns by 0-based position in
    the table's declared column order.
    """

    # ------------------------------------------------------------------
    # Table lifecycle
    # ------------------------------------------------------------------
    @abstractmethod
    def register_table(self, name: str, columns: Sequence[Any]) -> None:
        """Register an empty table with its :class:`Column` definitions."""

    @abstractmethod
    def drop_table(self, name: str) -> None:
        """Remove a table and free its storage."""

    @abstractmethod
    def detach_table(self, name: str) -> "StorageBackend":
        """Remove a table but keep its data, returning a private backend.

        Frees the name on this backend while leaving any live
        :class:`~repro.dataset.table.Table` handle functional on the
        returned single-table backend — used when a database drops a
        table from its shared store.
        """

    @abstractmethod
    def has_table(self, name: str) -> bool:
        """Whether ``name`` is registered."""

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    @abstractmethod
    def append_row(self, table: str, prepared: Sequence[Any]) -> None:
        """Append one prepared (validated, coerced) row."""

    # ------------------------------------------------------------------
    # Row-oriented reads (tuple compatibility layer)
    # ------------------------------------------------------------------
    @abstractmethod
    def num_rows(self, table: str) -> int:
        """Number of stored rows."""

    @abstractmethod
    def row(self, table: str, index: int) -> tuple[Any, ...]:
        """Materialize one row as a tuple."""

    @abstractmethod
    def rows(self, table: str) -> list[tuple[Any, ...]]:
        """Materialize all rows as tuples (may be cached; treat read-only)."""

    @abstractmethod
    def cell(self, table: str, row_index: int, position: int) -> Any:
        """Read a single cell."""

    @abstractmethod
    def cell_reader(self, table: str, position: int) -> CellReader:
        """A fast row-index → cell-value accessor for one column."""

    # ------------------------------------------------------------------
    # Column-oriented reads
    # ------------------------------------------------------------------
    @abstractmethod
    def column_values(self, table: str, position: int) -> list[Any]:
        """All values of one column in row order, NULLs included."""

    @abstractmethod
    def null_mask(self, table: str, position: int) -> list[bool]:
        """Per-row NULL mask of one column (True where the cell is NULL)."""

    @abstractmethod
    def null_count(self, table: str, position: int) -> int:
        """Number of NULL cells in one column."""

    @abstractmethod
    def distinct_values(self, table: str, position: int) -> set[Any]:
        """Distinct non-NULL values of one column."""

    @abstractmethod
    def distinct_count(self, table: str, position: int) -> int:
        """Number of distinct non-NULL values of one column."""

    @abstractmethod
    def value_counts(self, table: str, position: int) -> dict[Any, int]:
        """Occurrence count per distinct non-NULL value."""

    @abstractmethod
    def text_dictionary(self, table: str, position: int) -> Optional[list[str]]:
        """The dictionary of a dictionary-encoded text column, else None.

        May be the backend's live structure — treat as read-only; mutating
        it corrupts the encoding for every row.
        """

    @abstractmethod
    def text_column_codes(
        self, table: str, position: int
    ) -> Optional[tuple[list[int], list[str]]]:
        """(codes, dictionary) of an encoded text column, else None.

        Codes are per-row dictionary offsets; NULL cells carry a negative
        code.  Both lists may be the backend's live structures — treat as
        read-only.
        """

    # ------------------------------------------------------------------
    # Scans and array snapshots
    # ------------------------------------------------------------------
    @abstractmethod
    def select_rows(
        self, table: str, position: int, predicate: Callable[[Any], bool]
    ) -> list[int]:
        """Row indexes whose cell is non-NULL and satisfies ``predicate``."""

    @abstractmethod
    def column_kernel(self, table: str, position: int) -> "ColumnKernel":
        """An immutable array snapshot of one column for the executor.

        A new snapshot object is handed out after every append, so
        callers may key derived caches on kernel identity.
        """

    # ------------------------------------------------------------------
    # Versioning
    # ------------------------------------------------------------------
    @abstractmethod
    def version(self, table: str) -> int:
        """Monotonic per-table data version (bumped on every append)."""

    # ------------------------------------------------------------------
    # Append deltas (optional capability)
    # ------------------------------------------------------------------
    def table_mark(self, table: str) -> Optional[TableMark]:
        """A :class:`TableMark` fingerprint of the table's current state.

        Returns ``None`` when the backend does not support append-delta
        tracking; callers (the artifact store's incremental refresh) then
        fall back to full rebuilds.  Backends that do support deltas must
        capture the mark atomically with respect to writes.
        """
        return None

    def delta_since(self, table: str, mark: TableMark) -> Optional[TableDelta]:
        """The append delta between ``mark`` and the table's current state.

        Returns ``None`` whenever the difference cannot be proven to be
        pure appends (the mark belongs to a different layout, the version
        counter does not match the row-count growth, or the backend does
        not track deltas at all).  The returned delta snapshots its cell
        values, so it stays valid under further concurrent appends.
        """
        return None
