"""In-memory relation: schema logic over the columnar store.

A :class:`Table` validates rows against the declared column types on
insertion so that downstream code never has to defend against mis-typed
cells, then delegates physical storage to a
:class:`~repro.storage.ColumnStore` (a fresh one by default — typed
column arrays with dictionary-encoded text and NULL masks).
The historical tuple API (``rows``/``row``/iteration) is preserved on top
of the columnar representation, and column-oriented accessors expose the
store directly to the inverted index, the metadata catalog, the Bayesian
trainers and the vectorized executor.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING, Any, Callable, Iterable, Iterator, Optional, Sequence
)

import numpy as np

from repro.dataset.schema import Column
from repro.dataset.types import DataType, coerce_value, detect_type
from repro.errors import DataError, SchemaError
from repro.storage import ColumnStore

if TYPE_CHECKING:
    from repro.constraints.values import ValueConstraint

__all__ = ["Table"]


class Table:
    """A named relation with typed columns stored columnar behind the API."""

    def __init__(
        self,
        name: str,
        columns: Sequence[Column],
        backend: Optional[ColumnStore] = None,
    ):
        if not name or not name.strip():
            raise SchemaError("table name must be a non-empty string")
        if not columns:
            raise SchemaError(f"table {name!r} must have at least one column")
        names = [column.name for column in columns]
        if len(set(names)) != len(names):
            raise SchemaError(f"table {name!r} has duplicate column names")
        self.name = name
        self.columns: tuple[Column, ...] = tuple(columns)
        self._column_index: dict[str, int] = {
            column.name: position for position, column in enumerate(columns)
        }
        self._backend: ColumnStore = (
            backend if backend is not None else ColumnStore()
        )
        self._backend.register_table(name, self.columns)

    # ------------------------------------------------------------------
    # Schema helpers
    # ------------------------------------------------------------------
    @property
    def column_names(self) -> tuple[str, ...]:
        """Names of all columns in declaration order."""
        return tuple(column.name for column in self.columns)

    def has_column(self, name: str) -> bool:
        """Whether a column with ``name`` exists."""
        return name in self._column_index

    def column(self, name: str) -> Column:
        """Return the :class:`Column` definition for ``name``."""
        try:
            return self.columns[self._column_index[name]]
        except KeyError as exc:
            raise SchemaError(
                f"table {self.name!r} has no column {name!r}"
            ) from exc

    def column_position(self, name: str) -> int:
        """Return the 0-based position of column ``name``."""
        try:
            return self._column_index[name]
        except KeyError as exc:
            raise SchemaError(
                f"table {self.name!r} has no column {name!r}"
            ) from exc

    # ------------------------------------------------------------------
    # Storage backend
    # ------------------------------------------------------------------
    @property
    def backend(self) -> ColumnStore:
        """The store holding this table's data."""
        return self._backend

    @property
    def storage_version(self) -> int:
        """Monotonic data version (bumped on every insert)."""
        return self._backend.version(self.name)

    def detach_storage(self) -> None:
        """Move this table's data onto a private store.

        Called when the table is dropped from a database whose shared
        store frees the name for reuse: this handle keeps its data and
        stays functional, fully isolated from any successor table.
        """
        self._backend = self._backend.detach_table(self.name)

    # ------------------------------------------------------------------
    # Row storage
    # ------------------------------------------------------------------
    def insert(self, row: Sequence[Any], coerce: bool = False) -> None:
        """Insert a single row.

        Args:
            row: cell values in column order.
            coerce: when ``True``, attempt to coerce each cell to its
                column's declared type; when ``False`` (the default) a
                mis-typed cell raises :class:`DataError`.
        """
        if len(row) != len(self.columns):
            raise DataError(
                f"table {self.name!r}: expected {len(self.columns)} cells, "
                f"got {len(row)}"
            )
        prepared: list[Any] = []
        for column, value in zip(self.columns, row):
            prepared.append(self._prepare_cell(column, value, coerce))
        self._backend.append_row(self.name, prepared)

    def insert_many(self, rows: Iterable[Sequence[Any]], coerce: bool = False) -> int:
        """Insert many rows; returns the number of rows inserted.

        A row that fails validation raises :class:`DataError` naming its
        0-based position in ``rows``, so bulk-load failures on large
        datasets point at the offending record.
        """
        count = 0
        for index, row in enumerate(rows):
            try:
                self.insert(row, coerce=coerce)
            except DataError as exc:
                raise DataError(f"row {index}: {exc}") from exc
            count += 1
        return count

    def _prepare_cell(self, column: Column, value: Any, coerce: bool) -> Any:
        if value is None:
            if not column.nullable:
                raise DataError(
                    f"table {self.name!r}: NULL in non-nullable column "
                    f"{column.name!r}"
                )
            return None
        if coerce:
            return coerce_value(value, column.data_type)
        detected = detect_type(value)
        if detected is column.data_type:
            return value
        # Ints are acceptable in decimal columns without explicit coercion.
        if column.data_type is DataType.DECIMAL and detected is DataType.INT:
            return float(value)
        raise DataError(
            f"table {self.name!r}, column {column.name!r}: expected "
            f"{column.data_type.value}, got {detected.value if detected else None} "
            f"({value!r})"
        )

    # ------------------------------------------------------------------
    # Row-oriented access (tuple compatibility layer)
    # ------------------------------------------------------------------
    @property
    def rows(self) -> list[tuple[Any, ...]]:
        """All rows (list of tuples).  Treat as read-only."""
        return self._backend.rows(self.name)

    @property
    def num_rows(self) -> int:
        """Number of stored rows."""
        return self._backend.num_rows(self.name)

    def row(self, index: int) -> tuple[Any, ...]:
        """Return the row at ``index``."""
        return self._backend.row(self.name, index)

    def cell(self, row_index: int, column_name: str) -> Any:
        """Return a single cell by row index and column name."""
        return self._backend.cell(
            self.name, row_index, self.column_position(column_name)
        )

    # ------------------------------------------------------------------
    # Column-oriented access
    # ------------------------------------------------------------------
    def column_values(self, name: str) -> list[Any]:
        """All values of one column, in row order (including NULLs)."""
        return self._backend.column_values(self.name, self.column_position(name))

    def distinct_values(self, name: str) -> set[Any]:
        """Distinct non-NULL values of one column."""
        return self._backend.distinct_values(self.name, self.column_position(name))

    def distinct_count(self, name: str) -> int:
        """Number of distinct non-NULL values of one column."""
        return self._backend.distinct_count(self.name, self.column_position(name))

    def null_count(self, name: str) -> int:
        """Number of NULL cells in one column."""
        return self._backend.null_count(self.name, self.column_position(name))

    def value_counts(self, name: str) -> dict[Any, int]:
        """Occurrence count per distinct non-NULL value of one column."""
        return self._backend.value_counts(self.name, self.column_position(name))

    def text_dictionary(self, name: str) -> Optional[list[str]]:
        """Dictionary of a dictionary-encoded text column (else ``None``)."""
        return self._backend.text_dictionary(self.name, self.column_position(name))

    def text_column_codes(
        self, name: str
    ) -> Optional[tuple[list[int], list[str]]]:
        """(codes, dictionary) of an encoded text column (else ``None``)."""
        return self._backend.text_column_codes(
            self.name, self.column_position(name)
        )

    def cell_reader(self, name: str) -> Callable[[int], Any]:
        """Fast row-index → value accessor for one column."""
        return self._backend.cell_reader(self.name, self.column_position(name))

    def select_rows(
        self, name: str, constraint: "ValueConstraint"
    ) -> np.ndarray:
        """One bool per row: whether its cell in ``name`` is non-NULL and
        satisfies ``constraint``."""
        return self._backend.select_rows(
            self.name, self.column_position(name), constraint
        )

    # ------------------------------------------------------------------
    # Convenience selection
    # ------------------------------------------------------------------
    def select(
        self,
        columns: Optional[Sequence[str]] = None,
        where: Optional[dict[str, Any]] = None,
    ) -> list[tuple[Any, ...]]:
        """A tiny convenience selection used by tests and examples.

        Args:
            columns: column names to project (all columns when ``None``).
            where: equality predicates ``{column: value}``.
        """
        if columns is None:
            positions = list(range(len(self.columns)))
        else:
            positions = [self.column_position(name) for name in columns]
        predicates = [
            (self.column_position(name), value)
            for name, value in (where or {}).items()
        ]
        result = []
        for row in self.rows:
            if all(row[pos] == value for pos, value in predicates):
                result.append(tuple(row[pos] for pos in positions))
        return result

    def __iter__(self) -> Iterator[tuple[Any, ...]]:
        return iter(self.rows)

    def __len__(self) -> int:
        return self.num_rows

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"Table(name={self.name!r}, columns={len(self.columns)}, "
            f"rows={self.num_rows})"
        )
