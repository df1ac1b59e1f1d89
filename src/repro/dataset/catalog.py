"""Metadata catalog: per-column statistics collected during preprocessing.

The paper checks metadata constraints against "metadata information, e.g.,
min/max values, collected during preprocessing" (§2.3).  The catalog stores,
for every column: declared data type, min/max value, maximum text length,
row/null/distinct counts, and (for numeric columns) mean and standard
deviation.  The same statistics later feed the Bayesian selectivity models
and the planner's estimates.

NaN never equals itself, so it has no place in an order: min/max leave
it out, and all NaN cells of a column count as one distinct value, as
the relation models treat it.  The statistics then do not depend on the
order rows arrive in.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Mapping, Optional

from repro.dataset.database import Database
from repro.dataset.schema import ColumnRef
from repro.dataset.types import DataType, to_float
from repro.errors import SchemaError

__all__ = ["ColumnStats", "MetadataCatalog"]

#: The key NaN cells share in a column's distinct values.  NULLs never
#: enter them, so ``None`` is free, and it stays one object through a
#: pickle, where a NaN float would not.
_NAN_KEY = None


@dataclass(frozen=True)
class ColumnStats:
    """Statistics for one column, as recorded by the catalog."""

    ref: ColumnRef
    data_type: DataType
    row_count: int
    null_count: int
    distinct_count: int
    min_value: Optional[Any] = None
    max_value: Optional[Any] = None
    max_text_length: Optional[int] = None
    mean: Optional[float] = None
    stddev: Optional[float] = None

    @property
    def non_null_count(self) -> int:
        """Number of rows with a non-NULL value in this column."""
        return self.row_count - self.null_count

    @property
    def null_fraction(self) -> float:
        """Fraction of rows that are NULL (0.0 for an empty column)."""
        if self.row_count == 0:
            return 0.0
        return self.null_count / self.row_count

    @property
    def is_numeric(self) -> bool:
        """Whether this column holds numeric data."""
        return self.data_type.is_numeric


def _extremes(ordered: list[Any]) -> tuple[Optional[Any], Optional[Any]]:
    """Min and max of values none of which is NULL or NaN; ``(None,
    None)`` when there are none, or when two cannot be compared."""
    if not ordered:
        return None, None
    try:
        return min(ordered), max(ordered)
    except TypeError:
        return None, None


def _numeric_moments(values: list[float]) -> tuple[float, float]:
    count = len(values)
    mean = sum(values) / count
    variance = sum((value - mean) ** 2 for value in values) / count
    return mean, variance ** 0.5


class MetadataCatalog:
    """Column statistics for every column of a database."""

    def __init__(self) -> None:
        self._stats: dict[ColumnRef, ColumnStats] = {}
        self._table_rows: dict[str, int] = {}
        # Sufficient statistics for incremental maintenance: per-column
        # distinct values (non-text columns; NaN under _NAN_KEY) and
        # (sum, sum-of-squares) running moments for numeric columns.
        # Text columns need neither — the store's dictionary itself is
        # the distinct set.  Distinct values are the keys of a dict
        # (values None): membership works as in a set (hash, then
        # identity or equality), but a set keeps 16-byte slots at most
        # 60% full and grows fourfold below 50k entries, so the compact
        # dict layout is smaller at most sizes (0.28 to 1.12 times a
        # set's bytes below 44k entries).
        self._distinct_values: dict[ColumnRef, dict] = {}
        self._numeric_moments: dict[ColumnRef, tuple[float, float]] = {}

    @classmethod
    def build(cls, database: Database) -> "MetadataCatalog":
        """Collect statistics for every column of ``database``.

        Columns are read straight from the store.  Text columns never
        materialize their values: min/max, max length and the distinct
        count all come from the store's dictionary of distinct strings,
        and the NULL count from the column's NULL mask.
        """
        catalog = cls()
        for table in database:
            catalog._table_rows[table.name] = table.num_rows
            for column in table.columns:
                ref = ColumnRef(table.name, column.name)
                if column.data_type is DataType.TEXT:
                    stats = cls._collect_text_from_dictionary(
                        ref,
                        table.text_dictionary(column.name),
                        row_count=table.num_rows,
                        null_count=table.null_count(column.name),
                    )
                else:
                    stats = catalog._collect(
                        ref, column.data_type, table.column_values(column.name)
                    )
                catalog._stats[ref] = stats
        return catalog

    @staticmethod
    def _collect_text_from_dictionary(
        ref: ColumnRef,
        dictionary: list[str],
        row_count: int,
        null_count: int,
    ) -> ColumnStats:
        """Text-column statistics computed over distinct values only.

        Min/max and max length over the distinct set equal those over all
        rows, and every dictionary entry occurs in at least one row, so
        its length is exactly the distinct count.
        """
        min_value: Optional[str] = None
        max_value: Optional[str] = None
        max_text_length: Optional[int] = None
        if dictionary:
            min_value = min(dictionary)
            max_value = max(dictionary)
            max_text_length = max(len(value) for value in dictionary)
        return ColumnStats(
            ref=ref,
            data_type=DataType.TEXT,
            row_count=row_count,
            null_count=null_count,
            distinct_count=len(dictionary),
            min_value=min_value,
            max_value=max_value,
            max_text_length=max_text_length,
        )

    def _collect(
        self, ref: ColumnRef, data_type: DataType, values: list[Any]
    ) -> ColumnStats:
        """Statistics of a non-text column, recording the sufficient
        statistics (distinct set, numeric running moments) that
        :meth:`apply_delta` later folds appended rows into."""
        non_null = [value for value in values if value is not None]
        row_count = len(values)
        null_count = row_count - len(non_null)
        distinct = dict.fromkeys(non_null)
        # The distinct values but NaN: the rows' values without repeats.
        ordered = [value for value in distinct if value == value]
        if len(ordered) < len(distinct):
            distinct = dict.fromkeys(ordered)
            distinct[_NAN_KEY] = None
        self._distinct_values[ref] = distinct
        min_value, max_value = _extremes(ordered)
        mean: Optional[float] = None
        stddev: Optional[float] = None
        if data_type.is_numeric:
            numeric = [to_float(value) for value in non_null]
            self._numeric_moments[ref] = (
                sum(numeric),
                sum(value * value for value in numeric),
            )
            if numeric:
                mean, stddev = _numeric_moments(numeric)

        return ColumnStats(
            ref=ref,
            data_type=data_type,
            row_count=row_count,
            null_count=null_count,
            distinct_count=len(distinct),
            min_value=min_value,
            max_value=max_value,
            mean=mean,
            stddev=stddev,
        )

    # ------------------------------------------------------------------
    # Incremental maintenance
    # ------------------------------------------------------------------
    def apply_delta(
        self, database: Database, deltas: Mapping[str, Any]
    ) -> None:
        """Fold appended rows into the per-column statistics in place.

        ``deltas`` maps table name → :class:`~repro.storage.TableDelta`.
        Counts, min/max and distinct counts come out identical to a
        from-scratch build; the numeric mean/stddev are maintained as
        running moments and may differ from a cold two-pass computation
        by floating-point rounding only.
        """
        for table_name, delta in deltas.items():
            table = database.table(table_name)
            for column, column_delta in zip(table.columns, delta.columns):
                ref = ColumnRef(table_name, column.name)
                old = self.stats(ref)
                if column_delta.is_text:
                    self._stats[ref] = self._fold_text_delta(old, column_delta)
                else:
                    self._stats[ref] = self._fold_generic_delta(
                        ref, old, column_delta
                    )
            self._table_rows[table_name] = delta.end_row

    @staticmethod
    def _fold_text_delta(old: ColumnStats, column_delta) -> ColumnStats:
        """Update a text column's statistics.

        The store's dictionary is an append-only distinct set, so the
        delta's ``new_dictionary_entries`` are exactly the strings first
        seen in the appended rows.
        """
        new_entries = column_delta.new_dictionary_entries
        min_value = old.min_value
        max_value = old.max_value
        max_text_length = old.max_text_length
        if new_entries:
            entry_min = min(new_entries)
            entry_max = max(new_entries)
            longest = max(len(entry) for entry in new_entries)
            min_value = (
                entry_min if min_value is None or entry_min < min_value
                else min_value
            )
            max_value = (
                entry_max if max_value is None or entry_max > max_value
                else max_value
            )
            max_text_length = (
                longest if max_text_length is None or longest > max_text_length
                else max_text_length
            )
        return replace(
            old,
            row_count=old.row_count + len(column_delta.values),
            null_count=old.null_count + column_delta.null_count,
            distinct_count=old.distinct_count + len(new_entries),
            min_value=min_value,
            max_value=max_value,
            max_text_length=max_text_length,
        )

    def _fold_generic_delta(
        self, ref: ColumnRef, old: ColumnStats, column_delta
    ) -> ColumnStats:
        """Update a non-text column's statistics."""
        distinct = self._distinct_values[ref]
        # Whether the column held a value other than NaN before the delta.
        ordered_before = len(distinct) > (_NAN_KEY in distinct)
        non_null = column_delta.non_null_values
        ordered = [value for value in non_null if value == value]
        distinct.update(dict.fromkeys(ordered))
        if len(ordered) < len(non_null):
            distinct[_NAN_KEY] = None

        if ordered_before and old.min_value is None:
            # The pre-delta values were mutually uncomparable; a cold
            # rebuild over the grown column would fail the same way.
            min_value = max_value = None
        else:
            min_value, max_value = _extremes(
                [old.min_value, old.max_value, *ordered] if ordered_before
                else ordered
            )

        mean = old.mean
        stddev = old.stddev
        if old.data_type.is_numeric:
            total, sum_squares = self._numeric_moments.get(ref, (0.0, 0.0))
            for value in non_null:
                as_float = to_float(value)
                total += as_float
                sum_squares += as_float * as_float
            self._numeric_moments[ref] = (total, sum_squares)
            count = old.non_null_count + len(non_null)
            if count:
                mean = total / count
                variance = sum_squares / count - mean * mean
                # Rounding may push a zero variance below 0; an infinite
                # cell makes it NaN, as in a cold build, and NaN stays.
                stddev = (0.0 if variance < 0 else variance) ** 0.5

        return replace(
            old,
            row_count=old.row_count + len(column_delta.values),
            null_count=old.null_count + column_delta.null_count,
            distinct_count=len(distinct),
            min_value=min_value,
            max_value=max_value,
            mean=mean,
            stddev=stddev,
        )

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------
    def stats(self, ref: ColumnRef) -> ColumnStats:
        """Statistics for one column (raises for unknown columns)."""
        try:
            return self._stats[ref]
        except KeyError as exc:
            raise SchemaError(f"no statistics for column {ref}") from exc

    def has_column(self, ref: ColumnRef) -> bool:
        """Whether statistics exist for ``ref``."""
        return ref in self._stats

    def table_row_count(self, table: str) -> int:
        """Number of rows recorded for ``table`` at build time."""
        try:
            return self._table_rows[table]
        except KeyError as exc:
            raise SchemaError(f"no statistics for table {table!r}") from exc

    def columns(self) -> list[ColumnRef]:
        """All columns with recorded statistics."""
        return list(self._stats)

    def columns_of_type(self, data_type: DataType) -> list[ColumnRef]:
        """All columns whose declared type equals ``data_type``."""
        return [
            ref
            for ref, stats in self._stats.items()
            if stats.data_type is data_type
        ]

    def __len__(self) -> int:
        return len(self._stats)
