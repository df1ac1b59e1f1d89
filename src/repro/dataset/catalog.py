"""Metadata catalog: per-column statistics collected during preprocessing.

The paper checks metadata constraints against "metadata information, e.g.,
min/max values, collected during preprocessing" (§2.3).  The catalog stores,
for every column: declared data type, min/max value, maximum text length,
row/null/distinct counts, and (for numeric columns) mean and standard
deviation.  The same statistics later feed the Bayesian selectivity models.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Mapping, Optional

from repro.dataset.database import Database
from repro.dataset.schema import ColumnRef
from repro.dataset.sketches import ColumnSketches, build_column_sketches
from repro.dataset.types import DataType, to_float
from repro.errors import SchemaError

__all__ = ["ColumnStats", "MetadataCatalog"]


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
        # distinct values (non-text columns) and (sum, sum-of-squares)
        # running moments for numeric columns.  Text columns need neither
        # — the store's dictionary itself is the distinct set.  Distinct
        # values are the keys of a dict (values None): membership works
        # as in a set (hash, then identity or equality), but a set keeps
        # 16-byte slots at most 60% full and grows fourfold below 50k
        # entries, so the compact dict layout is smaller at most sizes
        # (0.28 to 1.12 times a set's bytes below 44k entries).
        self._distinct_values: dict[ColumnRef, dict] = {}
        self._numeric_moments: dict[ColumnRef, tuple[float, float]] = {}
        # Statistics sketches (HyperLogLog / Bloom / equi-depth histogram)
        # per column; see repro.dataset.sketches.  Maintained alongside the
        # exact statistics: built vectorized over ColumnKernel snapshots
        # of typed array columns, folded through apply_delta(),
        # and pickled with the catalog into artifact bundles and shards.
        self._sketches: dict[ColumnRef, ColumnSketches] = {}
        #: Artifact key of the database this catalog was built from (empty
        #: for hand-assembled catalogs); see :meth:`Database.artifact_key`.
        self.built_from: tuple = ()

    @classmethod
    def build(cls, database: Database) -> "MetadataCatalog":
        """Collect statistics for every column of ``database``.

        Columns are read straight from the store.  Text columns never
        materialize their values: min/max, max length and the distinct
        count all come from the store's dictionary of distinct strings,
        and the NULL count from the column's NULL mask.
        """
        catalog = cls()
        catalog.built_from = database.artifact_key()
        join_keys = set()
        for fk in database.foreign_keys:
            join_keys.add(ColumnRef(fk.child_table, fk.child_column))
            join_keys.add(ColumnRef(fk.parent_table, fk.parent_column))
        for table in database:
            catalog._table_rows[table.name] = table.num_rows
            for position, column in enumerate(table.columns):
                ref = ColumnRef(table.name, column.name)
                values = kernel = dictionary = None
                if column.data_type is DataType.TEXT:
                    dictionary = table.text_dictionary(column.name)
                    stats = cls._collect_text_from_dictionary(
                        ref,
                        dictionary,
                        row_count=table.num_rows,
                        null_count=table.null_count(column.name),
                    )
                else:
                    values = table.column_values(column.name)
                    stats = catalog._collect(ref, column.data_type, values)
                    kernel = table.backend.column_kernel(table.name, position)
                catalog._stats[ref] = stats
                catalog._sketches[ref] = build_column_sketches(
                    column.data_type,
                    values=values,
                    kernel=kernel,
                    dictionary=dictionary,
                    distinct_hint=stats.distinct_count,
                    want_bloom=ref in join_keys,
                )
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
        distinct_count = len(distinct)
        self._distinct_values[ref] = distinct

        min_value: Optional[Any] = None
        max_value: Optional[Any] = None
        mean: Optional[float] = None
        stddev: Optional[float] = None

        if non_null:
            try:
                min_value = min(non_null)
                max_value = max(non_null)
            except TypeError:
                min_value = None
                max_value = None
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
            distinct_count=distinct_count,
            min_value=min_value,
            max_value=max_value,
            mean=mean,
            stddev=stddev,
        )

    # ------------------------------------------------------------------
    # Incremental maintenance
    # ------------------------------------------------------------------
    def apply_delta(
        self,
        database: Database,
        deltas: Mapping[str, Any],
        built_from: tuple,
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
                sketches = self._sketches.get(ref)
                if sketches is not None:
                    # HLL registers and Bloom bits fold to exactly the
                    # state a cold rebuild would reach (max/or are
                    # order-insensitive); histogram boundaries stay fixed,
                    # only bucket counts grow.
                    if column_delta.is_text:
                        for entry in column_delta.new_dictionary_entries:
                            sketches.fold_distinct_value(entry)
                    else:
                        for value in column_delta.non_null_values:
                            sketches.fold_value(value)
            self._table_rows[table_name] = delta.end_row
        self.built_from = built_from

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
        non_null = column_delta.non_null_values
        for value in non_null:
            distinct[value] = None

        min_value = old.min_value
        max_value = old.max_value
        if non_null:
            if old.non_null_count and old.min_value is None:
                # The pre-delta values were mutually uncomparable; a cold
                # rebuild over the grown column would fail the same way.
                pass
            else:
                try:
                    pool = (
                        non_null if not old.non_null_count
                        else [old.min_value, *non_null]
                    )
                    min_value = min(pool)
                    max_value = max(
                        non_null if not old.non_null_count
                        else [old.max_value, *non_null]
                    )
                except TypeError:
                    min_value = None
                    max_value = None

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

    def sketches(self, ref: ColumnRef) -> Optional[ColumnSketches]:
        """Statistics sketches for one column, or ``None`` when absent
        (hand-assembled catalogs)."""
        return self._sketches.get(ref)

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
