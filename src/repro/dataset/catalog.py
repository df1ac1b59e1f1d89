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
from repro.dataset.types import DataType
from repro.errors import ArtifactError, SchemaError

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
        # distinct-value sets (columns collected via the generic path) and
        # (sum, sum-of-squares) running moments for numeric columns.  Text
        # columns collected from a backend dictionary need neither — the
        # dictionary itself is the distinct set.
        self._distinct_values: dict[ColumnRef, set] = {}
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

        Columns are read straight from the storage backend.  Text columns
        never materialize their values: min/max, max length and the
        distinct count all come from the backend's dictionary of distinct
        strings, and the NULL count from the column's NULL mask.
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
                stats = None
                dictionary = None
                if column.data_type is DataType.TEXT:
                    dictionary = table.text_dictionary(column.name)
                    if dictionary is not None:
                        stats = cls._collect_text_from_dictionary(
                            ref,
                            dictionary,
                            row_count=table.num_rows,
                            null_count=table.null_count(column.name),
                        )
                values = None
                if stats is None:
                    values = table.column_values(column.name)
                    stats = catalog._collect(ref, column.data_type, values)
                catalog._stats[ref] = stats
                kernel = None
                if dictionary is None:
                    kernel = table.backend.column_kernel(table.name, position)
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
        """Generic statistics collection, recording the sufficient
        statistics (distinct set, numeric running moments) that
        :meth:`apply_delta` later folds appended rows into."""
        non_null = [value for value in values if value is not None]
        row_count = len(values)
        null_count = row_count - len(non_null)
        distinct = set(non_null)
        distinct_count = len(distinct)
        self._distinct_values[ref] = distinct

        min_value: Optional[Any] = None
        max_value: Optional[Any] = None
        max_text_length: Optional[int] = None
        mean: Optional[float] = None
        stddev: Optional[float] = None

        if non_null:
            if data_type is DataType.TEXT:
                max_text_length = max(len(str(value)) for value in non_null)
                min_value = min(str(value) for value in non_null)
                max_value = max(str(value) for value in non_null)
            else:
                try:
                    min_value = min(non_null)
                    max_value = max(non_null)
                except TypeError:
                    min_value = None
                    max_value = None
        if data_type.is_numeric:
            numeric = [float(value) for value in non_null]
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
            max_text_length=max_text_length,
            mean=mean,
            stddev=stddev,
        )

    # ------------------------------------------------------------------
    # Incremental maintenance
    # ------------------------------------------------------------------
    @property
    def supports_delta(self) -> bool:
        """Whether this catalog carries the sufficient statistics that
        :meth:`apply_delta` needs (catalogs unpickled from bundles built
        before incremental maintenance existed do not)."""
        return hasattr(self, "_distinct_values") and hasattr(
            self, "_numeric_moments"
        )

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
        by floating-point rounding only.  Raises
        :class:`~repro.errors.ArtifactError` when the catalog lacks the
        sufficient statistics for a column (see :attr:`supports_delta`).
        """
        if not self.supports_delta:
            raise ArtifactError(
                "this catalog predates incremental maintenance; rebuild it"
            )
        sketch_map = getattr(self, "_sketches", None)
        for table_name, delta in deltas.items():
            table = database.table(table_name)
            for column, column_delta in zip(table.columns, delta.columns):
                ref = ColumnRef(table_name, column.name)
                old = self.stats(ref)
                text_delta = (
                    column_delta.is_text and column_delta.dictionary is not None
                )
                if text_delta:
                    self._stats[ref] = self._fold_text_delta(old, column_delta)
                else:
                    self._stats[ref] = self._fold_generic_delta(
                        ref, old, column_delta
                    )
                sketches = sketch_map.get(ref) if sketch_map else None
                if sketches is not None:
                    # HLL registers and Bloom bits fold to exactly the
                    # state a cold rebuild would reach (max/or are
                    # order-insensitive); histogram boundaries stay fixed,
                    # only bucket counts grow.
                    if text_delta:
                        for entry in column_delta.new_dictionary_entries:
                            sketches.fold_distinct_value(entry)
                    else:
                        for value in column_delta.non_null_values:
                            sketches.fold_value(value)
            self._table_rows[table_name] = delta.end_row
        self.built_from = built_from

    @staticmethod
    def _fold_text_delta(old: ColumnStats, column_delta) -> ColumnStats:
        """Update a dictionary-encoded text column's statistics.

        The backend dictionary is an append-only distinct set, so the
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
        """Update a generically collected column's statistics."""
        distinct = self._distinct_values.get(ref)
        if distinct is None:
            raise ArtifactError(
                f"no sufficient statistics recorded for column {ref}"
            )
        non_null = column_delta.non_null_values
        distinct.update(non_null)

        min_value = old.min_value
        max_value = old.max_value
        max_text_length = old.max_text_length
        if non_null:
            if old.data_type is DataType.TEXT:
                as_text = [str(value) for value in non_null]
                delta_longest = max(len(value) for value in as_text)
                max_text_length = (
                    delta_longest
                    if max_text_length is None or delta_longest > max_text_length
                    else max_text_length
                )
                pool = as_text if min_value is None else [min_value, *as_text]
                min_value = min(pool)
                max_value = max(
                    as_text if max_value is None else [max_value, *as_text]
                )
            elif old.non_null_count and old.min_value is None:
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
                as_float = float(value)
                total += as_float
                sum_squares += as_float * as_float
            self._numeric_moments[ref] = (total, sum_squares)
            count = old.non_null_count + len(non_null)
            if count:
                mean = total / count
                variance = max(0.0, sum_squares / count - mean * mean)
                stddev = variance ** 0.5

        return replace(
            old,
            row_count=old.row_count + len(column_delta.values),
            null_count=old.null_count + column_delta.null_count,
            distinct_count=len(distinct),
            min_value=min_value,
            max_value=max_value,
            max_text_length=max_text_length,
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
        (hand-assembled catalogs, bundles built before sketches existed)."""
        sketch_map = getattr(self, "_sketches", None)
        if not sketch_map:
            return None
        return sketch_map.get(ref)

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
