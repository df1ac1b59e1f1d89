"""Related-column discovery (step 1 of the paper's pipeline).

"Finding related columns is essentially finding columns in the database
matching at least a value constraint or metadata constraint" (§2.3).  For
every target-schema column this module computes the set of source columns
that could plausibly map to it:

* value constraints with literal seeds (exact keywords, disjunctions) are
  resolved through the inverted index;
* value constraints without seeds (ranges, comparison predicates) are first
  screened against the metadata catalog (type and min/max overlap) and then
  confirmed by one column mask (:meth:`ValueConstraint.mask`) on columns
  within the scan limit — the same work an index-only DBMS probe would do;
* metadata constraints filter the surviving columns through the catalog.

Sample-constraint validation (which requires joins) is deliberately *not*
done here; that is step 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.constraints.metadata import MetadataConstraint
from repro.constraints.spec import MappingSpec
from repro.constraints.values import (
    AnyValue,
    Conjunction,
    Disjunction,
    ExactValue,
    OneOf,
    Predicate,
    Range,
    ValueConstraint,
)
from repro.dataset.catalog import ColumnStats, MetadataCatalog
from repro.dataset.database import Database
from repro.dataset.index import InvertedIndex
from repro.dataset.schema import ColumnRef
from repro.dataset.types import to_float

__all__ = ["RelatedColumns", "RelatedColumnFinder"]


@dataclass
class RelatedColumns:
    """Related columns per target-schema position."""

    per_position: dict[int, set[ColumnRef]] = field(default_factory=dict)

    def columns_for(self, position: int) -> set[ColumnRef]:
        """Related columns for one target position (empty set if none)."""
        return self.per_position.get(position, set())

    def constrained_positions(self) -> list[int]:
        """Positions that actually have related-column sets recorded."""
        return sorted(self.per_position)

    def all_tables(self) -> set[str]:
        """Every table owning at least one related column."""
        tables: set[str] = set()
        for columns in self.per_position.values():
            tables.update(ref.table for ref in columns)
        return tables

    @property
    def total_columns(self) -> int:
        """Total number of (position, column) pairs."""
        return sum(len(columns) for columns in self.per_position.values())

    def is_satisfiable(self) -> bool:
        """False when some constrained position has no related column."""
        return all(columns for columns in self.per_position.values())


class RelatedColumnFinder:
    """Computes related columns for a mapping specification."""

    def __init__(
        self,
        database: Database,
        index: InvertedIndex,
        catalog: MetadataCatalog,
        scan_limit: int = 100_000,
    ):
        self._database = database
        self._index = index
        self._catalog = catalog
        self._scan_limit = scan_limit

    def find(self, spec: MappingSpec) -> RelatedColumns:
        """Related columns for every constrained target position."""
        related = RelatedColumns()
        for position in range(spec.num_columns):
            value_constraints = [
                constraint
                for constraint in spec.value_constraints_for(position)
                if not isinstance(constraint, AnyValue)
            ]
            metadata_constraint = spec.metadata_for(position)
            if not value_constraints and metadata_constraint is None:
                # Unconstrained target column: handled later by the candidate
                # generator (it may map to any column of the join tree).
                continue
            columns = self._columns_for_position(value_constraints, metadata_constraint)
            related.per_position[position] = columns
        return related

    # ------------------------------------------------------------------
    # Per-position resolution
    # ------------------------------------------------------------------
    def _columns_for_position(
        self,
        value_constraints: list[ValueConstraint],
        metadata_constraint: Optional[MetadataConstraint],
    ) -> set[ColumnRef]:
        if value_constraints:
            candidates: Optional[set[ColumnRef]] = None
            for constraint in value_constraints:
                matching = self._columns_matching_value(constraint)
                # Every sample must be containable, so a column must match
                # the value constraint of each sample that constrains this
                # position (intersection across samples).
                candidates = matching if candidates is None else candidates & matching
            columns = candidates or set()
        else:
            columns = set(self._catalog.columns())
        if metadata_constraint is not None:
            columns = {
                ref
                for ref in columns
                if metadata_constraint.matches(self._catalog.stats(ref))
            }
        return columns

    def _columns_matching_value(self, constraint: ValueConstraint) -> set[ColumnRef]:
        seeds = constraint.seed_values()
        if seeds and self._only_positive_literals(constraint):
            return self._index.columns_containing_any(seeds)
        # No usable literals (range / inequality / negation): screen with the
        # catalog, then confirm with a bounded scan.
        columns: set[ColumnRef] = set()
        for ref in self._catalog.columns():
            stats = self._catalog.stats(ref)
            if not self._could_match(stats, constraint):
                continue
            if self._scan_confirms(ref, constraint):
                columns.add(ref)
        return columns

    @staticmethod
    def _only_positive_literals(constraint: ValueConstraint) -> bool:
        """Whether matching rows necessarily contain one of the seed literals."""
        if isinstance(constraint, (ExactValue, OneOf)):
            return True
        if isinstance(constraint, Disjunction):
            return all(
                RelatedColumnFinder._only_positive_literals(part)
                for part in constraint.parts
            )
        if isinstance(constraint, Predicate):
            return constraint.op == "=="
        return False

    def _could_match(self, stats: ColumnStats, constraint: ValueConstraint) -> bool:
        """Catalog-level screen: can this column possibly satisfy the constraint?"""
        if stats.non_null_count == 0:
            return False
        if isinstance(constraint, Range):
            if not stats.is_numeric:
                return False
            low = _as_float(constraint.low)
            high = _as_float(constraint.high)
            col_min = _as_float(stats.min_value)
            col_max = _as_float(stats.max_value)
            if col_min is None or col_max is None:
                return True
            if low is not None and col_max < low:
                return False
            if high is not None and col_min > high:
                return False
            return True
        if isinstance(constraint, Predicate) and constraint.op in (">", ">=", "<", "<="):
            constant = _as_float(constraint.constant)
            if constant is None:
                return True
            if not stats.is_numeric:
                return False
            col_min = _as_float(stats.min_value)
            col_max = _as_float(stats.max_value)
            if col_min is None or col_max is None:
                return True
            if constraint.op in (">", ">=") and col_max < constant:
                return False
            if constraint.op in ("<", "<=") and col_min > constant:
                return False
            return True
        if isinstance(constraint, Conjunction):
            return all(self._could_match(stats, part) for part in constraint.parts)
        if isinstance(constraint, Disjunction):
            return any(self._could_match(stats, part) for part in constraint.parts)
        return True

    def _scan_confirms(self, ref: ColumnRef, constraint: ValueConstraint) -> bool:
        """Confirm a catalog screen by scanning the column.

        A column longer than the scan limit gets the benefit of the
        doubt; otherwise some cell must satisfy ``constraint``.
        """
        table = self._database.table(ref.table)
        if table.num_rows > self._scan_limit:
            return True
        kernel = table.backend.column_kernel(
            ref.table, table.column_position(ref.column)
        )
        return bool(constraint.mask(kernel).any())


def _as_float(value) -> Optional[float]:
    if value is None:
        return None
    try:
        return to_float(value)
    except (TypeError, ValueError):
        return None
