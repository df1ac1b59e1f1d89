"""Project-Join (PJ) query model.

The paper restricts synthesized schema mappings to Project-Join queries
(§2.1, "System Output").  A :class:`ProjectJoinQuery` is an ordered tuple of
projected columns (one per target-schema column) plus a set of foreign-key
join edges forming a tree over the participating tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from repro.dataset.database import Database
from repro.dataset.schema import ColumnRef, ForeignKey
from repro.errors import QueryError

__all__ = ["ProjectJoinQuery"]


@dataclass(frozen=True)
class ProjectJoinQuery:
    """An immutable Project-Join query.

    Attributes:
        projections: projected columns, in target-schema order.
        joins: foreign-key edges; must form a tree whose tables include
            every projection's table.
    """

    projections: tuple[ColumnRef, ...]
    joins: tuple[ForeignKey, ...] = ()

    def __post_init__(self) -> None:
        if not self.projections:
            raise QueryError("a PJ query must project at least one column")
        object.__setattr__(self, "projections", tuple(self.projections))
        object.__setattr__(self, "joins", tuple(self.joins))

    @classmethod
    def over_tree(
        cls,
        projections: tuple[ColumnRef, ...],
        joins: tuple[ForeignKey, ...],
        tables: frozenset[str],
        prefix_key: tuple,
    ) -> "ProjectJoinQuery":
        """A query whose caller already holds its tables and its join
        prefix key (:func:`~repro.query.plan.join_prefix_key`), computed
        from the same join tree: both are stored as the query would cache
        them, so neither is computed again."""
        query = cls(projections, joins)
        cache = query.__dict__
        cache["_tables"] = tables
        cache["_prefix_key"] = prefix_key
        return query

    # ------------------------------------------------------------------
    # Derived structure
    # ------------------------------------------------------------------
    @property
    def tables(self) -> frozenset[str]:
        """All tables referenced by projections or joins.

        Computed once and cached on the (immutable) query: the planner,
        the prefix-grouping driver and validation all ask for this
        repeatedly on hot paths.
        """
        cached = self.__dict__.get("_tables")
        if cached is None:
            tables = {ref.table for ref in self.projections}
            for edge in self.joins:
                tables.update(edge.tables())
            cached = frozenset(tables)
            object.__setattr__(self, "_tables", cached)
        return cached

    @property
    def join_size(self) -> int:
        """Number of join edges (0 for a single-table query)."""
        return len(self.joins)

    @property
    def width(self) -> int:
        """Number of projected columns."""
        return len(self.projections)

    def projection_positions(self, table: str) -> list[int]:
        """Positions of projections drawn from ``table``."""
        return [
            position
            for position, ref in enumerate(self.projections)
            if ref.table == table
        ]

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def is_tree(self) -> bool:
        """Whether the join edges form a single tree over the tables.

        An empty join set is a tree only when all projections come from a
        single table.
        """
        tables = self.tables
        if not self.joins:
            return len(tables) == 1
        # A connected graph with |V| - 1 edges is a tree.
        edge_tables: set[str] = set()
        for edge in self.joins:
            edge_tables.update(edge.tables())
        if not tables <= edge_tables | {next(iter(tables))}:
            # Some projected table is not touched by any join edge.
            projected = {ref.table for ref in self.projections}
            if not projected <= edge_tables:
                return False
        if len(self.joins) != len(edge_tables) - 1:
            return False
        return self._connected(edge_tables)

    def _connected(self, tables: set[str]) -> bool:
        adjacency: dict[str, set[str]] = {table: set() for table in tables}
        for edge in self.joins:
            left, right = edge.tables()
            adjacency[left].add(right)
            adjacency[right].add(left)
        start = next(iter(tables))
        seen = {start}
        stack = [start]
        while stack:
            current = stack.pop()
            for neighbor in adjacency[current]:
                if neighbor not in seen:
                    seen.add(neighbor)
                    stack.append(neighbor)
        return seen == tables

    def validate(self, database: Database) -> None:
        """Check every referenced table/column exists and joins form a tree."""
        for ref in self.projections:
            table = database.table(ref.table)
            if not table.has_column(ref.column):
                raise QueryError(f"unknown projected column: {ref}")
        for edge in self.joins:
            for table_name, column_name in (
                (edge.child_table, edge.child_column),
                (edge.parent_table, edge.parent_column),
            ):
                table = database.table(table_name)
                if not table.has_column(column_name):
                    raise QueryError(
                        f"join references unknown column {table_name}.{column_name}"
                    )
        if not self.is_tree():
            raise QueryError("join edges do not form a tree over the query tables")
        projected_tables = {ref.table for ref in self.projections}
        join_tables: set[str] = set()
        for edge in self.joins:
            join_tables.update(edge.tables())
        if self.joins and not projected_tables <= join_tables:
            raise QueryError(
                "every projected table must participate in the join tree"
            )

    # ------------------------------------------------------------------
    # Derivation helpers
    # ------------------------------------------------------------------
    def subquery(
        self,
        tables: Iterable[str],
        positions: Optional[Sequence[int]] = None,
    ) -> "ProjectJoinQuery":
        """A sub-PJ-query restricted to ``tables``.

        Keeps only join edges with both endpoints inside ``tables`` and, by
        default, only the projections whose table is inside ``tables``.
        This is the operation used to derive *filters* from candidates.
        """
        table_set = set(tables)
        kept_joins = tuple(
            edge for edge in self.joins if set(edge.tables()) <= table_set
        )
        if positions is None:
            kept_projections = tuple(
                ref for ref in self.projections if ref.table in table_set
            )
        else:
            kept_projections = tuple(self.projections[i] for i in positions)
        if not kept_projections:
            raise QueryError("subquery would project no columns")
        return ProjectJoinQuery(kept_projections, kept_joins)

    def signature(self) -> tuple:
        """A hashable canonical signature (used for deduplication).

        Computed once and cached on the query, like :attr:`tables`: the
        validator keys every probe of a filter with it.
        """
        cached = self.__dict__.get("_signature")
        if cached is None:
            cached = (
                self.projections,
                tuple(sorted((str(edge) for edge in self.joins))),
            )
            object.__setattr__(self, "_signature", cached)
        return cached

    def __str__(self) -> str:
        from repro.query.sql import to_sql

        return to_sql(self)
