"""Cost-based join ordering of Project-Join queries.

The planner orders a :class:`~repro.query.pj_query.ProjectJoinQuery`'s
joins straight from its tables and edges, in one greedy pass:

* cardinalities come from the
  :class:`~repro.dataset.catalog.MetadataCatalog`'s exact row and
  distinct counts when one is attached (live ``num_rows`` otherwise),
  and joins are estimated under the classic containment assumption
  ``|L ⋈ R| ≈ |L|·|R| / max(d(L.key), d(R.key))``;
* the order starts from the smallest table and always expands with the
  edge minimizing the estimated intermediate result.

:meth:`Planner.join_order` is what the executor lowers (and caches per
join structure, :func:`~repro.query.plan.join_prefix_key`), and
:meth:`Planner.structure_rows` the same pass's estimate of the last
join, the scheduler's cost signal.  Orders depend only on query
structure and statistics, never on a request's predicates, so they are
deterministic.  :meth:`Planner.plan_query` draws the order as a plan
tree for ``prism explain --plan``, where predicate selectivities
(:meth:`Planner.filter_selectivity`) annotate the filtered scans.

The planner memoizes each join structure's ordering pass in
:attr:`Planner.memos`.  An executor points them at its cache of the
database's current artifact key (see
:class:`~repro.query.executor.ExecutorCache`), so engines over one
artifact bundle share them and a new key starts them empty.
"""

from __future__ import annotations

import math
import numbers
from typing import TYPE_CHECKING, Optional

from repro.constraints.values import Range
from repro.dataset.database import Database
from repro.dataset.schema import ColumnRef, ForeignKey
from repro.dataset.types import to_float
from repro.errors import QueryError, SchemaError
from repro.query.pj_query import ProjectJoinQuery
from repro.query.plan import (
    Filter,
    Join,
    PlanNode,
    PredicateSpec,
    Project,
    Scan,
    join_prefix_key,
)

if TYPE_CHECKING:
    from repro.dataset.catalog import ColumnStats, MetadataCatalog

__all__ = ["Planner", "PlannerMemos", "JoinOrder", "DEFAULT_FILTER_SELECTIVITY"]

# Selectivity assumed for a predicate on a column with unknown statistics.
DEFAULT_FILTER_SELECTIVITY = 0.1


class JoinOrder:
    """A query's join order: the start table, then one edge per step,
    each attaching one new table.

    An order from the planner's greedy pass also records ``rows``, its
    estimate after the last join (the start table's rows without joins).
    """

    __slots__ = ("start_table", "edges", "rows")

    def __init__(
        self,
        start_table: str,
        edges: tuple[ForeignKey, ...],
        rows: float = 0.0,
    ):
        self.start_table = start_table
        self.edges = edges
        self.rows = rows

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"JoinOrder(start={self.start_table!r}, edges={self.edges!r})"


class PlannerMemos:
    """The planner's memos for one artifact key: each join structure's
    :class:`JoinOrder`, keyed by :func:`~repro.query.plan.join_prefix_key`.

    Entries are written once and never changed, so planners on several
    threads may share one instance without a lock; a racing duplicate
    computes the same value.
    """

    __slots__ = ("structure_orders",)

    def __init__(self) -> None:
        self.structure_orders: dict[tuple, JoinOrder] = {}


def _range_share(tag: Range, stats: "ColumnStats") -> Optional[float]:
    """The share of a numeric column's ``[min, max]`` that ``tag``
    covers, assuming values spread uniformly over it (an open bound
    takes the column's own).  A column whose min equals its max keeps
    all rows or none.  ``None`` when the column or a bound is not a
    number, or the span is not a finite positive float."""
    if not stats.is_numeric or stats.min_value is None or any(
        bound is not None and not isinstance(bound, numbers.Real)
        for bound in (tag.low, tag.high)
    ):
        return None
    if stats.min_value == stats.max_value:
        return 1.0 if tag.matches(stats.min_value) else 0.0
    low, high = to_float(stats.min_value), to_float(stats.max_value)
    span = high - low
    if not 0.0 < span < math.inf:
        return None
    start = low if tag.low is None else max(to_float(tag.low), low)
    stop = high if tag.high is None else min(to_float(tag.high), high)
    share = (stop - start) / span
    return min(share, 1.0) if share > 0.0 else 0.0  # a NaN bound keeps none


class Planner:
    """Orders joins against one database's statistics."""

    def __init__(
        self,
        database: Database,
        catalog: Optional["MetadataCatalog"] = None,
    ):
        """Create a planner.

        Args:
            database: the database plans execute against.
            catalog: optional :class:`~repro.dataset.catalog.MetadataCatalog`
                supplying row and distinct counts.  Without one the
                planner falls back to live table row counts and default
                selectivities — still deterministic, just less informed.

        The planner starts with memos of its own, kept for its lifetime;
        :meth:`use_memos` points it at others.
        """
        self._database = database
        self._catalog = catalog
        self.use_memos(PlannerMemos())

    def use_memos(self, memos: PlannerMemos) -> None:
        """Memoize into ``memos`` from now on.

        The executor calls this whenever the database's artifact key
        moves, with its cache of the new key.  Memos hold only what the
        database state and the catalog determine.
        """
        self.memos = memos

    # ------------------------------------------------------------------
    # Cardinality model
    # ------------------------------------------------------------------
    def table_rows(self, table: str) -> int:
        """Estimated row count of a base table."""
        catalog = self._catalog
        if catalog is not None:
            try:
                return catalog.table_row_count(table)
            except SchemaError:  # a table the catalog has no row count for
                pass
        return self._database.table(table).num_rows

    def _column_stats(self, table: str, column: str) -> Optional["ColumnStats"]:
        catalog = self._catalog
        if catalog is None:
            return None
        try:
            return catalog.stats(ColumnRef(table, column))
        except SchemaError:  # a column the catalog has no statistics for
            return None

    def _distinct_count(self, table: str, column: str) -> Optional[int]:
        stats = self._column_stats(table, column)
        return None if stats is None else stats.distinct_count

    def filter_selectivity(self, spec: PredicateSpec) -> float:
        """Estimated fraction of rows surviving one pushed predicate.

        A :class:`~repro.constraints.values.Range` over a numeric column
        keeps the share of the column's ``[min, max]`` it covers (an open
        bound takes the column's own), discounted by the column's NULL
        fraction.  A ``OneOf`` over ``d`` distinct values keeps ``k/d``.
        Otherwise a predicate on a column with ``d`` distinct values is
        assumed to keep ``1/d`` of the rows (an equality-flavoured
        estimate — most sample-constraint probes are); columns without
        statistics use :data:`DEFAULT_FILTER_SELECTIVITY`.
        """
        stats = self._column_stats(spec.table, spec.column)
        if stats is None:
            return DEFAULT_FILTER_SELECTIVITY
        tag = spec.tag
        if isinstance(tag, Range):
            share = _range_share(tag, stats)
            if share is not None:
                return share * (1.0 - stats.null_fraction)
        width = 1
        if not isinstance(tag, str):
            values = getattr(tag, "values", None)
            if isinstance(values, tuple) and values:
                width = len(values)
        if stats.distinct_count > 0:
            return min(1.0, width / stats.distinct_count)
        return DEFAULT_FILTER_SELECTIVITY

    def estimated_rows(self, plan: PlanNode) -> float:
        """Estimated output cardinality of any plan node."""
        if isinstance(plan, Scan):
            return float(self.table_rows(plan.table))
        if isinstance(plan, Filter):
            rows = self.estimated_rows(plan.child)
            for spec in plan.specs:
                rows *= self.filter_selectivity(spec)
            return max(rows, 1e-9)
        if isinstance(plan, Join):
            return self._join_rows(
                self.estimated_rows(plan.left),
                self.estimated_rows(plan.right),
                plan.edge,
            )
        if isinstance(plan, Project):
            return self.estimated_rows(plan.child)
        raise QueryError(f"cannot estimate unknown plan node {plan!r}")

    def _join_rows(
        self, left_rows: float, right_rows: float, edge: ForeignKey
    ) -> float:
        """The containment estimate ``L·R / max(d_child, d_parent)`` of
        one join edge; without distinct counts the parent table's rows
        stand in for the denominator."""
        child_distinct = self._distinct_count(edge.child_table, edge.child_column)
        parent_distinct = self._distinct_count(edge.parent_table, edge.parent_column)
        candidates = [d for d in (child_distinct, parent_distinct) if d]
        if candidates:
            denominator = float(max(candidates))
        else:
            denominator = max(
                float(self.table_rows(edge.parent_table)), 1.0
            )
        return max(left_rows * right_rows / max(denominator, 1.0), 1e-9)

    # ------------------------------------------------------------------
    # Join ordering
    # ------------------------------------------------------------------
    def _order(self, query: ProjectJoinQuery) -> JoinOrder:
        """One greedy cost-based ordering pass over ``query``.

        The order starts from the table with the fewest rows (ties by
        name) and always expands with the edge whose join is estimated
        smallest (ties by the edge's text).
        """
        input_rows = {
            table: float(self.table_rows(table)) for table in query.tables
        }
        start = min(input_rows, key=lambda table: (input_rows[table], table))
        joined = {start}
        current_rows = input_rows[start]
        remaining = list(query.joins)
        ordered: list[ForeignKey] = []
        while remaining:
            best: Optional[tuple[float, str, str, ForeignKey]] = None
            for edge in remaining:
                left, right = edge.tables()
                if (left in joined) == (right in joined):
                    continue
                new_table = left if right in joined else right
                cost = self._join_rows(current_rows, input_rows[new_table], edge)
                if best is None or (cost, str(edge)) < best[:2]:
                    best = (cost, str(edge), new_table, edge)
            if best is None:
                raise QueryError("join edges do not form a connected tree")
            current_rows, __, new_table, edge = best
            ordered.append(edge)
            joined.add(new_table)
            remaining.remove(edge)
        return JoinOrder(start, tuple(ordered), current_rows)

    def join_order(self, query: ProjectJoinQuery) -> JoinOrder:
        """The cost-based physical join order of ``query``.

        This is what the executor lowers to probe steps; it depends only
        on the query's join structure and the statistics, and the
        executor caches the lowered plan under the structure's prefix
        key.
        """
        return self._order(query)

    def structure_rows(self, query: ProjectJoinQuery) -> float:
        """Estimated result cardinality of a query's join structure in
        its planned order, memoized per canonical join prefix.

        This is the scheduler's cost signal: validating a filter means
        probing its join structure, so a structure estimated to join
        more rows costs more.
        """
        key = join_prefix_key(query)
        orders = self.memos.structure_orders
        order = orders.get(key)
        if order is None:
            order = orders.setdefault(key, self._order(query))
        return order.rows

    def plan_query(
        self,
        query: ProjectJoinQuery,
        predicates: tuple[PredicateSpec, ...] = (),
    ) -> PlanNode:
        """The plan tree of ``query``'s join order, for explain.

        The tree is left-deep: the start table's scan, then one
        :class:`~repro.query.plan.Join` per edge of :meth:`join_order`
        with the newly attached table's scan on the right, under a
        :class:`~repro.query.plan.Project`.  Each predicate sits in a
        :class:`~repro.query.plan.Filter` directly above its table's
        scan; predicates never change the order.
        """
        per_table: dict[str, list[PredicateSpec]] = {}
        for spec in predicates:
            per_table.setdefault(spec.table, []).append(spec)

        def leaf(table: str) -> PlanNode:
            specs = per_table.get(table)
            return Filter(Scan(table), tuple(specs)) if specs else Scan(table)

        order = self.join_order(query)
        plan = leaf(order.start_table)
        joined = {order.start_table}
        for edge in order.edges:
            left, right = edge.tables()
            new_table = right if left in joined else left
            plan = Join(plan, leaf(new_table), edge)
            joined.add(new_table)
        return Project(plan, query.projections)
