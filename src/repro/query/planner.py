"""Cost-based join ordering of Project-Join queries.

The planner orders a :class:`~repro.query.pj_query.ProjectJoinQuery`'s
joins straight from its tables and edges, in one greedy pass:

* cardinalities come from the
  :class:`~repro.dataset.catalog.MetadataCatalog` when one is attached
  (live ``num_rows`` otherwise), and joins are estimated under the
  classic containment assumption
  ``|L ⋈ R| ≈ |L|·|R| / max(d(L.key), d(R.key))``, or from the HLL
  sketches' key overlap when sketches are on;
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

The planner memoizes each edge's sketched selectivity and each join
structure's ordering pass in :attr:`Planner.memos`.  An executor points
them at its cache of the database's current artifact key (see
:class:`~repro.query.executor.ExecutorCache`), so engines over one
artifact bundle share them and a new key starts them empty.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.dataset.database import Database
from repro.dataset.schema import ColumnRef, ForeignKey
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
    from repro.dataset.catalog import MetadataCatalog

__all__ = ["Planner", "PlannerMemos", "JoinOrder", "DEFAULT_FILTER_SELECTIVITY"]

# Selectivity assumed for a predicate on a column with unknown statistics.
DEFAULT_FILTER_SELECTIVITY = 0.1

_MISSING = object()


class JoinOrder:
    """A query's join order: the start table, then one edge per step,
    each attaching one new table.

    An order from the planner's greedy pass also records what the pass
    found: ``rows``, its estimate after the last join (the start table's
    rows without joins), and ``sketch_estimates``, the number of joins
    it priced from sketches rather than raw counts.
    """

    __slots__ = ("start_table", "edges", "rows", "sketch_estimates")

    def __init__(
        self,
        start_table: str,
        edges: tuple[ForeignKey, ...],
        rows: float = 0.0,
        sketch_estimates: int = 0,
    ):
        self.start_table = start_table
        self.edges = edges
        self.rows = rows
        self.sketch_estimates = sketch_estimates

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"JoinOrder(start={self.start_table!r}, edges={self.edges!r})"


class PlannerMemos:
    """The planner's memos for one artifact key: each join edge's
    sketched selectivity (``None`` without sketches), and each join
    structure's :class:`JoinOrder`, keyed by
    :func:`~repro.query.plan.join_prefix_key`.

    Entries are written once and never changed, so planners on several
    threads may share one instance without a lock; a racing duplicate
    computes the same value.
    """

    __slots__ = ("edge_selectivity", "structure_orders")

    def __init__(self) -> None:
        self.edge_selectivity: dict[tuple, Optional[float]] = {}
        self.structure_orders: dict[tuple, JoinOrder] = {}


class Planner:
    """Orders joins against one database's statistics."""

    def __init__(
        self,
        database: Database,
        catalog: Optional["MetadataCatalog"] = None,
        *,
        use_sketches: bool = True,
        stats: Optional[object] = None,
    ):
        """Create a planner.

        Args:
            database: the database plans execute against.
            catalog: optional :class:`~repro.dataset.catalog.MetadataCatalog`
                supplying row and distinct counts.  Without one the
                planner falls back to live table row counts and default
                selectivities — still deterministic, just less informed.
            use_sketches: consult the catalog's statistics sketches
                (HLL join-key overlap, histograms) when present.  Off,
                estimation falls back to the raw-count containment
                model — the baseline the sketch benchmark compares
                against.
            stats: optional counter sink (typically the executor's
                :class:`~repro.query.executor.ExecutionStats`) whose
                ``sketch_estimates_used`` field is bumped whenever a
                sketch, rather than raw counts, produced an estimate.

        The planner starts with memos of its own, kept for its lifetime;
        :meth:`use_memos` points it at others.
        """
        self._database = database
        self._catalog = catalog
        self._use_sketches = use_sketches
        self._stats = stats
        self._counting = True
        self.use_memos(PlannerMemos())

    def use_memos(self, memos: PlannerMemos) -> None:
        """Memoize into ``memos`` from now on.

        The executor calls this whenever the database's artifact key
        moves, with its cache of the new key.  Memos hold only what the
        database state and the catalog determine; which structures this
        planner has counted (see :meth:`structure_rows`) starts over.
        """
        self.memos = memos
        self._estimated: set[tuple] = set()

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

    def _distinct_count(self, table: str, column: str) -> Optional[int]:
        catalog = self._catalog
        if catalog is None:
            return None
        try:
            stats = catalog.stats(ColumnRef(table, column))
        except SchemaError:  # a column the catalog has no statistics for
            return None
        return stats.distinct_count

    def _column_sketches(self, table: str, column: str):
        """The catalog's sketches for one column, or ``None``."""
        catalog = self._catalog
        if catalog is None or not self._use_sketches:
            return None
        return catalog.sketches(ColumnRef(table, column))

    def _count_sketch_estimate(self) -> None:
        stats = self._stats
        if stats is not None and self._counting:
            stats.sketch_estimates_used += 1

    def filter_selectivity(self, spec: PredicateSpec) -> float:
        """Estimated fraction of rows surviving one pushed predicate.

        When the spec's tag is a :class:`~repro.constraints.values.Range`
        over a column with an equi-depth histogram, selectivity comes
        from the histogram's quantiles (discounted by the column's NULL
        fraction).  A ``OneOf`` over ``d`` distinct values keeps ``k/d``.
        Otherwise a predicate on a column with ``d`` distinct values is
        assumed to keep ``1/d`` of the rows (an equality-flavoured
        estimate — most sample-constraint probes are); columns without
        statistics use :data:`DEFAULT_FILTER_SELECTIVITY`.
        """
        sketched = self._sketch_filter_selectivity(spec)
        if sketched is not None:
            self._count_sketch_estimate()
            return sketched
        return self._raw_filter_selectivity(spec)

    def _raw_filter_selectivity(self, spec: PredicateSpec) -> float:
        distinct = self._distinct_count(spec.table, spec.column)
        width = 1
        tag = spec.tag
        if not isinstance(tag, str):
            values = getattr(tag, "values", None)
            if isinstance(values, tuple) and values:
                width = len(values)
        if distinct and distinct > 0:
            return min(1.0, width / distinct)
        return DEFAULT_FILTER_SELECTIVITY

    def _sketch_filter_selectivity(
        self, spec: PredicateSpec
    ) -> Optional[float]:
        """Histogram-based selectivity for Range-tagged predicates, or
        ``None`` when no sketch applies (the raw model decides then)."""
        tag = spec.tag
        if isinstance(tag, str) or not hasattr(tag, "matches"):
            return None
        low = getattr(tag, "low", None)
        high = getattr(tag, "high", None)
        if (low is None and high is None) or not hasattr(tag, "low_inclusive"):
            return None
        if isinstance(low, str) or isinstance(high, str):
            return None
        sketches = self._column_sketches(spec.table, spec.column)
        if sketches is None or sketches.histogram is None:
            return None
        selectivity = sketches.histogram.selectivity(low, high)
        try:
            stats = self._catalog.stats(ColumnRef(spec.table, spec.column))
            selectivity *= 1.0 - stats.null_fraction
        except SchemaError:  # sketches without column statistics
            pass
        return min(1.0, max(selectivity, 0.0))

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

    def _join_rows(self, left_rows: float, right_rows: float, edge: ForeignKey) -> float:
        rows, _raw, _used = self.join_estimate_detail(
            left_rows, right_rows, edge
        )
        return rows

    def join_estimate_detail(
        self,
        left_rows: float,
        right_rows: float,
        edge: ForeignKey,
        count: bool = True,
    ) -> tuple[float, float, bool]:
        """``(estimate, raw_estimate, used_sketch)`` for one join edge.

        The raw estimate is the classic containment assumption
        ``L·R / max(d_child, d_parent)``.  With HLL sketches on both key
        columns the estimate instead uses the sketched key overlap:
        merging the two sketches gives ``|keys(L) ∪ keys(R)|``, so by
        inclusion–exclusion the join predicate's selectivity is
        ``|∩| / (d_child · d_parent)`` — which collapses toward zero on
        dangling-key edges where containment badly over-counts.
        """
        raw = self._raw_join_rows(left_rows, right_rows, edge)
        selectivity = self._sketch_edge_selectivity(edge)
        if selectivity is None:
            return raw, raw, False
        if count:
            self._count_sketch_estimate()
        estimate = max(left_rows * right_rows * selectivity, 1e-9)
        return estimate, raw, True

    def _raw_join_rows(
        self, left_rows: float, right_rows: float, edge: ForeignKey
    ) -> float:
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

    def _sketch_edge_selectivity(self, edge: ForeignKey) -> Optional[float]:
        """Sketched join-predicate selectivity ``|∩| / (d_c · d_p)``,
        memoized per edge in :attr:`memos`."""
        key = (
            edge.child_table,
            edge.child_column,
            edge.parent_table,
            edge.parent_column,
        )
        memo = self.memos.edge_selectivity
        selectivity = memo.get(key, _MISSING)
        if selectivity is not _MISSING:
            return selectivity
        selectivity = None
        child = self._column_sketches(edge.child_table, edge.child_column)
        parent = self._column_sketches(edge.parent_table, edge.parent_column)
        if (
            child is not None
            and parent is not None
            and child.hll is not None
            and parent.hll is not None
        ):
            child_distinct = child.hll.estimate()
            parent_distinct = parent.hll.estimate()
            union = child.hll.union_estimate(parent.hll)
            overlap = max(0.0, child_distinct + parent_distinct - union)
            overlap = min(overlap, child_distinct, parent_distinct)
            denominator = max(child_distinct * parent_distinct, 1.0)
            selectivity = min(1.0, overlap / denominator)
        return memo.setdefault(key, selectivity)

    # ------------------------------------------------------------------
    # Join ordering
    # ------------------------------------------------------------------
    def _order(self, query: ProjectJoinQuery) -> JoinOrder:
        """One greedy cost-based ordering pass over ``query``.

        The order starts from the table with the fewest rows (ties by
        name) and always expands with the edge whose join is estimated
        smallest (ties by the edge's text).  The pass counts the joins
        it prices from sketches in the result, not in :attr:`stats`.
        """
        input_rows = {
            table: float(self.table_rows(table)) for table in query.tables
        }
        start = min(input_rows, key=lambda table: (input_rows[table], table))
        joined = {start}
        current_rows = input_rows[start]
        remaining = list(query.joins)
        ordered: list[ForeignKey] = []
        sketched = 0
        while remaining:
            best: Optional[tuple[float, str, str, ForeignKey]] = None
            for edge in remaining:
                left, right = edge.tables()
                if (left in joined) == (right in joined):
                    continue
                new_table = left if right in joined else right
                cost, __, used = self.join_estimate_detail(
                    current_rows, input_rows[new_table], edge, count=False
                )
                sketched += used
                if best is None or (cost, str(edge)) < best[:2]:
                    best = (cost, str(edge), new_table, edge)
            if best is None:
                raise QueryError("join edges do not form a connected tree")
            current_rows, __, new_table, edge = best
            ordered.append(edge)
            joined.add(new_table)
            remaining.remove(edge)
        return JoinOrder(start, tuple(ordered), current_rows, sketched)

    def join_order(self, query: ProjectJoinQuery) -> JoinOrder:
        """The cost-based physical join order of ``query``.

        This is what the executor lowers to probe steps; it depends only
        on the query's join structure and the statistics, and the
        executor caches the lowered plan under the structure's prefix
        key, counting the pass's ``sketch_estimates`` when it first
        plans the structure.
        """
        return self._order(query)

    def structure_rows(self, query: ProjectJoinQuery) -> float:
        """Estimated result cardinality of a query's join structure in
        its planned order, memoized per canonical join prefix.

        This is the scheduler's cost signal: validating a filter means
        probing its join structure, and the sketched estimate prices a
        dangling- or disjoint-key join as nearly free (its semijoin dies
        immediately) where raw containment would price it as huge.

        The first estimate of each structure under the current memos
        counts its pass's sketched joins in ``sketch_estimates_used``,
        whether this planner ran the pass or found it memoized by
        another, so the counter does not depend on what other engines
        sharing the memos did first.
        """
        key = join_prefix_key(query)
        orders = self.memos.structure_orders
        order = orders.get(key)
        if order is None:
            order = orders.setdefault(key, self._order(query))
        if key not in self._estimated:
            self._estimated.add(key)
            if self._stats is not None:
                self._stats.sketch_estimates_used += order.sketch_estimates
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

    def node_estimate(self, plan: PlanNode) -> tuple[float, float, str]:
        """``(rows, raw_rows, source)`` for one plan node's own estimate.

        ``source`` is ``"sketch"`` when sketch statistics (HLL overlap,
        histogram) decided this node's estimate and ``"raw"`` when the
        raw-count model did; ``raw_rows`` is what the raw model alone
        would have produced for the node (its inputs still use the
        active model).  Used by the explain renderer — never bumps the
        ``sketch_estimates_used`` counter.
        """
        was_counting = self._counting
        self._counting = False
        try:
            rows = self.estimated_rows(plan)
            if isinstance(plan, Join):
                left = self.estimated_rows(plan.left)
                right = self.estimated_rows(plan.right)
                estimate, raw, used = self.join_estimate_detail(
                    left, right, plan.edge, count=False
                )
                return estimate, raw, "sketch" if used else "raw"
            if isinstance(plan, Filter):
                child = self.estimated_rows(plan.child)
                raw = child
                used = False
                for spec in plan.specs:
                    if self._sketch_filter_selectivity(spec) is not None:
                        used = True
                    raw *= self._raw_filter_selectivity(spec)
                return rows, max(raw, 1e-9), "sketch" if used else "raw"
            return rows, rows, "raw"
        finally:
            self._counting = was_counting
