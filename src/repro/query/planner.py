"""Cost-based optimization of logical plans.

The planner turns the raw IR from :func:`~repro.query.plan.logical_plan_for_query`
into an optimized plan the executor can lower to physical probe steps:

* **predicate pushdown** is structural — cell predicates always sit in a
  :class:`~repro.query.plan.Filter` directly above their table's
  :class:`~repro.query.plan.Scan` (the raw builder already places them
  there; the planner preserves the invariant while reordering);
* **join reordering** is cost-based: cardinalities come from the
  :class:`~repro.dataset.catalog.MetadataCatalog` when one is attached
  (live ``num_rows`` otherwise), filters discount their input by a
  distinct-count-derived selectivity, and joins are estimated under the
  classic containment assumption
  ``|L ⋈ R| ≈ |L|·|R| / max(d(L.key), d(R.key))``.  The greedy order
  starts from the cheapest (most selective) input and always expands
  with the edge minimizing the estimated intermediate result;
* **common-join-prefix identification** groups plans or queries whose
  join structure is identical (:meth:`Planner.prefix_key`,
  :func:`~repro.query.plan.join_prefix_key`), the basis for batched
  cross-candidate validation and physical-plan sharing.

Plans depend only on query structure and statistics, never on a request's
concrete predicate callables, so optimized orders are deterministic and
cacheable by canonical plan hash.
"""

from __future__ import annotations

from typing import Optional

from repro.dataset.database import Database
from repro.dataset.schema import ColumnRef, ForeignKey
from repro.errors import QueryError
from repro.query.pj_query import ProjectJoinQuery
from repro.query.plan import (
    Exists,
    Filter,
    Join,
    PlanNode,
    PredicateSpec,
    Project,
    Scan,
    join_prefix_key,
    logical_plan_for_query,
)

__all__ = ["Planner", "JoinOrder", "DEFAULT_FILTER_SELECTIVITY"]

# Selectivity assumed for a predicate on a column with unknown statistics.
DEFAULT_FILTER_SELECTIVITY = 0.1


class JoinOrder:
    """The physical join order derived from an optimized plan."""

    __slots__ = ("start_table", "edges")

    def __init__(self, start_table: str, edges: tuple[ForeignKey, ...]):
        self.start_table = start_table
        self.edges = edges

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"JoinOrder(start={self.start_table!r}, edges={self.edges!r})"


class Planner:
    """Optimizes logical plans against one database's statistics."""

    def __init__(
        self,
        database: Database,
        catalog: Optional[object] = None,
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
        """
        self._database = database
        self._catalog = catalog
        self._use_sketches = use_sketches
        self._stats = stats
        # Memoized sketch-derived quantities, invalidated when the
        # catalog folds a delta (built_from changes).
        self._edge_memo: dict = {}
        self._structure_memo: dict = {}
        self._memo_version: object = None
        self._counting = True

    # ------------------------------------------------------------------
    # Cardinality model
    # ------------------------------------------------------------------
    def table_rows(self, table: str) -> int:
        """Estimated row count of a base table."""
        catalog = self._catalog
        if catalog is not None:
            try:
                return catalog.table_row_count(table)
            except Exception:
                pass
        return self._database.table(table).num_rows

    def _distinct_count(self, table: str, column: str) -> Optional[int]:
        catalog = self._catalog
        if catalog is None:
            return None
        try:
            stats = catalog.stats(ColumnRef(table, column))
        except Exception:
            return None
        return stats.distinct_count

    def _column_sketches(self, table: str, column: str):
        """The catalog's sketches for one column, or ``None``."""
        catalog = self._catalog
        if catalog is None or not self._use_sketches:
            return None
        getter = getattr(catalog, "sketches", None)
        if getter is None:
            return None
        try:
            return getter(ColumnRef(table, column))
        except Exception:
            return None

    def _count_sketch_estimate(self) -> None:
        stats = self._stats
        if stats is not None and self._counting:
            stats.sketch_estimates_used += 1

    def _memo_guard(self) -> None:
        """Drop sketch memos when the catalog has folded a delta."""
        version = getattr(self._catalog, "built_from", None)
        if version != self._memo_version:
            self._edge_memo.clear()
            self._structure_memo.clear()
            self._memo_version = version

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
        except Exception:
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
        if isinstance(plan, (Project, Exists)):
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
        memoized per edge until the catalog folds a delta."""
        self._memo_guard()
        key = (
            edge.child_table,
            edge.child_column,
            edge.parent_table,
            edge.parent_column,
        )
        if key in self._edge_memo:
            return self._edge_memo[key]
        selectivity: Optional[float] = None
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
        self._edge_memo[key] = selectivity
        return selectivity

    # ------------------------------------------------------------------
    # Optimization
    # ------------------------------------------------------------------
    def optimize(self, plan: PlanNode) -> PlanNode:
        """Reorder a plan's joins by estimated cost (cheapest first).

        The result is a left-deep plan with the same Project/Exists
        wrappers and the same filtered scans; only the join order (and
        therefore which table starts the executor's walk and which side
        each step attaches) changes.  Optimization is a no-op for join-free plans.
        """
        wrappers: list[PlanNode] = []
        body = plan
        while isinstance(body, (Exists, Project)):
            wrappers.append(body)
            body = body.child
        if not isinstance(body, Join):
            return plan

        inputs: dict[str, PlanNode] = {}
        edges: list[ForeignKey] = []
        stack: list[PlanNode] = [body]
        while stack:
            node = stack.pop()
            if isinstance(node, Join):
                edges.append(node.edge)
                stack.extend((node.left, node.right))
            else:
                table = self._input_table(node)
                inputs[table] = node
        order = self._order_edges(inputs, edges)
        ordered_body: PlanNode = inputs[order.start_table]
        joined = {order.start_table}
        for edge in order.edges:
            left_table, right_table = edge.tables()
            new_table = right_table if left_table in joined else left_table
            ordered_body = Join(ordered_body, inputs[new_table], edge)
            joined.add(new_table)

        for wrapper in reversed(wrappers):
            if isinstance(wrapper, Project):
                ordered_body = Project(ordered_body, wrapper.columns)
            else:
                ordered_body = Exists(ordered_body)
        return ordered_body

    @staticmethod
    def _input_table(node: PlanNode) -> str:
        if isinstance(node, Scan):
            return node.table
        if isinstance(node, Filter) and isinstance(node.child, Scan):
            return node.child.table
        raise QueryError(
            f"join input must be a (filtered) scan, got {node!r}"
        )

    def _order_edges(
        self, inputs: dict[str, PlanNode], edges: list[ForeignKey]
    ) -> JoinOrder:
        """Greedy cost-based ordering of a join tree's edges."""
        input_rows = {
            table: self.estimated_rows(node) for table, node in inputs.items()
        }
        start = min(input_rows, key=lambda table: (input_rows[table], table))
        joined = {start}
        current_rows = input_rows[start]
        remaining = list(edges)
        ordered: list[ForeignKey] = []
        while remaining:
            best: Optional[tuple[float, str, ForeignKey, str]] = None
            for edge in remaining:
                left, right = edge.tables()
                if left in joined and right in joined:
                    new_table = left  # redundant edge; apply as a filter
                    cost = current_rows
                elif left in joined:
                    new_table = right
                    cost = self._join_rows(
                        current_rows, input_rows[right], edge
                    )
                elif right in joined:
                    new_table = left
                    cost = self._join_rows(
                        current_rows, input_rows[left], edge
                    )
                else:
                    continue
                candidate = (cost, new_table, edge, str(edge))
                if best is None or (candidate[0], candidate[3]) < (
                    best[0], best[3]
                ):
                    best = candidate
            if best is None:
                raise QueryError("join edges do not form a connected tree")
            cost, new_table, edge, __ = best
            ordered.append(edge)
            joined.add(new_table)
            current_rows = cost
            remaining.remove(edge)
        return JoinOrder(start, tuple(ordered))

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------
    def plan_query(
        self,
        query: ProjectJoinQuery,
        predicates: Optional[tuple[PredicateSpec, ...]] = None,
        exists: bool = False,
    ) -> PlanNode:
        """Build and optimize the logical plan of ``query``."""
        return self.optimize(
            logical_plan_for_query(query, predicates, exists=exists)
        )

    def join_order(self, query: ProjectJoinQuery) -> JoinOrder:
        """The optimized physical join order of ``query``.

        This is what the executor lowers to probe steps; it depends only
        on the query's join structure and the statistics, so it is safe
        to cache under the structure's canonical prefix key.
        """
        if not query.joins:
            return JoinOrder(next(iter(query.tables)), ())
        plan = self.plan_query(query)
        body: PlanNode = plan
        while isinstance(body, (Exists, Project)):
            body = body.child
        edges_in_order: list[ForeignKey] = []
        node = body
        while isinstance(node, Join):
            edges_in_order.append(node.edge)
            node = node.left
        edges_in_order.reverse()
        return JoinOrder(self._input_table(node), tuple(edges_in_order))

    def structure_rows(self, query: ProjectJoinQuery) -> float:
        """Estimated result cardinality of a query's optimized join
        structure, memoized per canonical join prefix.

        This is the scheduler's cost signal: validating a filter means
        probing its join structure, and the sketched estimate prices a
        dangling- or disjoint-key join as nearly free (its semijoin dies
        immediately) where raw containment would price it as huge.
        """
        self._memo_guard()
        key = join_prefix_key(query)
        cached = self._structure_memo.get(key)
        if cached is None:
            cached = self.estimated_rows(self.plan_query(query))
            self._structure_memo[key] = cached
        return cached

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

    @staticmethod
    def prefix_key(query: ProjectJoinQuery) -> tuple:
        """Canonical join-prefix key (see :func:`join_prefix_key`)."""
        return join_prefix_key(query)

    @staticmethod
    def group_by_prefix(queries) -> dict[tuple, list]:
        """Group queries (or filters exposing ``.query``) by join prefix."""
        groups: dict[tuple, list] = {}
        for item in queries:
            query = getattr(item, "query", item)
            groups.setdefault(join_prefix_key(query), []).append(item)
        return groups
