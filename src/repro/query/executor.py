"""Physical execution of Project-Join queries over the columnar storage
backend.

The executor lowers a query's join order, as the
:class:`~repro.query.planner.Planner` chose it from the query itself,
into probe steps and evaluates them against an in-memory
:class:`Database` whose tables live in a columnar storage backend.  The
execution model is column- and array-oriented:

* **constraint pushdown over column arrays** — per-projection value
  constraints are evaluated against base-table column snapshots as
  boolean row masks (:meth:`~repro.constraints.values.ValueConstraint.mask`:
  one vectorized comparison on numeric columns, one test per dictionary
  entry on text), and the masks flow unchanged into the sweep;
* **cost-based physical plans shared across candidates** — the join
  order comes from the planner (catalog cardinalities when available)
  and the lowered probe steps are cached under the structure's prefix
  key (:func:`~repro.query.plan.join_prefix_key`), so every candidate —
  and every filter of every candidate — joining the same tables over
  the same edges reuses one physical plan regardless of what it
  projects;
* **one existence-probe path** — :meth:`Executor.exists` (a batch of
  one) and :meth:`Executor.exists_batch` decide every probe with the
  vectorized bottom-up semijoin sweep of :mod:`repro.query.kernels`
  over the storage's column array snapshots, whatever the table sizes
  or key types.  A batch shares its plan, its pushdown scans (keyed by
  table, column and constraint), its Bloom checks and its edge kernels
  across probes;
* **one cache generation per artifact key** — lowered plans, edge
  kernels, Bloom membership masks and the probe outcomes callers store
  in :attr:`Executor.outcomes` are kept for exactly one
  :meth:`~repro.dataset.database.Database.artifact_key`: every append
  bumps a storage version and every table creation or drop the schema
  version, so when the key moves they are all dropped together;
* **one join mechanism** — :meth:`Executor.execute` runs the same
  semijoin sweep over the same edge kernels, then enumerates the
  surviving rows with one array join per plan step
  (:func:`~repro.query.kernels.join_rows`), in nested-loop order; an
  optional ``limit`` cuts every step's output, so it bounds the work,
  not just the result.

:meth:`Executor.logical_plan` draws the same join order as a plan tree
for ``prism explain --plan``; nothing else builds one.

Inner-join semantics follow SQL: NULL join keys never match, and
neither do NaN keys (NaN never equals itself), exactly as in the
reference evaluator :mod:`repro.query.reference`.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Mapping, Optional, Sequence

import numpy as np

from repro.constraints.values import ValueConstraint
from repro.dataset.database import Database
from repro.dataset.schema import ColumnRef as _ColumnRef
from repro.errors import QueryError
from repro.query import kernels as _kernels
from repro.query.pj_query import ProjectJoinQuery
from repro.query.plan import PlanNode, PredicateSpec, join_prefix_key
from repro.query.planner import Planner

if TYPE_CHECKING:
    from repro.dataset.catalog import MetadataCatalog

__all__ = ["Executor", "ExecutionStats", "BatchProbe"]

# The value constraints of each constrained table, as (column,
# constraint) pairs.
_Checks = dict[str, list[tuple[str, ValueConstraint]]]

# Pushed-down selections: a boolean row mask for every table a
# constraint restricts; a table without an entry selects every row.
_Selections = dict[str, np.ndarray]

# Cap on the plan cache so a long-lived session over a static database
# cannot grow it without bound; oldest entries are evicted first.
MAX_PLAN_CACHE_ENTRIES = 10_000

# Bloom pre-filtering only probes selections at most this large: the
# pushed-down selections it can kill cheaply are small by construction,
# and a fixed row-count cap keeps the decision deterministic and
# independent of wall-clock.
BLOOM_PROBE_MAX_ROWS = 2048


@dataclass
class ExecutionStats:
    """Counters accumulated by an :class:`Executor` across calls."""

    queries_executed: int = 0
    rows_scanned: int = 0
    rows_emitted: int = 0
    joins_performed: int = 0
    plan_cache_hits: int = 0
    plan_cache_builds: int = 0
    batch_executions: int = 0
    batched_probes: int = 0
    #: Probe rows discarded because a join-key Bloom filter proved their
    #: key absent from the opposite side of an edge (see _bloom_prune).
    bloom_rejections: int = 0
    #: Planner estimates that came from statistics sketches (HLL join
    #: overlap, histogram selectivity) rather than raw catalog counts.
    #: An ordering pass (``join_order``, or a ``structure_rows`` memo
    #: miss) counts each sketched join it prices; the chosen order is
    #: not estimated a second time.
    sketch_estimates_used: int = 0

    def merge(self, other: "ExecutionStats") -> None:
        """Accumulate another stats object into this one."""
        self.queries_executed += other.queries_executed
        self.rows_scanned += other.rows_scanned
        self.rows_emitted += other.rows_emitted
        self.joins_performed += other.joins_performed
        self.plan_cache_hits += other.plan_cache_hits
        self.plan_cache_builds += other.plan_cache_builds
        self.batch_executions += other.batch_executions
        self.batched_probes += other.batched_probes
        self.bloom_rejections += other.bloom_rejections
        self.sketch_estimates_used += other.sketch_estimates_used


@dataclass(frozen=True)
class BatchProbe:
    """One existence probe inside an :meth:`Executor.exists_batch` call.

    All probes of a batch must share one join structure (same tables,
    same edges — :func:`~repro.query.plan.join_prefix_key`); projections
    and constraints are free to differ.  ``cell_predicates`` maps
    projection positions to
    :class:`~repro.constraints.values.ValueConstraint` objects, which
    hash and compare by content: probes of one batch constraining a
    column with equal constraints share a single pushdown scan of that
    column — the common case when filters derived from the same sample
    constraint are batched across candidates.
    """

    query: ProjectJoinQuery
    cell_predicates: Optional[Mapping[int, ValueConstraint]] = None


@dataclass(frozen=True)
class _ProbeStep:
    """One join step: attach ``new_table`` to the already-joined
    ``existing_table`` side through one edge."""

    existing_table: str
    existing_position: int
    new_table: str
    new_position: int


@dataclass(frozen=True)
class _JoinPlan:
    """A structure's physical join strategy (no per-request state)."""

    start_table: str
    steps: tuple[_ProbeStep, ...]


class Executor:
    """Evaluates Project-Join queries by lowering their planned join
    order into probe steps."""

    def __init__(
        self,
        database: Database,
        catalog: Optional["MetadataCatalog"] = None,
        *,
        use_sketches: bool = True,
    ):
        """Create an executor.

        Args:
            database: the database to evaluate queries against.
            catalog: optional :class:`~repro.dataset.catalog.MetadataCatalog`
                handed to the planner for cardinality-based join
                ordering; without one the planner uses live row counts.
            use_sketches: consult the catalog's statistics sketches —
                HLL-informed join estimates in the planner and Bloom
                pre-filtering of existence probes.  Outcomes are
                identical either way; only plan choices and probe work
                change.
        """
        self._database = database
        self._catalog = catalog
        self._use_sketches = use_sketches
        self.stats = ExecutionStats()
        self.planner = Planner(
            database, catalog, use_sketches=use_sketches, stats=self.stats
        )
        # Every cache below holds for one artifact key only; the first
        # call under a new key drops them all (see _sync_generation).
        self._artifact_key: Optional[tuple] = None
        # Whether Bloom pre-filtering is sound in this generation.
        self._bloom_fresh = False
        # Bloom membership masks keyed by (table, position, other table,
        # other position); None: no filter on that side.
        self._bloom_masks: dict[tuple, Optional[_kernels.BloomMask]] = {}
        # Physical plans keyed by canonical join-structure hash, so
        # every query over the same structure — across candidates and
        # across differing projections — shares one lowered plan.
        self._plan_cache: dict[tuple, _JoinPlan] = {}
        # Aligned edge kernels keyed by probe step.
        self._edge_kernels: dict[_ProbeStep, _kernels.EdgeKernel] = {}
        self._outcomes: dict[Any, bool] = {}

    @property
    def database(self) -> Database:
        """The database this executor evaluates queries against."""
        return self._database

    @property
    def outcomes(self) -> dict[Any, bool]:
        """Existence outcomes callers store here (the filter validator's
        cache), held and dropped with this generation's other caches."""
        self._sync_generation()
        return self._outcomes

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def execute(
        self,
        query: ProjectJoinQuery,
        cell_predicates: Optional[Mapping[int, ValueConstraint]] = None,
        limit: Optional[int] = None,
    ) -> list[tuple[Any, ...]]:
        """Execute ``query`` and return its projected result rows.

        Args:
            query: the PJ query to execute.
            cell_predicates: optional mapping from projection position to
                a :class:`~repro.constraints.values.ValueConstraint` the
                projected cell must satisfy; rows failing any constraint
                are excluded (and pruned before joining).
            limit: stop after this many result rows (None = no limit).

        Raises:
            QueryError: the query is invalid, or a ``cell_predicates``
                key is out of range or its value not a constraint.
        """
        self._sync_generation()
        rows = self._join_rows(query, cell_predicates, limit)
        columns = [
            list(map(
                self._database.table(ref.table).cell_reader(ref.column),
                rows[ref.table].tolist(),
            ))
            for ref in query.projections
        ]
        results = list(zip(*columns))
        self.stats.rows_emitted += len(results)
        return results

    def exists(
        self,
        query: ProjectJoinQuery,
        cell_predicates: Optional[Mapping[int, ValueConstraint]] = None,
    ) -> bool:
        """Whether at least one result row satisfies all cell constraints.

        Decided as a batch of one (see :meth:`exists_batch`); a true
        outcome that reached the join counts one ``rows_emitted``.

        Args:
            query: the PJ query to probe.
            cell_predicates: optional per-projection-position constraints.
        """
        self._sync_generation()
        (outcome,), swept = self._decide((BatchProbe(query, cell_predicates),))
        if swept and outcome:
            self.stats.rows_emitted += 1
        return outcome

    def exists_batch(self, probes: Sequence[BatchProbe]) -> list[bool]:
        """Decide many existence probes over one shared join structure.

        Outcomes equal per-probe :meth:`exists` calls bit for bit.  The
        batch plans once, scans each (table, column, constraint) once,
        caches Bloom checks across probes whose constraints select the
        same rows, and counts its join steps (``joins_performed``) once
        instead of once per probe; every probe whose selections survive
        pushdown and Bloom pruning is then decided by its own semijoin
        sweep.

        Raises:
            QueryError: the probes do not share one join structure.
        """
        self._sync_generation()
        if not probes:
            return []
        structure = join_prefix_key(probes[0].query)
        for probe in probes[1:]:
            if join_prefix_key(probe.query) != structure:
                raise QueryError(
                    "exists_batch requires probes sharing one join structure"
                )
        outcomes, swept = self._decide(probes)
        if swept:
            self.stats.batch_executions += 1
            self.stats.batched_probes += swept
        return outcomes

    def logical_plan(
        self,
        query: ProjectJoinQuery,
        predicates: Sequence[PredicateSpec] = (),
    ) -> PlanNode:
        """The plan tree of ``query`` in the join order this executor
        runs, for explain (``prism explain --plan``).

        Physical plans are cached per join structure, so the order never
        depends on a request's predicates; the given predicate specs sit
        in ``Filter`` nodes above their scans purely for display and
        cardinality annotation (see
        :meth:`~repro.query.planner.Planner.plan_query`).
        """
        return self.planner.plan_query(query, tuple(predicates))

    # ------------------------------------------------------------------
    # Existence probes: the semijoin sweep
    # ------------------------------------------------------------------
    def _decide(
        self, probes: Sequence[BatchProbe]
    ) -> tuple[list[bool], int]:
        """Decide probes sharing one join structure.

        Every probe pushes its constraints down, sharing each (table,
        column, constraint) scan with the call's other probes, and the
        first probe to survive pushdown plans the shared structure.
        Join-key Bloom filters then prune each probe's selections; a
        probe with rows left on every table is decided by one semijoin
        sweep over the plan's edge kernels.  Returns the outcomes and
        the number of probes that reached the sweep.
        """
        outcomes: list[bool] = []
        plan: Optional[_JoinPlan] = None
        edges: Optional[list] = None
        scans: dict[tuple, np.ndarray] = {}
        bloom_keep: dict[tuple, tuple[np.ndarray, int]] = {}
        swept = 0
        for probe in probes:
            outcome = False
            checks = self._checks(probe.query, probe.cell_predicates)
            selections = self._pushdown(probe.query, checks, scans)
            if selections is not None:
                if plan is None:
                    plan = self._plan(probe.query)
                selections = self._bloom_prune(
                    selections, checks, plan, bloom_keep
                )
            if selections is not None:
                if edges is None:
                    edges = [self._edge_kernel(step) for step in plan.steps]
                outcome = _kernels.semijoin_exists(
                    plan.start_table, plan.steps, edges, selections
                )
                swept += 1
            outcomes.append(bool(outcome))
        if swept:
            self.stats.joins_performed += len(plan.steps)
        return outcomes, swept

    def _column_kernel(self, table: str, position: int):
        """The backend's column array snapshot."""
        return self._database.table(table).backend.column_kernel(
            table, position
        )

    def _edge_kernel(self, step: _ProbeStep) -> _kernels.EdgeKernel:
        """The cached aligned :class:`~repro.query.kernels.EdgeKernel`
        of one probe step."""
        edge = self._edge_kernels.get(step)
        if edge is None:
            edge = _kernels.EdgeKernel(
                self._column_kernel(step.existing_table, step.existing_position),
                self._column_kernel(step.new_table, step.new_position),
            )
            self._edge_kernels[step] = edge
        return edge

    # ------------------------------------------------------------------
    # Row enumeration (execute)
    # ------------------------------------------------------------------
    def _join_rows(
        self,
        query: ProjectJoinQuery,
        cell_predicates: Optional[Mapping[int, ValueConstraint]],
        limit: Optional[int] = None,
    ) -> dict[str, np.ndarray]:
        """The result rows of ``query`` as aligned row-index arrays, one
        per table, in nested-loop order and cut to ``limit`` rows.

        Pushdown and planning run as for a probe; the semijoin sweep
        then reduces every table to its joinable rows, and
        :func:`~repro.query.kernels.join_rows` enumerates them.
        """
        empty = dict.fromkeys(query.tables, np.zeros(0, dtype=np.int64))
        masks = self._pushdown(query, self._checks(query, cell_predicates))
        if masks is None:
            return empty
        plan = self._plan(query)
        if limit is not None and limit <= 0:
            return empty
        edges = [self._edge_kernel(step) for step in plan.steps]
        if plan.start_table not in masks:  # enumeration starts from its mask
            masks[plan.start_table] = np.ones(
                self._database.table(plan.start_table).num_rows, dtype=np.bool_
            )
        self.stats.joins_performed += len(plan.steps)
        if not _kernels.semijoin_exists(
            plan.start_table, plan.steps, edges, masks
        ):
            return empty
        return _kernels.join_rows(
            plan.start_table, plan.steps, edges, masks, limit
        )

    # ------------------------------------------------------------------
    # Pushdown
    # ------------------------------------------------------------------
    def _checks(
        self,
        query: ProjectJoinQuery,
        cell_predicates: Optional[Mapping[int, ValueConstraint]],
    ) -> _Checks:
        """``cell_predicates`` grouped by the table each constrains.

        Raises:
            QueryError: a position is out of range for ``query``, or its
                value is not a :class:`ValueConstraint`.
        """
        checks: _Checks = defaultdict(list)
        for position, constraint in (cell_predicates or {}).items():
            if position < 0 or position >= query.width:
                raise QueryError(
                    f"cell predicate position {position} out of range "
                    f"for a query of width {query.width}"
                )
            if not isinstance(constraint, ValueConstraint):
                raise QueryError(
                    f"cell predicate at position {position} must be a "
                    f"ValueConstraint, got {type(constraint).__name__}"
                )
            ref = query.projections[position]
            checks[ref.table].append((ref.column, constraint))
        return checks

    def _pushdown(
        self,
        query: ProjectJoinQuery,
        checks: _Checks,
        scans: Optional[dict[tuple, np.ndarray]] = None,
    ) -> Optional[_Selections]:
        """Validate ``query`` and evaluate its constraints against
        base-table columns.

        Returns the row mask of every table some constraint restricts,
        or ``None`` when the inner-join result is necessarily empty: a
        constrained table selects no row, or an unconstrained one has
        none.  NULL cells never satisfy a constraint, and a table with
        several constraints keeps only the rows passing all of them.
        With a ``scans`` cache, each (table, column, constraint) scan
        runs once across calls sharing it; the masks are shared, so
        nothing may write to them.  Counts the query and its scanned
        rows in :attr:`stats`.
        """
        query.validate(self._database)
        self.stats.queries_executed += 1
        selections: _Selections = {}
        # Sorted, so the tables scanned before an empty selection stops
        # the walk (and ``rows_scanned``) do not depend on string hashing.
        for table_name in sorted(query.tables):
            table = self._database.table(table_name)
            self.stats.rows_scanned += table.num_rows
            table_checks = checks.get(table_name)
            if not table_checks:
                if table.num_rows == 0:
                    return None
                continue
            combined: Optional[np.ndarray] = None
            for column_name, constraint in table_checks:
                key = (table_name, column_name, constraint)
                mask = scans.get(key) if scans is not None else None
                if mask is None:
                    mask = table.select_rows(column_name, constraint)
                    if scans is not None:
                        scans[key] = mask
                combined = mask if combined is None else combined & mask
                if not combined.any():
                    return None
            selections[table_name] = combined
        return selections

    # ------------------------------------------------------------------
    # Cache generations
    # ------------------------------------------------------------------
    def _sync_generation(self) -> None:
        """Drop every cache when the artifact key has moved.

        Plans bake in column positions (a recreated table may place
        columns differently), edge kernels and Bloom masks bind column
        snapshots, and outcomes describe the data.  Bloom pre-filtering
        is on only with sketches, a catalog and — the soundness guard —
        a catalog built from (or delta-folded up to) exactly this key: a
        filter that has not seen every row of a column could otherwise
        report a present key as absent.
        """
        key = self._database.artifact_key()
        if key == self._artifact_key:
            return
        self._artifact_key = key
        self._plan_cache.clear()
        self._edge_kernels.clear()
        self._bloom_masks.clear()
        self._outcomes.clear()
        self._bloom_fresh = (
            self._use_sketches
            and self._catalog is not None
            and self._catalog.built_from == key
        )

    # ------------------------------------------------------------------
    # Bloom pre-filtering of existence probes
    # ------------------------------------------------------------------
    def _bloom_prune(
        self,
        selections: _Selections,
        checks: _Checks,
        plan: _JoinPlan,
        keep_cache: dict[tuple, tuple[np.ndarray, int]],
    ) -> Optional[_Selections]:
        """Drop pushed-down rows whose join key a Bloom filter proves
        absent from the opposite endpoint of an edge.

        For every probe step, each side with a small selection checks its
        key values against the *other* side's filter; rows with NULL keys
        or provably absent keys cannot take part in any full assignment,
        so removing them (``bloom_rejections``) never changes an
        existence outcome — and an emptied selection decides the probe
        ``False`` (returns ``None``) before the sweep runs.  The filter
        has no false negatives, so surviving rows are a superset of the
        joinable ones.  A table's selection at each step is determined by
        its constraints (``checks``) and the plan, so each (step side,
        constraints) check is memoized in ``keep_cache`` across the
        probes of one call; ``bloom_rejections`` is still counted per
        probe.
        """
        if not self._bloom_fresh:
            return selections
        for step in plan.steps:
            sides = (
                (step.existing_table, step.existing_position,
                 step.new_table, step.new_position),
                (step.new_table, step.new_position,
                 step.existing_table, step.existing_position),
            )
            for table, position, other_table, other_position in sides:
                selection = selections.get(table)
                if selection is None:
                    continue
                selected = int(np.count_nonzero(selection))
                if selected > BLOOM_PROBE_MAX_ROWS:
                    continue
                cache_key = (
                    table, position, other_table, other_position,
                    frozenset(checks[table]),
                )
                cached = keep_cache.get(cache_key)
                if cached is None:
                    mask = self._bloom_mask(
                        table, position, other_table, other_position
                    )
                    if mask is None:
                        continue
                    kept = mask.keep(selection)
                    cached = (kept, int(np.count_nonzero(kept)))
                    keep_cache[cache_key] = cached
                kept, survivors = cached
                rejected = selected - survivors
                if rejected:
                    self.stats.bloom_rejections += rejected
                    if not survivors:
                        return None
                    selections[table] = kept
        return selections

    def _bloom_mask(
        self, table: str, position: int, other_table: str, other_position: int
    ) -> Optional[_kernels.BloomMask]:
        """The cached membership mask of one join-key column's keys in the
        catalog's Bloom filter over the edge's other endpoint (``None``
        when that endpoint has no filter)."""
        key = (table, position, other_table, other_position)
        if key not in self._bloom_masks:
            column = self._database.table(other_table).columns[other_position].name
            sketches = self._catalog.sketches(_ColumnRef(other_table, column))
            self._bloom_masks[key] = (
                None if sketches is None or sketches.bloom is None
                else _kernels.BloomMask(
                    self._column_kernel(table, position), sketches.bloom
                )
            )
        return self._bloom_masks[key]

    def _plan(self, query: ProjectJoinQuery) -> _JoinPlan:
        """Lower the planner's join order into concrete probe steps.

        Physical plans depend only on join structure (plus the schema's
        column layout), so they are cached under the structure's prefix
        key — shared across every candidate and filter on that
        structure — for one cache generation.
        """
        structure = join_prefix_key(query)
        plan = self._plan_cache.get(structure)
        if plan is not None:
            self.stats.plan_cache_hits += 1
            return plan
        self.stats.plan_cache_builds += 1

        order = self.planner.join_order(query)
        joined = {order.start_table}
        steps: list[_ProbeStep] = []
        for edge in order.edges:
            left, right = edge.tables()
            if (left in joined) == (right in joined):
                # validate() admits join trees only, and a connected
                # order over a tree attaches one new table per edge.
                raise QueryError(
                    f"join edge {edge} does not attach one new table"
                )
            existing_table, new_table = (
                (left, right) if left in joined else (right, left)
            )
            existing_column, new_column = self._edge_columns(
                edge, existing_table, new_table
            )
            steps.append(
                _ProbeStep(
                    existing_table,
                    self._column_position(existing_table, existing_column),
                    new_table,
                    self._column_position(new_table, new_column),
                )
            )
            joined.add(new_table)
        plan = _JoinPlan(order.start_table, tuple(steps))
        if len(self._plan_cache) >= MAX_PLAN_CACHE_ENTRIES:
            del self._plan_cache[next(iter(self._plan_cache))]
        self._plan_cache[structure] = plan
        return plan

    def _column_position(self, table: str, column: str) -> int:
        return self._database.table(table).column_position(column)

    def _edge_columns(
        self, edge, existing_table: str, new_table: str
    ) -> tuple[str, str]:
        if edge.child_table == existing_table and edge.parent_table == new_table:
            return edge.child_column, edge.parent_column
        if edge.parent_table == existing_table and edge.child_table == new_table:
            return edge.parent_column, edge.child_column
        raise QueryError(
            f"join edge {edge} does not connect {existing_table} and {new_table}"
        )

    @property
    def plan_cache_size(self) -> int:
        """Number of lowered physical plans currently cached."""
        return len(self._plan_cache)
