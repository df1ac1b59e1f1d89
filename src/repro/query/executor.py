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
  or key types.  A batch shares its plan, its Bloom checks and its edge
  kernels across probes, and its pushdown scans (keyed by table, column
  and constraint) with every call of the same :meth:`Executor.round`;
* **one cache generation per artifact key** — everything derived from
  one :meth:`~repro.dataset.database.Database.artifact_key` (lowered
  plans, edge kernels, Bloom membership masks and the planner's memos)
  lives in an :class:`ExecutorCache` of that key.  An
  :class:`~repro.service.artifacts.ArtifactBundle` carries one, and
  every executor over the bundle shares it while the database still has
  the bundle's key; otherwise an executor uses a private cache.  Every
  append bumps a storage version and every table creation or drop the
  schema version, so when the key moves the executor switches to a new
  cache and drops the probe outcomes callers store in
  :attr:`Executor.outcomes`;
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
from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterator, Mapping, Optional, Sequence

import numpy as np

from repro.constraints.values import ValueConstraint
from repro.dataset.database import Database
from repro.dataset.schema import ColumnRef as _ColumnRef
from repro.errors import QueryError
from repro.query import kernels as _kernels
from repro.query.pj_query import ProjectJoinQuery
from repro.query.plan import PlanNode, PredicateSpec, join_prefix_key
from repro.query.planner import JoinOrder, Planner, PlannerMemos

if TYPE_CHECKING:
    from repro.dataset.catalog import MetadataCatalog

__all__ = ["Executor", "ExecutorCache", "ExecutionStats", "BatchProbe"]

# The value constraints of each constrained table, as (column,
# constraint) pairs.
_Checks = dict[str, list[tuple[str, ValueConstraint]]]

# Pushed-down selections: a boolean row mask for every table a
# constraint restricts; a table without an entry selects every row.
_Selections = dict[str, np.ndarray]

# Cap on the plan cache so a long-lived cache over a static database
# cannot grow it without bound; once full, further plans are lowered but
# not kept.
MAX_PLAN_CACHE_ENTRIES = 10_000

_MISSING = object()

# Bloom pre-filtering only probes selections at most this large: the
# pushed-down selections it can kill cheaply are small by construction,
# and a fixed row-count cap keeps the decision deterministic and
# independent of wall-clock.
BLOOM_PROBE_MAX_ROWS = 2048


@dataclass
class ExecutionStats:
    """Counters accumulated by one :class:`Executor` across calls.

    They describe this executor's own calls: executors sharing an
    :class:`ExecutorCache` count as if each cache were private, so the
    counters never depend on what another executor did first.
    """

    #: Rows of every table each pushdown visited, scan shared or not.
    rows_scanned: int = 0
    joins_performed: int = 0
    #: Plan lookups for a join structure this executor had planned
    #: before under the current artifact key ...
    plan_cache_hits: int = 0
    #: ... and first plans of a structure, lowered here or found in a
    #: shared cache.
    plan_cache_builds: int = 0
    #: Probe rows discarded because a join-key Bloom filter proved their
    #: key absent from the opposite side of an edge (see _bloom_prune).
    bloom_rejections: int = 0
    #: Planner estimates that came from statistics sketches (HLL join
    #: overlap, histogram selectivity) rather than raw catalog counts.
    #: A structure's ordering pass counts each sketched join it prices,
    #: once when this executor first plans the structure and once when
    #: its planner first estimates it (``structure_rows``), however
    #: often the memoized pass is reused.
    sketch_estimates_used: int = 0


class ExecutorCache(PlannerMemos):
    """Everything executors derive from one artifact key.

    Lowered plans per join structure, aligned edge kernels per probe
    step, Bloom membership masks per (table, position, other table,
    other position) — ``None`` where the other side has no filter — and
    the planner's memos.  Entries depend only on the database state
    ``key`` names and on the catalog, so every executor over the same
    database and catalog with sketches on may share one cache: an
    :class:`~repro.service.artifacts.ArtifactBundle` carries one for
    its engines.  The cache fills lazily.  Entries are published once
    and never changed, so executors on several threads read it without
    a lock; a racing duplicate build only costs time.  A pickled cache
    travels empty, since its entries bind column snapshots.
    """

    __slots__ = ("key", "plans", "edge_kernels", "bloom_masks")

    def __init__(self, key: tuple):
        super().__init__()
        self.key = key
        self.plans: dict[tuple, _JoinPlan] = {}
        self.edge_kernels: dict[_ProbeStep, _kernels.EdgeKernel] = {}
        self.bloom_masks: dict[tuple, Optional[_kernels.BloomMask]] = {}

    def __reduce__(self):
        return (ExecutorCache, (self.key,))


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
    """A structure's physical join strategy (no per-request state), with
    the number of sketched estimates its ordering pass priced."""

    start_table: str
    steps: tuple[_ProbeStep, ...]
    sketch_estimates: int


class Executor:
    """Evaluates Project-Join queries by lowering their planned join
    order into probe steps."""

    def __init__(
        self,
        database: Database,
        catalog: Optional["MetadataCatalog"] = None,
        *,
        use_sketches: bool = True,
        cache: Optional[ExecutorCache] = None,
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
            cache: an :class:`ExecutorCache` shared with other executors
                over the same database and catalog with sketches on —
                an artifact bundle's.  It is used while its key equals
                the database's artifact key; otherwise, and without
                one, the executor fills a private cache.
        """
        self._database = database
        self._catalog = catalog
        self._use_sketches = use_sketches
        self._shared = cache
        self.stats = ExecutionStats()
        self.planner = Planner(
            database, catalog, use_sketches=use_sketches, stats=self.stats
        )
        # The cache of the current artifact key (see _generation), and
        # what this executor keeps for that key only: whether Bloom
        # pre-filtering is sound, the structures it has planned (for
        # the plan counters), the outcomes callers store, and the
        # pushdown scans of the current round (None outside a round).
        self._cache: Optional[ExecutorCache] = None
        self._bloom_fresh = False
        self._planned: set[tuple] = set()
        self._outcomes: dict[Any, bool] = {}
        self._scans: Optional[dict[tuple, np.ndarray]] = None
        self._generation()

    @property
    def database(self) -> Database:
        """The database this executor evaluates queries against."""
        return self._database

    @property
    def cache(self) -> ExecutorCache:
        """The :class:`ExecutorCache` of the database's current artifact
        key: the shared one while its key stands, else a private one."""
        return self._generation()

    @property
    def outcomes(self) -> dict[Any, bool]:
        """Existence outcomes callers store here (the filter validator's
        cache), kept by this executor alone for the current artifact
        key."""
        self._generation()
        return self._outcomes

    @contextmanager
    def round(self) -> Iterator[None]:
        """Share pushdown scans across every call inside the block.

        One discovery round validates many filters whose probes
        constrain the same columns with equal constraints; inside the
        block each (table, column, constraint) is scanned once, as long
        as the artifact key stands.  The masks are dropped when the
        block ends.
        """
        self._generation()
        self._scans = {}
        try:
            yield
        finally:
            self._scans = None

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
        self._generation()
        rows = self._join_rows(query, cell_predicates, limit)
        columns = [
            list(map(
                self._database.table(ref.table).cell_reader(ref.column),
                rows[ref.table].tolist(),
            ))
            for ref in query.projections
        ]
        return list(zip(*columns))

    def exists(
        self,
        query: ProjectJoinQuery,
        cell_predicates: Optional[Mapping[int, ValueConstraint]] = None,
    ) -> bool:
        """Whether at least one result row satisfies all cell constraints.

        Decided as a batch of one (see :meth:`exists_batch`).

        Args:
            query: the PJ query to probe.
            cell_predicates: optional per-projection-position constraints.
        """
        self._generation()
        (outcome,) = self._decide((BatchProbe(query, cell_predicates),))
        return outcome

    def exists_batch(self, probes: Sequence[BatchProbe]) -> list[bool]:
        """Decide many existence probes over one shared join structure.

        Outcomes equal per-probe :meth:`exists` calls bit for bit.  The
        batch plans once, scans each (table, column, constraint) once
        (once per :meth:`round` inside one), caches Bloom checks across
        probes whose constraints select the same rows, and counts its
        join steps (``joins_performed``) once instead of once per probe;
        every probe whose selections survive pushdown and Bloom pruning
        is then decided by its own semijoin sweep.

        Raises:
            QueryError: the probes do not share one join structure.
        """
        self._generation()
        if not probes:
            return []
        structure = join_prefix_key(probes[0].query)
        for probe in probes[1:]:
            if join_prefix_key(probe.query) != structure:
                raise QueryError(
                    "exists_batch requires probes sharing one join structure"
                )
        return self._decide(probes)

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
        self._generation()
        return self.planner.plan_query(query, tuple(predicates))

    # ------------------------------------------------------------------
    # Existence probes: the semijoin sweep
    # ------------------------------------------------------------------
    def _decide(self, probes: Sequence[BatchProbe]) -> list[bool]:
        """Decide probes sharing one join structure.

        Every probe pushes its constraints down, sharing each (table,
        column, constraint) scan with the call's other probes (and with
        the round's other calls, inside a :meth:`round`), and the first
        probe to survive pushdown plans the shared structure.  Join-key
        Bloom filters then prune each probe's selections; a probe with
        rows left on every table is decided by one semijoin sweep over
        the plan's edge kernels.
        """
        outcomes: list[bool] = []
        plan: Optional[_JoinPlan] = None
        edges: Optional[list] = None
        scans = self._scans if self._scans is not None else {}
        bloom_keep: dict[tuple, tuple[np.ndarray, int]] = {}
        swept = False
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
                swept = True
            outcomes.append(bool(outcome))
        if swept:
            self.stats.joins_performed += len(plan.steps)
        return outcomes

    def _column_kernel(self, table: str, position: int):
        """The backend's column array snapshot."""
        return self._database.table(table).backend.column_kernel(
            table, position
        )

    def _edge_kernel(self, step: _ProbeStep) -> _kernels.EdgeKernel:
        """The cached aligned :class:`~repro.query.kernels.EdgeKernel`
        of one probe step."""
        kernels = self._cache.edge_kernels
        edge = kernels.get(step)
        if edge is None:
            edge = kernels.setdefault(step, _kernels.EdgeKernel(
                self._column_kernel(step.existing_table, step.existing_position),
                self._column_kernel(step.new_table, step.new_position),
            ))
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
        masks = self._pushdown(
            query, self._checks(query, cell_predicates), self._scans
        )
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
        nothing may write to them.  Counts the rows of every table it
        visits in :attr:`stats`, whether their scans ran or were shared.
        """
        query.validate(self._database)
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
    def _generation(self) -> ExecutorCache:
        """The cache of the database's current artifact key.

        While the key stands this is the cache already in use.  When it
        has moved, the executor takes the shared cache if that one
        belongs to the new key, and a new private cache otherwise; the
        planner memoizes into it from then on, and this executor's own
        per-key state (outcomes, planned structures, round scans) starts
        over.  Plans bake in column positions (a recreated table may
        place columns differently), edge kernels and Bloom masks bind
        column snapshots, and outcomes describe the data.  Bloom
        pre-filtering is on only with sketches, a catalog and — the
        soundness guard — a catalog built from (or delta-folded up to)
        exactly this key: a filter that has not seen every row of a
        column could otherwise report a present key as absent.
        """
        key = self._database.artifact_key()
        cache = self._cache
        if cache is not None and cache.key == key:
            return cache
        shared = self._shared
        cache = shared if shared is not None and shared.key == key else (
            ExecutorCache(key)
        )
        self._cache = cache
        self.planner.use_memos(cache)
        self._planned.clear()
        self._outcomes.clear()
        if self._scans is not None:
            self._scans.clear()
        self._bloom_fresh = (
            self._use_sketches
            and self._catalog is not None
            and self._catalog.built_from == key
        )
        return cache

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
        masks = self._cache.bloom_masks
        mask = masks.get(key, _MISSING)
        if mask is _MISSING:
            column = self._database.table(other_table).columns[other_position].name
            sketches = self._catalog.sketches(_ColumnRef(other_table, column))
            mask = masks.setdefault(key, (
                None if sketches is None or sketches.bloom is None
                else _kernels.BloomMask(
                    self._column_kernel(table, position), sketches.bloom
                )
            ))
        return mask

    def _plan(self, query: ProjectJoinQuery) -> _JoinPlan:
        """The physical plan of ``query``'s join structure.

        Physical plans depend only on join structure (plus the schema's
        column layout), so they are cached under the structure's prefix
        key — shared across every candidate and filter on that
        structure, and across the executors sharing the cache — for one
        cache generation.  The counters describe this executor's
        lookups: its first plan of a structure is a build, with its
        pass's sketched estimates, and every later one a hit.
        """
        structure = join_prefix_key(query)
        plans = self._cache.plans
        plan = plans.get(structure)
        if plan is None:
            plan = self._lower(self.planner.join_order(query))
            if len(plans) < MAX_PLAN_CACHE_ENTRIES:
                plan = plans.setdefault(structure, plan)
        if structure in self._planned:
            self.stats.plan_cache_hits += 1
        else:
            self._planned.add(structure)
            self.stats.plan_cache_builds += 1
            self.stats.sketch_estimates_used += plan.sketch_estimates
        return plan

    def _lower(self, order: JoinOrder) -> _JoinPlan:
        """Lower a join order into concrete probe steps."""
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
        return _JoinPlan(order.start_table, tuple(steps), order.sketch_estimates)

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
