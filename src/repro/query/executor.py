"""Physical execution of logical plans over the columnar storage backend.

The executor is the third stage of the query pipeline

    ``ProjectJoinQuery`` → logical plan IR → cost-based planner → executor

and evaluates plans against an in-memory :class:`Database` whose tables
live in a columnar storage backend.  The execution model is column- and
array-oriented:

* **predicate pushdown over column arrays** — per-projection cell
  predicates (derived from the user's value constraints) are evaluated
  directly against base-table columns, producing row-index selections;
  dictionary-encoded text columns evaluate each predicate once per
  distinct value instead of once per row;
* **cost-based physical plans shared across candidates** — the join
  order comes from the :class:`~repro.query.planner.Planner` (catalog
  cardinalities when available) and the lowered probe steps are cached
  under the structure's *canonical plan hash*
  (:func:`~repro.query.plan.join_prefix_key`), so every candidate —
  and every filter of every candidate — joining the same tables over
  the same edges reuses one physical plan regardless of what it
  projects;
* **one existence-probe path** — :meth:`Executor.exists` (a batch of
  one) and :meth:`Executor.exists_batch` decide every probe with the
  vectorized bottom-up semijoin sweep of :mod:`repro.query.kernels`
  over the storage's column array snapshots, whatever the table sizes
  or key types.  A batch shares its plan, its pushdown scans, its Bloom
  checks and its edge kernels across probes;
* **an existence-memo cache** — existence outcomes can be memoized
  under a caller-supplied canonical (query, predicate) signature and are
  invalidated automatically when the database changes;
* **one join mechanism** — :meth:`Executor.execute` and
  :meth:`Executor.count` run the same semijoin sweep over the same edge
  kernels, then enumerate the surviving rows with one array join per
  plan step (:func:`~repro.query.kernels.join_rows`), in nested-loop
  order; an optional ``limit`` cuts every step's output, so it bounds
  the work, not just the result.

Inner-join semantics follow SQL: NULL join keys never match, and
neither do NaN keys (NaN never equals itself), exactly as in the
reference evaluator :mod:`repro.query.reference`.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Optional, Sequence

import numpy as np

from repro.dataset.database import Database
from repro.dataset.schema import ColumnRef as _ColumnRef
from repro.errors import QueryError
from repro.query import kernels as _kernels
from repro.query.pj_query import ProjectJoinQuery
from repro.query.plan import (
    PlanNode,
    PredicateSpec,
    attach_predicates,
    join_prefix_key,
)
from repro.query.planner import Planner

__all__ = ["Executor", "ExecutionStats", "BatchProbe"]

CellPredicate = Callable[[Any], bool]

# Pushed-down selections: the row-index set of every table a predicate
# constrains; a table without an entry selects every row.
_Selections = dict[str, frozenset[int]]

# Caps on the per-executor caches so a long-lived session over a static
# database cannot grow without bound; oldest entries are evicted first.
MAX_EXISTS_MEMO_ENTRIES = 100_000
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
    exists_cache_hits: int = 0
    exists_cache_misses: int = 0
    plan_cache_hits: int = 0
    plan_cache_builds: int = 0
    batch_executions: int = 0
    batched_probes: int = 0
    #: Probe rows discarded because a join-key Bloom filter proved their
    #: key absent from the opposite side of an edge (see _bloom_prune).
    bloom_rejections: int = 0
    #: Planner estimates that came from statistics sketches (HLL join
    #: overlap, histogram selectivity) rather than raw catalog counts.
    sketch_estimates_used: int = 0

    def merge(self, other: "ExecutionStats") -> None:
        """Accumulate another stats object into this one."""
        self.queries_executed += other.queries_executed
        self.rows_scanned += other.rows_scanned
        self.rows_emitted += other.rows_emitted
        self.joins_performed += other.joins_performed
        self.exists_cache_hits += other.exists_cache_hits
        self.exists_cache_misses += other.exists_cache_misses
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
    and predicates are free to differ.

    ``predicate_tags`` optionally names each predicate's *content* with a
    hashable token (the validation layer passes the constraint object
    itself).  Probes of one batch that tag a column's predicate
    identically share a single pushdown scan of that column — the common
    case when filters derived from the same sample constraint are
    batched across candidates.
    """

    query: ProjectJoinQuery
    cell_predicates: Optional[Mapping[int, CellPredicate]] = None
    cache_key: Optional[Any] = None
    predicate_tags: Optional[Mapping[int, Any]] = None


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
    """Evaluates Project-Join queries by lowering optimized logical plans."""

    def __init__(
        self,
        database: Database,
        catalog: Optional[object] = None,
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
        # Bloom pre-filtering is only sound while the catalog describes
        # the database exactly (appends after build could introduce keys
        # the filters have never seen); cache the staleness check per
        # artifact key.
        self._bloom_key: Optional[tuple] = None
        self._bloom_fresh = False
        # Physical plans keyed by canonical join-structure hash, so
        # every query over the same structure — across candidates and
        # across differing projections — shares one lowered plan.
        self._plan_cache: dict[tuple, _JoinPlan] = {}
        self._plan_schema_version: Optional[int] = None
        self._exists_memo: dict[Any, bool] = {}
        self._memo_data_version: Optional[tuple[int, int, int]] = None
        # Aligned edge kernels keyed by the probe step's column endpoints,
        # revalidated by column-kernel identity (backends publish a fresh
        # kernel after every append, so a stale edge can never be reused).
        self._edge_kernels: dict[tuple, Any] = {}

    @property
    def database(self) -> Database:
        """The database this executor evaluates queries against."""
        return self._database

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def execute(
        self,
        query: ProjectJoinQuery,
        cell_predicates: Optional[Mapping[int, CellPredicate]] = None,
        limit: Optional[int] = None,
    ) -> list[tuple[Any, ...]]:
        """Execute ``query`` and return its projected result rows.

        Args:
            query: the PJ query to execute.
            cell_predicates: optional mapping from projection position to a
                predicate the projected cell must satisfy; rows failing any
                predicate are excluded (and pruned before joining).
            limit: stop after this many result rows (None = no limit).
        """
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
        cell_predicates: Optional[Mapping[int, CellPredicate]] = None,
        cache_key: Optional[Any] = None,
    ) -> bool:
        """Whether at least one result row satisfies all cell predicates.

        Decided as a batch of one (see :meth:`exists_batch`); a true
        outcome that reached the join counts one ``rows_emitted``.

        Args:
            query: the PJ query to probe.
            cell_predicates: optional per-projection-position predicates.
            cache_key: optional hashable canonical signature of
                ``(query, cell_predicates)``.  When given, the outcome is
                memoized on this executor and returned directly on repeat
                probes; the memo is dropped whenever the database changes.
                Callers must guarantee the key fully determines the probe.
        """
        (outcome,), swept = self._decide(
            (BatchProbe(query, cell_predicates, cache_key),)
        )
        if swept and outcome:
            self.stats.rows_emitted += 1
        return outcome

    def exists_batch(self, probes: Sequence[BatchProbe]) -> list[bool]:
        """Decide many existence probes over one shared join structure.

        Outcomes equal per-probe :meth:`exists` calls bit for bit, and
        memoization under each probe's ``cache_key`` behaves exactly as
        in :meth:`exists`.  The batch plans once, runs each column scan
        whose predicate several probes tag identically once, caches
        Bloom checks across probes sharing a selection, and counts its
        join steps (``joins_performed``) once instead of once per probe;
        every probe whose selections survive pushdown and Bloom
        pruning is then decided by its own semijoin sweep.

        Raises:
            QueryError: the probes do not share one join structure.
        """
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

    def count(
        self,
        query: ProjectJoinQuery,
        cell_predicates: Optional[Mapping[int, CellPredicate]] = None,
    ) -> int:
        """Number of result rows of ``query`` (no cell is read)."""
        rows = self._join_rows(query, cell_predicates)
        # Every table's row-index array has one entry per result row.
        return len(next(iter(rows.values())))

    def logical_plan(
        self,
        query: ProjectJoinQuery,
        predicates: Optional[Sequence[PredicateSpec]] = None,
        exists: bool = False,
    ) -> PlanNode:
        """The optimized logical plan this executor runs for ``query``.

        The join order matches the lowered physical plan exactly:
        physical plans are cached per join structure, so ordering never
        depends on a request's predicates.  The given predicate specs
        are overlaid onto their scans afterwards
        (:func:`~repro.query.plan.attach_predicates`) purely for
        display and cardinality annotation — used by the explain
        tooling (``prism explain --plan``).
        """
        plan = self.planner.plan_query(query, exists=exists)
        if predicates:
            plan = attach_predicates(plan, tuple(predicates))
        return plan

    # ------------------------------------------------------------------
    # Existence probes: the semijoin sweep
    # ------------------------------------------------------------------
    def _decide(
        self, probes: Sequence[BatchProbe]
    ) -> tuple[list[bool], int]:
        """Decide probes sharing one join structure.

        Memo hits answer first.  Every other probe pushes its predicates
        down, and the first probe to survive pushdown plans the shared
        structure.  Join-key Bloom filters then prune each probe's
        selections; a probe with rows left on every table is decided by
        one semijoin sweep over the plan's edge kernels.  Returns the
        outcomes and the number of probes that reached the sweep.
        """
        memo = self._current_memo()
        outcomes: list[Optional[bool]] = [None] * len(probes)
        pending: list[int] = []
        for index, probe in enumerate(probes):
            if probe.cache_key is not None:
                cached = memo.get(probe.cache_key)
                if cached is not None:
                    self.stats.exists_cache_hits += 1
                    outcomes[index] = cached
                    continue
                self.stats.exists_cache_misses += 1
            pending.append(index)

        plan: Optional[_JoinPlan] = None
        edges: Optional[list] = None
        scans: dict[tuple, frozenset[int]] = {}
        bloom_keep: dict[tuple, frozenset[int]] = {}
        swept = 0
        for index in pending:
            probe = probes[index]
            outcome = False
            selections = self._pushdown(
                probe.query, probe.cell_predicates, probe.predicate_tags, scans
            )
            if selections is not None:
                if plan is None:
                    plan = self._plan(probe.query)
                selections = self._bloom_prune(selections, plan, bloom_keep)
            if selections is not None:
                if edges is None:
                    edges = [self._edge_kernel(step) for step in plan.steps]
                outcome = _kernels.semijoin_exists(
                    plan.start_table, plan.steps, edges, self._masks(selections)
                )
                swept += 1
            outcomes[index] = outcome
            if probe.cache_key is not None:
                self._memoize(memo, probe.cache_key, outcome)
        if swept:
            self.stats.joins_performed += len(plan.steps)
        return [bool(outcome) for outcome in outcomes], swept

    def _masks(self, selections: _Selections) -> dict[str, np.ndarray]:
        """Boolean row masks of the pushed-down selections."""
        return {
            table: _kernels.selection_mask(
                self._database.table(table).num_rows, rows
            )
            for table, rows in selections.items()
        }

    def _column_kernel(self, table: str, position: int):
        """The backend's column array snapshot."""
        return self._database.table(table).backend.column_kernel(
            table, position
        )

    def _edge_kernel(self, step: _ProbeStep):
        """The cached aligned :class:`~repro.query.kernels.EdgeKernel`
        of one probe step, rebuilt when either column has grown."""
        existing = self._column_kernel(step.existing_table, step.existing_position)
        new = self._column_kernel(step.new_table, step.new_position)
        key = (step.existing_table, step.existing_position,
               step.new_table, step.new_position)
        cached = self._edge_kernels.get(key)
        if (
            cached is not None
            and cached.existing is existing
            and cached.new is new
        ):
            return cached
        edge = _kernels.EdgeKernel(existing, new)
        self._edge_kernels[key] = edge
        return edge

    # ------------------------------------------------------------------
    # Row enumeration (execute and count)
    # ------------------------------------------------------------------
    def _join_rows(
        self,
        query: ProjectJoinQuery,
        cell_predicates: Optional[Mapping[int, CellPredicate]],
        limit: Optional[int] = None,
    ) -> dict[str, np.ndarray]:
        """The result rows of ``query`` as aligned row-index arrays, one
        per table, in nested-loop order and cut to ``limit`` rows.

        Pushdown and planning run as for a probe; the semijoin sweep
        then reduces every table to its joinable rows, and
        :func:`~repro.query.kernels.join_rows` enumerates them.
        """
        empty = dict.fromkeys(query.tables, np.zeros(0, dtype=np.int64))
        selections = self._pushdown(query, cell_predicates)
        if selections is None:
            return empty
        plan = self._plan(query)
        if limit is not None and limit <= 0:
            return empty
        edges = [self._edge_kernel(step) for step in plan.steps]
        masks = self._masks(selections)
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
    def _pushdown(
        self,
        query: ProjectJoinQuery,
        cell_predicates: Optional[Mapping[int, CellPredicate]],
        tags: Optional[Mapping[int, Any]] = None,
        scans: Optional[dict[tuple, frozenset[int]]] = None,
    ) -> Optional[_Selections]:
        """Validate ``query`` and evaluate its cell predicates against
        base-table columns.

        Returns the selected row set of every table some predicate
        constrains, or ``None`` when the inner-join result is
        necessarily empty: a constrained table selects no row, or an
        unconstrained one has none.  NULL cells never satisfy a
        predicate, and a table with several predicates keeps only the
        rows passing all of them.  With a ``scans`` cache, a column scan
        whose predicate carries the same ``tags`` entry runs once per
        batch; an untagged predicate after a table's first one tests
        only the rows still selected.  Counts the query and its scanned
        rows in :attr:`stats`.
        """
        query.validate(self._database)
        self.stats.queries_executed += 1
        tags = tags or {}
        per_table: dict[str, list[tuple[str, CellPredicate, Any]]] = defaultdict(list)
        for position, predicate in (cell_predicates or {}).items():
            if position < 0 or position >= query.width:
                raise QueryError(
                    f"cell predicate position {position} out of range "
                    f"for a query of width {query.width}"
                )
            ref = query.projections[position]
            per_table[ref.table].append(
                (ref.column, predicate, tags.get(position))
            )

        selections: _Selections = {}
        for table_name in query.tables:
            table = self._database.table(table_name)
            self.stats.rows_scanned += table.num_rows
            checks = per_table.get(table_name)
            if not checks:
                if table.num_rows == 0:
                    return None
                continue
            combined: Optional[frozenset[int]] = None
            for column_name, predicate, tag in checks:
                key = (
                    (table_name, column_name, tag)
                    if scans is not None and tag is not None
                    else None
                )
                if key is None and combined is not None:
                    # An unshared scan only tests the rows that survived
                    # the table's earlier predicates.
                    read = table.cell_reader(column_name)
                    combined = frozenset(
                        row
                        for row in combined
                        if (value := read(row)) is not None and predicate(value)
                    )
                else:
                    rows = scans.get(key) if key is not None else None
                    if rows is None:
                        rows = frozenset(table.select_rows(column_name, predicate))
                        if key is not None:
                            scans[key] = rows
                    combined = rows if combined is None else combined & rows
                if not combined:
                    return None
            selections[table_name] = combined
        return selections

    # ------------------------------------------------------------------
    # Bloom pre-filtering of existence probes
    # ------------------------------------------------------------------
    def _bloom_ready(self) -> bool:
        """Whether join-key Bloom filters may prune probe rows.

        True only when sketches are enabled, the catalog carries them,
        and — the soundness guard — the catalog was built from (or
        delta-folded up to) exactly the database's current artifact key:
        a filter that has not seen every row of a column could otherwise
        report a genuinely present key as absent.
        """
        if not self._use_sketches or self._catalog is None:
            return False
        if getattr(self._catalog, "sketches", None) is None:
            return False
        key = self._database.artifact_key()
        if key != self._bloom_key:
            self._bloom_key = key
            self._bloom_fresh = (
                getattr(self._catalog, "built_from", None) == key
            )
        return self._bloom_fresh

    def _bloom_for(self, table: str, position: int):
        """The catalog's Bloom filter over one join-key column, if any."""
        column = self._database.table(table).columns[position].name
        sketches = self._catalog.sketches(_ColumnRef(table, column))
        return sketches.bloom if sketches is not None else None

    def _bloom_prune(
        self,
        selections: _Selections,
        plan: _JoinPlan,
        keep_cache: dict[tuple, frozenset[int]],
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
        joinable ones.  Probes of one batch share pushed-down selections,
        so each (step side, selection) check is memoized in
        ``keep_cache``; ``bloom_rejections`` is still counted per probe.
        """
        if not self._bloom_ready():
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
                if selection is None or len(selection) > BLOOM_PROBE_MAX_ROWS:
                    continue
                cache_key = (
                    table, position, other_table, other_position, selection
                )
                kept = keep_cache.get(cache_key)
                if kept is None:
                    bloom = self._bloom_for(other_table, other_position)
                    if bloom is None:
                        continue
                    kept = frozenset(
                        self._bloom_keep(table, position, selection, bloom)
                    )
                    keep_cache[cache_key] = kept
                rejected = len(selection) - len(kept)
                if rejected:
                    self.stats.bloom_rejections += rejected
                    if not kept:
                        return None
                    selections[table] = kept
        return selections

    def _bloom_keep(
        self, table: str, position: int, selection: frozenset[int], bloom
    ) -> list[int]:
        """The subset of ``selection`` whose key might be in ``bloom``.

        Vectorized over typed array columns; text and object columns
        take the scalar route, which hashes the same canonical equality
        classes, so both routes keep exactly the same rows.
        """
        rows = sorted(selection)
        kernel = self._column_kernel(table, position)
        if kernel.kind == "array":
            return _kernels.bloom_keep(kernel, rows, bloom)
        backing = self._database.table(table)
        read = backing.cell_reader(backing.columns[position].name)
        return [
            row
            for row in rows
            if (value := read(row)) is not None and bloom.might_contain(value)
        ]

    def _plan(self, query: ProjectJoinQuery) -> _JoinPlan:
        """Lower the optimized join order into concrete probe steps.

        Physical plans depend only on join structure (plus the schema's
        column layout), so they are cached under the structure's
        canonical plan hash — shared across every candidate and filter
        on that structure — and discarded whenever the database schema
        changes (a table dropped and recreated under the same name may
        place columns differently).
        """
        schema_version = self._database.schema_version
        if schema_version != self._plan_schema_version:
            self._plan_cache.clear()
            # Column positions may have moved with the schema; edge
            # kernels are keyed by position, so drop them too.
            self._edge_kernels.clear()
            self._plan_schema_version = schema_version
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

    # ------------------------------------------------------------------
    # Existence-memo cache
    # ------------------------------------------------------------------
    def _current_memo(self) -> dict[Any, bool]:
        """The memo dict, cleared whenever the database has changed."""
        version = self._database.data_version
        if version != self._memo_data_version:
            self._exists_memo.clear()
            self._memo_data_version = version
        return self._exists_memo

    def _memoize(self, memo: dict[Any, bool], key: Any, outcome: bool) -> None:
        if len(memo) >= MAX_EXISTS_MEMO_ENTRIES:
            del memo[next(iter(memo))]
        memo[key] = outcome

    @property
    def exists_memo_size(self) -> int:
        """Number of memoized existence outcomes currently held."""
        return len(self._exists_memo)

    @property
    def plan_cache_size(self) -> int:
        """Number of lowered physical plans currently cached."""
        return len(self._plan_cache)
