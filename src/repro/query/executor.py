"""Physical execution of logical plans with cached, vectorized hash joins.

The executor is the third stage of the query pipeline

    ``ProjectJoinQuery`` → logical plan IR → cost-based planner → executor

and evaluates plans against an in-memory :class:`Database` whose tables
live in a columnar storage backend.  The execution model is column- and
index-oriented:

* **predicate pushdown over column arrays** — per-projection cell
  predicates (derived from the user's value constraints) are evaluated
  directly against base-table columns, producing row-index selections;
  dictionary-encoded text columns evaluate each predicate once per
  distinct value instead of once per row;
* **cost-based physical plans shared across candidates** — the join
  order comes from the :class:`~repro.query.planner.Planner` (catalog
  cardinalities when available) and the lowered probe/filter steps are
  cached under the structure's *canonical plan hash*
  (:func:`~repro.query.plan.join_prefix_key`), so every candidate —
  and every filter of every candidate — joining the same tables over
  the same edges reuses one physical plan regardless of what it
  projects;
* **reusable join indexes** — the value → row-indexes hash index for a
  join key column is built once per (table, column) and cached on the
  storage backend, so the thousands of existence probes issued during
  filter validation reuse it instead of rebuilding hash tables per query
  (hits and builds are counted in :class:`ExecutionStats`);
* **lazy join evaluation with early termination** — join results are
  produced as a stream of per-table row-index assignments, so an optional
  ``limit`` (and in particular ``exists()``'s ``limit=1``) stops work at
  the first match instead of materializing the full join;
* **batched existence probes** — :meth:`Executor.exists_batch` decides
  many (query, predicates) probes sharing one join structure in a single
  pass over the shared join: per-probe pushdown runs exactly as in the
  per-candidate path, then one assignment stream (over the union of the
  surviving probes' selections) is tested against every still-undecided
  probe, terminating as soon as all are decided;
* **an existence-memo cache** — ``exists()`` outcomes can be memoized
  under a caller-supplied canonical (query, predicate) signature and are
  invalidated automatically when the database changes;
* **array semijoin kernels** — once a probe joins a table of at least
  :data:`KERNEL_MIN_ROWS` rows, existence probes — single and batched —
  are decided by a vectorized bottom-up semijoin sweep
  (:mod:`repro.query.kernels`) over the storage's column array snapshots
  instead of streaming per-row assignments; outcomes and every
  :class:`ExecutionStats` counter stay bit-for-bit identical to the
  generic path, which still serves small tables and NaN join keys.

Inner-join semantics follow SQL: NULL join keys never match.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Mapping, Optional, Sequence

from repro.dataset.database import Database
from repro.dataset.schema import ColumnRef as _ColumnRef
from repro.errors import QueryError
from repro.query import kernels as _kernels
from repro.query.pj_query import ProjectJoinQuery
from repro.query.plan import (
    PlanNode,
    PredicateSpec,
    _connected_edge_order,
    attach_predicates,
    join_prefix_key,
)
from repro.query.planner import Planner

__all__ = ["Executor", "ExecutionStats", "BatchProbe"]

CellPredicate = Callable[[Any], bool]

# Selections are row-index lists; None means "every row" (no predicate).
_Selection = Optional[list[int]]

# Caps on the per-executor caches so a long-lived session over a static
# database cannot grow without bound; oldest entries are evicted first.
MAX_EXISTS_MEMO_ENTRIES = 100_000
MAX_PLAN_CACHE_ENTRIES = 10_000

# Array semijoin kernels only pay off once tables have enough rows to
# amortize the per-call array overhead; below this many rows in every
# joined table the generic streaming path is used instead.  The two
# routes produce identical outcomes and identical ExecutionStats, so the
# crossover is purely a performance knob (tests pin it to 0 to force the
# kernels onto arbitrarily small databases).
KERNEL_MIN_ROWS = 256

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
    join_index_hits: int = 0
    join_index_builds: int = 0
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
        self.join_index_hits += other.join_index_hits
        self.join_index_builds += other.join_index_builds
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
    """One hash-join step: probe ``new_table``'s join index from the
    already-joined ``existing_table`` side."""

    existing_table: str
    existing_position: int
    new_table: str
    new_position: int


@dataclass(frozen=True)
class _FilterStep:
    """Both endpoints already joined: apply the edge as a post-filter."""

    child_table: str
    child_position: int
    parent_table: str
    parent_position: int


@dataclass(frozen=True)
class _JoinPlan:
    """A structure's physical join strategy (no per-request state)."""

    start_table: str
    steps: tuple[Any, ...]  # _ProbeStep | _FilterStep


class _ResolvedProbe:
    """A _ProbeStep bound to this execution's index, readers and selection."""

    __slots__ = ("existing_table", "existing_reader", "new_table", "index",
                 "selection_set")

    def __init__(self, existing_table, existing_reader, new_table, index,
                 selection_set):
        self.existing_table = existing_table
        self.existing_reader = existing_reader
        self.new_table = new_table
        self.index = index
        self.selection_set = selection_set


class _ResolvedFilter:
    """A _FilterStep bound to this execution's cell readers."""

    __slots__ = ("child_table", "child_reader", "parent_table", "parent_reader")

    def __init__(self, child_table, child_reader, parent_table, parent_reader):
        self.child_table = child_table
        self.child_reader = child_reader
        self.parent_table = parent_table
        self.parent_reader = parent_reader


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
        prepared = self._prepare(query, cell_predicates)
        if prepared is None or (limit is not None and limit <= 0):
            return []
        selections, plan = prepared

        projectors = [
            (self._database.table(ref.table).cell_reader(ref.column), ref.table)
            for ref in query.projections
        ]

        results: list[tuple[Any, ...]] = []
        for assignment in self._assignments(selections, plan):
            results.append(
                tuple(reader(assignment[table]) for reader, table in projectors)
            )
            self.stats.rows_emitted += 1
            if limit is not None and len(results) >= limit:
                break
        return results

    def exists(
        self,
        query: ProjectJoinQuery,
        cell_predicates: Optional[Mapping[int, CellPredicate]] = None,
        cache_key: Optional[Any] = None,
    ) -> bool:
        """Whether at least one result row satisfies all cell predicates.

        Args:
            query: the PJ query to probe.
            cell_predicates: optional per-projection-position predicates.
            cache_key: optional hashable canonical signature of
                ``(query, cell_predicates)``.  When given, the outcome is
                memoized on this executor and returned directly on repeat
                probes; the memo is dropped whenever the database changes.
                Callers must guarantee the key fully determines the probe.
        """
        if cache_key is None:
            return self._exists_once(query, cell_predicates)
        memo = self._current_memo()
        cached = memo.get(cache_key)
        if cached is not None:
            self.stats.exists_cache_hits += 1
            return cached
        self.stats.exists_cache_misses += 1
        outcome = self._exists_once(query, cell_predicates)
        self._memoize(memo, cache_key, outcome)
        return outcome

    def _exists_once(
        self,
        query: ProjectJoinQuery,
        cell_predicates: Optional[Mapping[int, CellPredicate]],
    ) -> bool:
        """Decide one existence probe (no memo).

        Prefers the array semijoin kernel when :meth:`_kernel_edges`
        admits the plan; otherwise streams assignments and stops at the
        first hit, exactly like ``execute(limit=1)``.  Both
        routes account identically: the query and its pushdown scans via
        :meth:`_prepare`, then per probe step one join-index hit/build
        and one ``joins_performed``, then one ``rows_emitted`` iff the
        probe holds.
        """
        prepared = self._prepare(query, cell_predicates)
        if prepared is None:
            return False
        selections, plan = prepared
        selections = self._bloom_prune(selections, plan)
        if selections is None:
            return False
        edges = self._kernel_edges(plan)
        if edges is not None:
            for step in plan.steps:
                self._join_index(step.new_table, step.new_position)
                self.stats.joins_performed += 1
            masks = {
                table: self._selection_mask(table, selection)
                for table, selection in selections.items()
            }
            if _kernels.semijoin_exists(plan.start_table, plan.steps, edges, masks):
                self.stats.rows_emitted += 1
                return True
            return False
        for __ in self._assignments(selections, plan):
            self.stats.rows_emitted += 1
            return True
        return False

    def exists_batch(self, probes: Sequence[BatchProbe]) -> list[bool]:
        """Decide many existence probes over one shared join structure.

        Per-probe predicate pushdown runs exactly as in :meth:`exists`
        (so probes emptied by pushdown never touch the join), then one
        recursive pass over the shared join decides every surviving
        probe at once: the walk carries a bitmask of the probes whose
        pushed-down selections are consistent with the partial
        assignment, prunes branches no undecided probe selects, and
        satisfies a probe the moment a full assignment consistent with
        it appears.  Because all cell predicates bind to base-table
        columns, selection-mask consistency is exactly predicate
        satisfaction.  The pass stops as soon as every probe is decided.

        Outcomes equal per-probe :meth:`exists` calls bit for bit, but
        the join work (index lookups, probe steps, streaming) is paid
        once per batch instead of once per probe.  Memoization under each
        probe's ``cache_key`` behaves exactly as in :meth:`exists`.

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
        pushdown_cache: dict[tuple, frozenset[int]] = {}
        bloom_keep_cache: dict = {}
        survivors: list[tuple[int, dict[str, frozenset[int]]]] = []
        for index in pending:
            probe = probes[index]
            query = probe.query
            query.validate(self._database)
            self.stats.queries_executed += 1
            predicates = dict(probe.cell_predicates or {})
            for position in predicates:
                if position < 0 or position >= query.width:
                    raise QueryError(
                        f"cell predicate position {position} out of range "
                        f"for a query of width {query.width}"
                    )
            constrained = self._pushdown_shared(
                query, predicates, probe.predicate_tags, pushdown_cache
            )
            if constrained is None:
                outcomes[index] = False
                continue
            if plan is None:
                plan = self._plan(query)
            pruned = self._bloom_prune_sets(constrained, plan, bloom_keep_cache)
            if pruned is None:
                outcomes[index] = False
                continue
            survivors.append((index, pruned))

        if survivors:
            assert plan is not None
            self.stats.batch_executions += 1
            self.stats.batched_probes += len(survivors)
            satisfied = self._run_batch_any(plan, [sets for __, sets in survivors])
            for bit, (index, __) in enumerate(survivors):
                outcomes[index] = bool(satisfied & (1 << bit))

        for index in pending:
            key = probes[index].cache_key
            if key is not None:
                self._memoize(memo, key, bool(outcomes[index]))
        return [bool(outcome) for outcome in outcomes]

    def count(
        self,
        query: ProjectJoinQuery,
        cell_predicates: Optional[Mapping[int, CellPredicate]] = None,
    ) -> int:
        """Number of result rows of ``query`` (no row materialization)."""
        prepared = self._prepare(query, cell_predicates)
        if prepared is None:
            return 0
        selections, plan = prepared
        return sum(1 for _ in self._assignments(selections, plan))

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
    # Preparation: validation, pushdown, planning
    # ------------------------------------------------------------------
    def _prepare(
        self,
        query: ProjectJoinQuery,
        cell_predicates: Optional[Mapping[int, CellPredicate]],
    ) -> Optional[tuple[dict[str, _Selection], _JoinPlan]]:
        """Validate, push predicates down and plan joins.

        Returns ``None`` when pushdown proves the result empty.  Counts
        the query and its scans in :attr:`stats` either way.
        """
        query.validate(self._database)
        self.stats.queries_executed += 1
        predicates = dict(cell_predicates or {})
        for position in predicates:
            if position < 0 or position >= query.width:
                raise QueryError(
                    f"cell predicate position {position} out of range "
                    f"for a query of width {query.width}"
                )
        selections = self._pushdown(query, predicates)
        if selections is None:
            return None
        return selections, self._plan(query)

    def _pushdown(
        self,
        query: ProjectJoinQuery,
        predicates: Mapping[int, CellPredicate],
    ) -> Optional[dict[str, _Selection]]:
        """Evaluate cell predicates against base-table columns.

        Returns per-table row-index selections (``None`` entry = all rows),
        or ``None`` overall when some table's selection is empty — the
        inner-join result is then necessarily empty.
        """
        per_table_predicates: dict[str, list[tuple[str, CellPredicate]]] = defaultdict(list)
        for position, predicate in predicates.items():
            ref = query.projections[position]
            per_table_predicates[ref.table].append((ref.column, predicate))

        selections: dict[str, _Selection] = {}
        for table_name in query.tables:
            table = self._database.table(table_name)
            self.stats.rows_scanned += table.num_rows
            checks = per_table_predicates.get(table_name)
            if not checks:
                selections[table_name] = None
                if table.num_rows == 0:
                    return None
                continue
            column_name, predicate = checks[0]
            selected = table.select_rows(column_name, predicate)
            # Further predicates probe only the surviving rows rather than
            # re-scanning the whole column.
            for column_name, predicate in checks[1:]:
                if not selected:
                    break
                read = table.cell_reader(column_name)
                selected = [
                    index
                    for index in selected
                    if (value := read(index)) is not None and predicate(value)
                ]
            if not selected:
                return None
            selections[table_name] = selected
        return selections

    def _pushdown_shared(
        self,
        query: ProjectJoinQuery,
        predicates: Mapping[int, CellPredicate],
        tags: Optional[Mapping[int, Any]],
        cache: dict[tuple, frozenset[int]],
    ) -> Optional[dict[str, frozenset[int]]]:
        """Pushdown for one batch probe, sharing column scans via ``cache``.

        Semantics match :meth:`_pushdown` exactly (NULL cells never
        match; a table with several predicates keeps only rows passing
        all of them; an empty selection — or an empty unconstrained
        table — proves the probe false).  The difference is the shape
        (per-table row *sets*, constrained tables only) and the cache:
        a column scan tagged with the same predicate content by several
        probes of the batch runs once.
        """
        tags = tags or {}
        per_table: dict[str, list[tuple[str, CellPredicate, Any]]] = defaultdict(list)
        for position, predicate in predicates.items():
            ref = query.projections[position]
            per_table[ref.table].append(
                (ref.column, predicate, tags.get(position))
            )
        constrained: dict[str, frozenset[int]] = {}
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
                    (table_name, column_name, tag) if tag is not None else None
                )
                selection = cache.get(key) if key is not None else None
                if selection is None:
                    selection = frozenset(
                        table.select_rows(column_name, predicate)
                    )
                    if key is not None:
                        cache[key] = selection
                combined = (
                    selection if combined is None else combined & selection
                )
                if not combined:
                    return None
            constrained[table_name] = combined
        return constrained

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
        self, selections: dict[str, Any], plan: _JoinPlan
    ) -> Optional[dict[str, Any]]:
        """Drop pushed-down rows whose join key a Bloom filter proves
        absent from the opposite endpoint of an edge.

        For every probe step, each side with a small selection checks its
        key values against the *other* side's filter; rows with NULL keys
        or provably absent keys cannot take part in any full assignment,
        so removing them (``bloom_rejections``) never changes an
        existence outcome — and an emptied selection decides the probe
        ``False`` (returns ``None``) before any join structure is built.
        The filter has no false negatives, so surviving rows are a
        superset of the joinable ones.
        """
        if not self._bloom_ready():
            return selections
        for step in plan.steps:
            if not isinstance(step, _ProbeStep):
                continue
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
                bloom = self._bloom_for(other_table, other_position)
                if bloom is None:
                    continue
                kept = self._bloom_keep(table, position, selection, bloom)
                rejected = len(selection) - len(kept)
                if rejected:
                    self.stats.bloom_rejections += rejected
                    if not kept:
                        return None
                    selections[table] = kept
        return selections

    def _bloom_prune_sets(
        self,
        constrained: dict[str, frozenset[int]],
        plan: _JoinPlan,
        keep_cache: Optional[dict] = None,
    ) -> Optional[dict[str, frozenset[int]]]:
        """Set-shaped :meth:`_bloom_prune` for the batched probe path.

        Probes of one batch share pushed-down selections (the pushdown
        cache returns one frozenset per distinct constraint tag), so the
        per-(step-side, selection) filter checks are memoized in
        ``keep_cache`` across the whole batch; ``bloom_rejections`` is
        still counted per probe, exactly as the uncached path would.
        """
        if not self._bloom_ready():
            return constrained
        selections = dict(constrained)
        for step in plan.steps:
            if not isinstance(step, _ProbeStep):
                continue
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
                kept = (
                    keep_cache.get(cache_key)
                    if keep_cache is not None
                    else None
                )
                if kept is None:
                    bloom = self._bloom_for(other_table, other_position)
                    if bloom is None:
                        continue
                    kept = frozenset(
                        self._bloom_keep(table, position, selection, bloom)
                    )
                    if keep_cache is not None:
                        keep_cache[cache_key] = kept
                rejected = len(selection) - len(kept)
                if rejected:
                    self.stats.bloom_rejections += rejected
                    if not kept:
                        return None
                    selections[table] = kept
        return selections

    def _bloom_keep(
        self, table: str, position: int, selection: Sequence[int], bloom
    ) -> list[int]:
        """The subset of ``selection`` whose key might be in ``bloom``.

        Vectorized over typed array columns; text and object columns
        take the scalar route, which hashes the same canonical equality
        classes, so both routes keep exactly the same rows.
        """
        rows = selection if isinstance(selection, list) else sorted(selection)
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
        """Lower the optimized join order into concrete probe/filter steps.

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
        steps: list[Any] = []
        for edge in order.edges:
            left, right = edge.tables()
            if left in joined and right in joined:
                # Both sides already joined (cannot happen for trees,
                # but be defensive): apply the edge as a post-filter.
                steps.append(
                    _FilterStep(
                        edge.child_table,
                        self._column_position(edge.child_table, edge.child_column),
                        edge.parent_table,
                        self._column_position(edge.parent_table, edge.parent_column),
                    )
                )
                continue
            if left in joined:
                existing_table, new_table = left, right
            elif right in joined:
                existing_table, new_table = right, left
            else:
                # Neither endpoint joined yet — cannot happen when the
                # planner produced a connected order; guard anyway.
                raise QueryError("disconnected join order")
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

    def _join_order(self, query: ProjectJoinQuery):
        """Structural edge ordering (connectivity check, no statistics).

        Retained as the reference ordering: the cost-based planner may
        emit any permutation, but both must reject disconnected edges.
        """
        if not query.joins:
            return []
        return _connected_edge_order(query)

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
    # Lazy join evaluation
    # ------------------------------------------------------------------
    def _join_index(self, table: str, position: int) -> Mapping[Any, Sequence[int]]:
        """The backend's cached join index, with hit/build accounting."""
        backend = self._database.table(table).backend
        if backend.has_cached_join_index(table, position):
            self.stats.join_index_hits += 1
        else:
            self.stats.join_index_builds += 1
        return backend.join_index(table, position)

    def _assignments(
        self,
        selections: dict[str, _Selection],
        plan: _JoinPlan,
    ) -> Iterator[dict[str, int]]:
        """Stream per-table row-index assignments satisfying all joins.

        The stream is lazy end to end: a consumer that stops early (e.g. an
        existence probe) leaves the remaining join work undone.  For speed
        a single assignment dict is reused and mutated in place — consumers
        must extract what they need before advancing the iterator.
        """
        start = plan.start_table
        start_selection = selections[start]
        if start_selection is None:
            start_rows: Sequence[int] = range(
                self._database.table(start).num_rows
            )
        else:
            start_rows = start_selection

        assignment: dict[str, int] = {}
        if not plan.steps:
            for row_index in start_rows:
                assignment[start] = row_index
                yield assignment
            return

        # Resolve each step's runtime machinery once per execution.
        resolved: list[Any] = []
        for step in plan.steps:
            if isinstance(step, _ProbeStep):
                selection = selections[step.new_table]
                resolved.append(
                    _ResolvedProbe(
                        step.existing_table,
                        self._database.table(step.existing_table).backend.cell_reader(
                            step.existing_table, step.existing_position
                        ),
                        step.new_table,
                        self._join_index(step.new_table, step.new_position),
                        None if selection is None else set(selection),
                    )
                )
                self.stats.joins_performed += 1
            else:
                resolved.append(
                    _ResolvedFilter(
                        step.child_table,
                        self._database.table(step.child_table).backend.cell_reader(
                            step.child_table, step.child_position
                        ),
                        step.parent_table,
                        self._database.table(step.parent_table).backend.cell_reader(
                            step.parent_table, step.parent_position
                        ),
                    )
                )
        last_depth = len(resolved) - 1

        def extend(depth: int) -> Iterator[dict[str, int]]:
            step = resolved[depth]
            if isinstance(step, _ResolvedProbe):
                key = step.existing_reader(assignment[step.existing_table])
                if key is None:
                    return
                rows = step.index.get(key)
                if not rows:
                    return
                new_table = step.new_table
                selection_set = step.selection_set
                if depth == last_depth:
                    for row_index in rows:
                        if selection_set is not None and row_index not in selection_set:
                            continue
                        assignment[new_table] = row_index
                        yield assignment
                else:
                    for row_index in rows:
                        if selection_set is not None and row_index not in selection_set:
                            continue
                        assignment[new_table] = row_index
                        yield from extend(depth + 1)
            else:
                child_value = step.child_reader(assignment[step.child_table])
                parent_value = step.parent_reader(assignment[step.parent_table])
                if (
                    child_value is not None
                    and parent_value is not None
                    and child_value == parent_value
                ):
                    if depth == last_depth:
                        yield assignment
                    else:
                        yield from extend(depth + 1)

        for row_index in start_rows:
            assignment.clear()
            assignment[start] = row_index
            yield from extend(0)

    # ------------------------------------------------------------------
    # Array semijoin kernels
    # ------------------------------------------------------------------
    def _column_kernel(self, table: str, position: int):
        """The backend's column array snapshot."""
        return self._database.table(table).backend.column_kernel(
            table, position
        )

    def _edge_kernel(self, step: _ProbeStep):
        """A cached aligned :class:`~repro.query.kernels.EdgeKernel` for
        one probe step, or None when the step cannot run vectorized."""
        existing = self._column_kernel(step.existing_table, step.existing_position)
        new = self._column_kernel(step.new_table, step.new_position)
        if existing.nan_unsafe or new.nan_unsafe:
            # NaN never equals itself: array membership and the generic
            # dict-probing path disagree on such keys, so don't vectorize.
            return None
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

    def _kernel_edges(self, plan: _JoinPlan) -> Optional[list]:
        """Per-step edge kernels when the whole plan can run vectorized.

        Returns None — falling back to the generic streaming path — when
        every table of the plan is below :data:`KERNEL_MIN_ROWS`, a step
        is not a plain probe step, or a join-key column is NaN unsafe.
        An empty list (single-table plan) is valid: with no steps, a
        non-empty pushdown already proves existence.
        """
        if not any(
            self._database.table(table).num_rows >= KERNEL_MIN_ROWS
            for table in self._plan_tables(plan)
        ):
            return None
        edges = []
        for step in plan.steps:
            if not isinstance(step, _ProbeStep):
                return None
            edge = self._edge_kernel(step)
            if edge is None:
                return None
            edges.append(edge)
        return edges

    @staticmethod
    def _plan_tables(plan: _JoinPlan):
        yield plan.start_table
        for step in plan.steps:
            if isinstance(step, _ProbeStep):
                yield step.new_table

    def _selection_mask(self, table: str, selection):
        """A pushed-down selection as a row bitmask (None = every row)."""
        if selection is None:
            return None
        return _kernels.selection_mask(
            self._database.table(table).num_rows, selection
        )

    # ------------------------------------------------------------------
    # Batched join evaluation
    # ------------------------------------------------------------------
    def _run_batch_any(
        self, plan: _JoinPlan, probe_selections: Sequence[dict[str, set[int]]]
    ) -> int:
        """Decide a batch via semijoin kernels, else the generic walk.

        The kernel route decides each probe with its own vectorized
        semijoin sweep (cached edge kernels make the unconstrained folds
        free across probes).  Accounting matches :meth:`_run_batch`
        exactly: per probe step one join-index hit/build plus one
        ``joins_performed`` for the whole batch, nothing per probe.
        """
        edges = self._kernel_edges(plan)
        if edges is None:
            return self._run_batch(plan, probe_selections)
        for step in plan.steps:
            self._join_index(step.new_table, step.new_position)
            self.stats.joins_performed += 1
        satisfied = 0
        for bit, sets in enumerate(probe_selections):
            masks = {
                table: self._selection_mask(table, selection)
                for table, selection in sets.items()
            }
            if _kernels.semijoin_exists(plan.start_table, plan.steps, edges, masks):
                satisfied |= 1 << bit
        return satisfied

    def _run_batch(
        self, plan: _JoinPlan, probe_selections: Sequence[dict[str, set[int]]]
    ) -> int:
        """Decide many probes in one recursive pass over a shared join.

        ``probe_selections[i]`` maps each table probe ``i`` constrains to
        its pushed-down row set.  The pass walks the physical plan once,
        carrying a bitmask of the probes consistent with the partial
        assignment so far: assigning table ``T`` row ``r`` ANDs in the
        mask of probes that selected ``r`` (or don't constrain ``T``).
        Branches no *undecided* probe is consistent with are pruned —
        the per-probe selection pruning of the single-probe path, paid
        once for the whole batch — and probes reaching a full assignment
        are satisfied.  Returns the bitmask of satisfied probes.
        """
        full_mask = (1 << len(probe_selections)) - 1
        # Per constrained table: a lazily filled row → mask cache, the
        # (bit, row set) list of probes constraining it, and the mask of
        # probes that don't.  Masks are computed only for rows the join
        # actually reaches, so sparse streams never pay for the full
        # selections.
        masks: dict[str, tuple[dict[int, int], list[tuple[int, frozenset[int]]], int]] = {}
        tables = {plan.start_table}
        for step in plan.steps:
            if isinstance(step, _ProbeStep):
                tables.add(step.new_table)
        for table in tables:
            members: list[tuple[int, frozenset[int]]] = []
            constrained_bits = 0
            for bit, sets in enumerate(probe_selections):
                selection = sets.get(table)
                if selection is None:
                    continue
                constrained_bits |= 1 << bit
                members.append((1 << bit, selection))
            if constrained_bits:
                masks[table] = ({}, members, full_mask & ~constrained_bits)

        def mask_of(table: str, row_index: int, current: int) -> int:
            entry = masks.get(table)
            if entry is None:
                return current
            row_cache, members, unconstrained = entry
            mask = row_cache.get(row_index)
            if mask is None:
                mask = unconstrained
                for bit, rows in members:
                    if row_index in rows:
                        mask |= bit
                row_cache[row_index] = mask
            return current & mask

        start = plan.start_table
        start_entry = masks.get(start)
        if start_entry is not None and not start_entry[2]:
            # Every probe constrains the start table: only union rows
            # can matter, so iterate exactly those.
            union: set[int] = set()
            for __, rows in start_entry[1]:
                union.update(rows)
            start_rows: Sequence[int] = sorted(union)
        else:
            start_rows = range(self._database.table(start).num_rows)

        resolved: list[Any] = []
        for step in plan.steps:
            if isinstance(step, _ProbeStep):
                resolved.append(
                    _ResolvedProbe(
                        step.existing_table,
                        self._database.table(step.existing_table).backend.cell_reader(
                            step.existing_table, step.existing_position
                        ),
                        step.new_table,
                        self._join_index(step.new_table, step.new_position),
                        None,
                    )
                )
                self.stats.joins_performed += 1
            else:
                resolved.append(
                    _ResolvedFilter(
                        step.child_table,
                        self._database.table(step.child_table).backend.cell_reader(
                            step.child_table, step.child_position
                        ),
                        step.parent_table,
                        self._database.table(step.parent_table).backend.cell_reader(
                            step.parent_table, step.parent_position
                        ),
                    )
                )

        state = {"satisfied": 0, "undecided": full_mask}
        assignment: dict[str, int] = {}
        last_depth = len(resolved) - 1

        def settle(mask: int) -> None:
            newly = mask & state["undecided"]
            state["satisfied"] |= newly
            state["undecided"] &= ~newly

        def extend(depth: int, mask: int) -> None:
            step = resolved[depth]
            if isinstance(step, _ResolvedProbe):
                key = step.existing_reader(assignment[step.existing_table])
                if key is None:
                    return
                rows = step.index.get(key)
                if not rows:
                    return
                new_table = step.new_table
                undecided = state["undecided"]
                if depth == last_depth:
                    for row_index in rows:
                        narrowed = mask_of(new_table, row_index, mask)
                        if not narrowed & undecided:
                            continue
                        settle(narrowed)
                        undecided = state["undecided"]
                        if not undecided:
                            return
                else:
                    for row_index in rows:
                        narrowed = mask_of(new_table, row_index, mask)
                        if not narrowed & state["undecided"]:
                            continue
                        assignment[new_table] = row_index
                        extend(depth + 1, narrowed)
                        if not state["undecided"]:
                            return
            else:
                child_value = step.child_reader(assignment[step.child_table])
                parent_value = step.parent_reader(assignment[step.parent_table])
                if (
                    child_value is not None
                    and parent_value is not None
                    and child_value == parent_value
                ):
                    if depth == last_depth:
                        settle(mask)
                    else:
                        extend(depth + 1, mask)

        for row_index in start_rows:
            mask = mask_of(start, row_index, full_mask)
            if not mask & state["undecided"]:
                continue
            if not resolved:
                settle(mask)
            else:
                assignment.clear()
                assignment[start] = row_index
                extend(0, mask)
            if not state["undecided"]:
                break
        return state["satisfied"]

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
