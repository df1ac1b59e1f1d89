"""The demo workflow as a programmatic session.

The demo's web UI has three sections (§2.2): **Configuration** (source
database, number of target columns, number of sample constraints, whether
metadata constraints are given), **Description** (the constraint grid) and
**Result** (the discovered queries plus their explanation graphs).
:class:`PrismSession` exposes exactly that workflow so it can be driven
from scripts, tests and the CLI; the walk-through of §3 maps 1:1 onto its
method calls.
"""

from __future__ import annotations

import enum
from typing import Optional

from repro.constraints.parser import parse_metadata_constraint, parse_value_constraint
from repro.constraints.sample import SampleConstraint
from repro.constraints.spec import MappingSpec
from repro.constraints.values import ValueConstraint
from repro.dataset.database import Database
from repro.datasets import available_databases, load_database_by_name
from repro.discovery.engine import DEFAULT_TIME_LIMIT_SECONDS, Prism
from repro.discovery.result import DiscoveryResult, DiscoveryStats
from repro.errors import DiscoveryTimeout, SessionError
from repro.service.artifacts import ArtifactStore
from repro.explain.graph import QueryGraph
from repro.explain.render import (
    plan_to_ascii,
    shared_structure_counts,
    to_ascii,
    to_dict,
    to_dot,
)
from repro.query.plan import PredicateSpec
from repro.query.pj_query import ProjectJoinQuery
from repro.query.sql import to_sql

__all__ = ["PrismSession", "SessionStage"]


class SessionStage(enum.Enum):
    """Which section of the workflow the session is currently in."""

    CONFIGURATION = "configuration"
    DESCRIPTION = "description"
    RESULT = "result"


class PrismSession:
    """Drives the Configuration → Description → Result workflow."""

    def __init__(
        self,
        databases: Optional[dict[str, Database]] = None,
        artifact_store: Optional[ArtifactStore] = None,
    ):
        """Create a session.

        Args:
            databases: optional mapping of database name → loaded database.
                When omitted, the bundled demo databases (mondial, imdb,
                nba) are loaded lazily on first use.
            artifact_store: optional shared
                :class:`~repro.api.ArtifactStore`.  When given, the
                session's engines are built from (and warm-start on) the
                store's cached preprocessing bundles, so many sessions —
                or a session and a :class:`~repro.api.DiscoveryService`
                — share one preprocessing pass per database state.
        """
        self._databases = dict(databases) if databases is not None else None
        self._artifact_store = artifact_store
        self._loaded_databases: dict[str, Database] = {}
        self._engines: dict[str, tuple[object, Prism]] = {}
        self._stage = SessionStage.CONFIGURATION
        self._database_name: Optional[str] = None
        self._num_columns = 0
        self._num_samples = 0
        self._use_metadata = True
        self._scheduler = "bayesian"
        self._time_limit = DEFAULT_TIME_LIMIT_SECONDS
        self._sample_cells: list[list[Optional[ValueConstraint]]] = []
        self._metadata_texts: dict[int, str] = {}
        self._result: Optional[DiscoveryResult] = None
        self._selected: Optional[int] = None

    # ------------------------------------------------------------------
    # Configuration section
    # ------------------------------------------------------------------
    @property
    def stage(self) -> SessionStage:
        """The current workflow stage."""
        return self._stage

    def available_databases(self) -> list[str]:
        """Names of the databases the user can pick from."""
        if self._databases is not None:
            return sorted(self._databases)
        return available_databases()

    def configure(
        self,
        database: str,
        num_columns: int,
        num_samples: int = 1,
        use_metadata: bool = True,
        scheduler: str = "bayesian",
        time_limit: float = DEFAULT_TIME_LIMIT_SECONDS,
    ) -> "PrismSession":
        """Fill in the Configuration section and move to Description."""
        if num_columns < 1:
            raise SessionError("the target schema needs at least one column")
        if num_samples < 0:
            raise SessionError("the number of sample constraints cannot be negative")
        if database not in self.available_databases():
            raise SessionError(
                f"unknown database {database!r}; available: "
                f"{self.available_databases()}"
            )
        self._database_name = database
        self._num_columns = num_columns
        self._num_samples = num_samples
        self._use_metadata = use_metadata
        self._scheduler = scheduler
        self._time_limit = time_limit
        self._sample_cells = [
            [None] * num_columns for __ in range(num_samples)
        ]
        self._metadata_texts = {}
        self._result = None
        self._selected = None
        self._stage = SessionStage.DESCRIPTION
        return self

    # ------------------------------------------------------------------
    # Description section
    # ------------------------------------------------------------------
    def _require_description_stage(self) -> None:
        if self._stage is SessionStage.CONFIGURATION:
            raise SessionError("configure() must be called before describing constraints")

    def set_sample_cell(self, row: int, column: int, text: str) -> "PrismSession":
        """Type ``text`` into cell (row, column) of the sample-constraint grid."""
        self._require_description_stage()
        if not 0 <= row < self._num_samples:
            raise SessionError(
                f"sample row {row} out of range (configured {self._num_samples})"
            )
        if not 0 <= column < self._num_columns:
            raise SessionError(
                f"column {column} out of range (configured {self._num_columns})"
            )
        self._sample_cells[row][column] = parse_value_constraint(text)
        self._stage = SessionStage.DESCRIPTION
        return self

    def set_metadata_constraint(self, column: int, text: str) -> "PrismSession":
        """Type ``text`` into the metadata-constraint cell of ``column``."""
        self._require_description_stage()
        if not self._use_metadata:
            raise SessionError(
                "metadata constraints were disabled in the Configuration section"
            )
        if not 0 <= column < self._num_columns:
            raise SessionError(
                f"column {column} out of range (configured {self._num_columns})"
            )
        if text and text.strip():
            self._metadata_texts[column] = text
        else:
            self._metadata_texts.pop(column, None)
        return self

    def build_spec(self) -> MappingSpec:
        """Assemble the current Description section into a :class:`MappingSpec`."""
        self._require_description_stage()
        spec = MappingSpec(self._num_columns)
        for cells in self._sample_cells:
            if all(cell is None for cell in cells):
                continue
            spec.add_sample(SampleConstraint(list(cells)))
        for column, text in self._metadata_texts.items():
            constraint = parse_metadata_constraint(text)
            if constraint is not None:
                spec.set_metadata(column, constraint)
        return spec

    # ------------------------------------------------------------------
    # Result section
    # ------------------------------------------------------------------
    def _load_database(self) -> Database:
        if self._database_name is None:
            raise SessionError("no database configured")
        if self._databases is not None:
            return self._databases[self._database_name]
        database = self._loaded_databases.get(self._database_name)
        if database is None:
            database = load_database_by_name(self._database_name)
            self._loaded_databases[self._database_name] = database
        return database

    def _engine(self) -> Prism:
        if self._database_name is None:
            raise SessionError("no database configured")
        if self._artifact_store is not None:
            database = self._load_database()
            bundle = self._artifact_store.get(database)
            cached = self._engines.get(self._database_name)
            if cached is not None and cached[0] == bundle.key:
                return cached[1]
            engine = Prism.from_artifacts(bundle)
            self._engines[self._database_name] = (bundle.key, engine)
            return engine
        cached = self._engines.get(self._database_name)
        if cached is None:
            cached = (None, Prism(self._load_database()))
            self._engines[self._database_name] = cached
        return cached[1]

    def search(self) -> DiscoveryResult:
        """Hit the "Start Searching!" button.

        A round that exceeds its time budget is never an error path at
        this layer: an engine-raised :class:`DiscoveryTimeout` is folded
        into a structured, partial :class:`DiscoveryResult` whose
        ``timed_out`` flag is set, preserving whatever queries and stats
        were produced before the deadline.
        """
        spec = self.build_spec()
        spec.validate()
        engine = self._engine()
        try:
            result = engine.discover(
                spec,
                scheduler=self._scheduler,
                time_limit=self._time_limit,
                raise_on_timeout=True,
            )
        except DiscoveryTimeout as exc:
            result = exc.partial_result
            if result is None:
                stats = DiscoveryStats(scheduler_name=self._scheduler)
                stats.timed_out = True
                result = DiscoveryResult(stats=stats)
            result.stats.timed_out = True
        self._result = result
        self._stage = SessionStage.RESULT
        self._selected = None
        return self._result

    def _require_result(self) -> DiscoveryResult:
        if self._result is None:
            raise SessionError("search() has not been run yet")
        return self._result

    @property
    def result(self) -> Optional[DiscoveryResult]:
        """The most recent discovery result (None before the first search)."""
        return self._result

    def queries(self) -> list[ProjectJoinQuery]:
        """The satisfying schema mapping queries of the last search."""
        return list(self._require_result().queries)

    def select_query(self, index: int) -> ProjectJoinQuery:
        """Point at one of the returned queries (0-based index)."""
        result = self._require_result()
        if not 0 <= index < len(result.queries):
            raise SessionError(
                f"query index {index} out of range; {len(result.queries)} "
                "queries were discovered"
            )
        self._selected = index
        return result.queries[index]

    @property
    def selected_query(self) -> Optional[ProjectJoinQuery]:
        """The currently selected query, if any."""
        if self._selected is None:
            return None
        return self._require_result().queries[self._selected]

    def sql(self, index: Optional[int] = None) -> str:
        """SQL text of the selected (or given) query."""
        query = self._query_for(index)
        return to_sql(query)

    def explain(
        self,
        index: Optional[int] = None,
        constraint_positions: Optional[list[int]] = None,
        fmt: str = "ascii",
    ):
        """Explanation graph of the selected (or given) query.

        Args:
            index: query index; defaults to the currently selected query.
            constraint_positions: which constraints to overlay (all when None).
            fmt: ``ascii``, ``dot``, ``dict`` or ``graph`` (the raw
                :class:`QueryGraph`).
        """
        query = self._query_for(index)
        graph = QueryGraph.from_query(
            query, spec=self.build_spec(), constraint_positions=constraint_positions
        )
        if fmt == "ascii":
            return to_ascii(graph)
        if fmt == "dot":
            return to_dot(graph)
        if fmt == "dict":
            return to_dict(graph)
        if fmt == "graph":
            return graph
        raise SessionError(f"unknown explanation format: {fmt!r}")

    def explain_plan(
        self, index: Optional[int] = None, sample: Optional[int] = None
    ) -> str:
        """The plan tree of the selected (or given) query's join order.

        The join order is exactly what the engine's executor runs for
        the query (physical plans are keyed by join structure, so it
        never depends on the constraints).  One sample row's
        constraints are overlaid onto the scans they push down to —
        sample rows are alternatives, validated by separate probes, so
        showing several at once would misstate the cardinalities.  The
        rendering is annotated with the planner's estimated
        cardinalities and with which sub-structures are shared by other
        queries of this discovery round (those are the prefixes
        validated in one batched pass and served by one cached physical
        plan).

        Args:
            index: query index; defaults to the currently selected query.
            sample: which sample row's constraints to overlay
                (0-based); defaults to the first row carrying any.
        """
        query = self._query_for(index)
        engine = self._engine()
        executor = engine.executor
        spec = self.build_spec()
        samples = spec.samples
        if sample is not None and not 0 <= sample < len(samples):
            raise SessionError(
                f"sample row {sample} out of range; the spec has "
                f"{len(samples)} sample rows"
            )
        specs: list[PredicateSpec] = []
        chosen = [samples[sample]] if sample is not None else samples
        for row in chosen:
            for position in row.constrained_positions():
                if position >= query.width:
                    continue
                ref = query.projections[position]
                constraint = row.cell(position)
                # Tag with the constraint object itself (rendered via its
                # describe()): the planner's histogram selectivity path
                # inspects Range bounds, so the explain annotations show
                # the same sketch-vs-raw estimates validation planned with.
                specs.append(
                    PredicateSpec(ref.table, ref.column, tag=constraint)
                )
            if specs:
                break
        plan = executor.logical_plan(query, specs)
        shared = shared_structure_counts(
            executor.logical_plan(other) for other in self._require_result().queries
        )
        return plan_to_ascii(plan, planner=executor.planner, shared=shared)

    def _query_for(self, index: Optional[int]) -> ProjectJoinQuery:
        result = self._require_result()
        if index is None:
            if self._selected is None:
                raise SessionError("no query selected; call select_query() first")
            index = self._selected
        if not 0 <= index < len(result.queries):
            raise SessionError(f"query index {index} out of range")
        return result.queries[index]

    def reset(self) -> "PrismSession":
        """Return to the Configuration section for a fresh round."""
        self._stage = SessionStage.CONFIGURATION
        self._result = None
        self._selected = None
        self._sample_cells = []
        self._metadata_texts = {}
        return self
