"""The benchmark's workloads: their rounds, and the service each runs on.

A workload is a set of databases, an endless stream of discovery rounds
over them, and the :class:`~repro.api.DiscoveryService` configuration the
rounds run on.  Databases, ground-truth queries and sample rows are part
of the workload's definition, drawn from :data:`CASE_SEED`: ground truths
come from the schema, sample rows from each query's full result sorted by
value (so a change in executor row order cannot change the inputs), and
specs are degraded to each resolution level with
:func:`~repro.workloads.degrade.spec_for_level`.  The run seed orders the
rounds within each pass and draws the rows append-refresh appends, so
runs under different seeds measure the same work.

Why these three (see ``README.md`` for sizes and numbers):

* ``demo-mixed`` is the paper's demo traffic: small bundled databases,
  two concurrent users, process shards.  The scheduler, the front of
  discovery and the serving path (queue, wire codec, shard IPC) carry
  the weight, and no spec repeats, so a result cache cannot help.
* ``synthetic-validate`` is the E3 regime on 6 NumPy tables with skewed
  and dangling keys, where filter validation (pushdown, scheduler,
  semijoins) dominates.
* ``append-refresh`` interleaves appends with rounds, so every round
  folds a delta into the artifacts and runs on cold executor caches;
  work moved from reads to write time shows up here.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Iterator, Optional

from repro import (
    ColumnRef,
    Database,
    DataType,
    Executor,
    GenerationLimits,
    MetadataCatalog,
    ProjectJoinQuery,
    generate_synthetic_database,
    load_imdb,
    load_mondial,
    load_nba,
    to_sql,
)
from repro.api import DiscoveryRequest, DiscoveryService, demo_requests
from repro.storage import make_backend
from repro.workloads.degrade import ResolutionLevel, spec_for_level
from repro.workloads.generator import WorkloadCase

__all__ = ["Case", "Round", "Workload", "WORKLOADS", "draw_cases"]

#: Candidate-generation bounds of the demo traffic (the tier-1 benchmark
#: suite's ``BENCH_LIMITS``): hundreds of candidates, rounds in the tens
#: of milliseconds.
DEMO_LIMITS = GenerationLimits(
    max_candidates=200, max_assignments=400, max_trees_per_assignment=6
)
#: Candidate bound of the synthetic workloads: rounds stay near 100 ms
#: with validation doing most of the work.
VALIDATE_LIMITS = GenerationLimits(max_candidates=100)
#: Case shapes of the demo traffic as (columns, tables).
DEMO_SHAPES = ((3, 2), (2, 1), (3, 3))
#: Resolution levels whose rounds append-refresh cycles through.
REFRESH_LEVELS = (
    ResolutionLevel.EXACT,
    ResolutionLevel.MIXED,
    ResolutionLevel.SPARSE,
    ResolutionLevel.METADATA,
)
#: Seed of the databases, ground-truth queries and sample rows, which are
#: part of a workload's definition.
CASE_SEED = 0
_WORDS = ("amber", "basil", "cedar", "delta", "ember", "fjord", "grove", "heath")
_MAX_DRAWS_PER_CASE = 200


@dataclass(frozen=True)
class Case:
    """A ground-truth query and its complete result rows, sorted by value."""

    case_id: int
    database: str
    ground_truth: ProjectJoinQuery
    rows: tuple


@dataclass(frozen=True)
class Round:
    """One discovery round of a workload's stream."""

    index: int
    request: DiscoveryRequest
    key: str
    #: SQL of the case's ground truth; ``None`` for template rounds.
    ground_truth_sql: Optional[str]
    #: Whether this round opens a pass after the first (see
    #: :meth:`Workload.rounds`).
    pass_start: bool = False


@dataclass
class Workload:
    """Databases, a seeded round stream and the service configuration."""

    name: str
    seed: int
    databases: dict[str, Database]
    cases: list[Case]
    levels: tuple[ResolutionLevel, ...]
    clients: int
    service_options: dict
    #: Draw a new sample row per case on every pass, so no spec repeats.
    #: Off, every pass repeats the first pass's specs.
    fresh_rows_each_pass: bool = True
    #: Rounds sent once, at the start of the first pass.
    template_requests: list[DiscoveryRequest] = field(default_factory=list)
    #: Rows appended before every round, spread over the tables (0:
    #: read-only).
    append_rows: int = 0
    #: Cases dropped because a projected column holds dates or times.
    excluded_cases: int = 0
    #: Builder parameters not visible in the fields above, for the record.
    config: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._catalogs = {
            name: MetadataCatalog.build(database)
            for name, database in self.databases.items()
        }

    @property
    def deadline_s(self) -> float:
        return self.service_options.get("default_deadline_s", 60.0)

    def rounds(self) -> Iterator[Round]:
        """The round stream: passes over every (case, level) pair, the
        template rounds opening the first pass.

        Which rounds a pass holds is part of the workload; the seed only
        orders them.  A run stops at a pass boundary, so runs with
        different seeds measure the same rounds.
        """
        index = itertools.count()
        for request in self.template_requests:
            yield Round(next(index), request, f"template/{request.request_id}", None)
        for pass_index in itertools.count():
            spec_pass = pass_index if self.fresh_rows_each_pass else 0
            pairs = [(case, level) for case in self.cases for level in self.levels]
            random.Random(f"{self.seed}-{pass_index}").shuffle(pairs)
            for position, (case, level) in enumerate(pairs):
                pass_start = position == 0 and pass_index > 0
                yield self._round(next(index), case, level, spec_pass, pass_start)

    def _round(self, index: int, case: Case, level: ResolutionLevel, spec_pass: int,
               pass_start: bool) -> Round:
        database = self.databases[case.database]
        pick = random.Random(f"{CASE_SEED}-{case.case_id}-{spec_pass}")
        row = case.rows[pick.randrange(len(case.rows))]
        spec = spec_for_level(
            WorkloadCase(case.case_id, case.ground_truth, [row]),
            level,
            database,
            catalog=self._catalogs[case.database],
            seed=spec_pass,
        )
        key = f"{case.database}/{case.case_id}/{level.value}/{spec_pass}"
        return Round(
            index,
            DiscoveryRequest(case.database, spec, request_id=f"r{index}"),
            key,
            to_sql(case.ground_truth),
            pass_start,
        )

    def start_service(self) -> DiscoveryService:
        """A started service whose first round would be an artifact cache hit.

        Process shards build their artifacts before reporting ready; in
        thread mode the store is warmed here.
        """
        service = DiscoveryService(databases=self.databases, **self.service_options)
        if service.shard_mode == "thread":
            service.store.warm(self.databases.values())
        return service.start()

    def append(self, index: int) -> None:
        """Append round ``index``'s seeded rows, spread over every table."""
        database = next(iter(self.databases.values()))
        rng = random.Random(f"{self.seed}-append-{index}")
        names = database.table_names
        for position, name in enumerate(names):
            table = database.table(name)
            parent = _parent_table(database, name)
            count = len(range(position, self.append_rows, len(names)))
            rows = []
            for row_id in range(table.num_rows, table.num_rows + count):
                values = {
                    "id": row_id,
                    "label": f"{rng.choice(_WORDS)}-{rng.choice(_WORDS)}-{name}",
                    "measure": round(rng.uniform(0.0, 1_000.0), 2),
                }
                if parent is not None:
                    values["parent_id"] = rng.randrange(parent.num_rows)
                rows.append(tuple(
                    values[column] if column in values else rng.choice(_WORDS)
                    for column in table.column_names
                ))
            table.insert_many(rows)


def _parent_table(database: Database, table_name: str):
    for edge in database.foreign_keys:
        if edge.child_table == table_name:
            return database.table(edge.parent_table)
    return None


# ----------------------------------------------------------------------
# Ground-truth cases
# ----------------------------------------------------------------------
def _edge_key(edge) -> tuple:
    return (edge.child_table, edge.child_column, edge.parent_table, edge.parent_column)


def _join_tree(tables: list[str], edges: list, num_tables: int, rng: random.Random):
    chosen = {rng.choice(tables)}
    joins = []
    while len(chosen) < num_tables:
        frontier = [
            edge for edge in edges
            if (edge.child_table in chosen) != (edge.parent_table in chosen)
        ]
        if not frontier:
            return None
        edge = rng.choice(frontier)
        chosen.update((edge.child_table, edge.parent_table))
        joins.append(edge)
    return sorted(chosen), joins


def draw_cases(
    database: Database,
    count: int,
    num_columns: int,
    num_tables: int,
    rng: random.Random,
    first_id: int = 0,
) -> tuple[list[Case], int]:
    """Draw ``count`` ground-truth cases and the number excluded.

    Each case projects at least one column of every table in a random
    join tree.  A case projecting a DATE or TIME column is excluded and
    counted: the v1 wire codec cannot encode those values yet.
    """
    executor = Executor(database)
    tables = sorted(name for name in database.table_names if database.table(name).num_rows)
    edges = sorted(
        (edge for edge in database.foreign_keys
         if edge.child_table in tables and edge.parent_table in tables
         and edge.child_table != edge.parent_table),
        key=_edge_key,
    )
    cases: list[Case] = []
    excluded = 0
    for _ in range(_MAX_DRAWS_PER_CASE * count):
        if len(cases) == count:
            break
        tree = _join_tree(tables, edges, num_tables, rng)
        if tree is None:
            continue
        chosen, joins = tree
        per_table = {
            name: [ColumnRef(name, column.name) for column in database.table(name).columns]
            for name in chosen
        }
        projections = [rng.choice(per_table[name]) for name in chosen]
        rest = [ref for refs in per_table.values() for ref in refs if ref not in projections]
        if num_columns - len(projections) > len(rest):
            continue
        projections += rng.sample(rest, num_columns - len(projections))
        rng.shuffle(projections)
        if any(database.column(ref).data_type in (DataType.DATE, DataType.TIME)
               for ref in projections):
            excluded += 1
            continue
        query = ProjectJoinQuery(tuple(projections), tuple(joins))
        rows = sorted(
            {row for row in executor.execute(query) if None not in row}, key=repr
        )
        if rows:
            cases.append(Case(first_id + len(cases), database.name, query, tuple(rows)))
    if len(cases) < count:
        raise RuntimeError(
            f"drew only {len(cases)} of {count} cases with {num_columns} columns "
            f"over {num_tables} tables from {database.name!r}"
        )
    return cases, excluded


# ----------------------------------------------------------------------
# Workload builders (sizes are parameters so tests can shrink them)
# ----------------------------------------------------------------------
def demo_mixed(
    seed: int,
    cases_per_shape: int = 1,
    databases: tuple[str, ...] = ("imdb", "mondial", "nba"),
) -> Workload:
    loaders = {"imdb": load_imdb, "mondial": load_mondial, "nba": load_nba}
    loaded = {name: loaders[name]() for name in databases}
    cases: list[Case] = []
    excluded = 0
    for name in databases:
        rng = random.Random(f"{CASE_SEED}-{name}")
        for num_columns, num_tables in DEMO_SHAPES:
            drawn, dropped = draw_cases(
                loaded[name], cases_per_shape, num_columns, num_tables, rng,
                first_id=len(cases),
            )
            cases += drawn
            excluded += dropped
    return Workload(
        name="demo-mixed",
        seed=seed,
        databases=loaded,
        cases=cases,
        levels=tuple(ResolutionLevel),
        clients=2,
        service_options=dict(
            workers=2, shard_mode="process", start_method="fork", limits=DEMO_LIMITS
        ),
        template_requests=demo_requests(databases=databases),
        excluded_cases=excluded,
        config=dict(
            cases_per_shape=cases_per_shape,
            shapes=[list(shape) for shape in DEMO_SHAPES],
        ),
    )


def synthetic_validate(
    seed: int, tables: int = 6, rows: int = 5_000, cases: int = 4
) -> Workload:
    database = generate_synthetic_database(
        tables, rows, topology="random", seed=CASE_SEED, skew=1.1,
        dangling_fk_fraction=0.3, backend=make_backend("numpy"),
    )
    drawn, excluded = draw_cases(database, cases, 3, 2, random.Random(f"{CASE_SEED}-cases"))
    return Workload(
        name="synthetic-validate",
        seed=seed,
        databases={database.name: database},
        cases=drawn,
        levels=tuple(ResolutionLevel),
        clients=1,
        service_options=dict(workers=1, limits=VALIDATE_LIMITS),
        excluded_cases=excluded,
        config=dict(
            tables=tables, rows_per_table=rows, topology="random", skew=1.1,
            dangling_fk_fraction=0.3, shape=[3, 2],
        ),
    )


def append_refresh(
    seed: int, tables: int = 4, rows: int = 5_000, cases: int = 7,
    append_rows: int = 50,
) -> Workload:
    database = generate_synthetic_database(tables, rows, topology="chain", seed=CASE_SEED)
    drawn, excluded = draw_cases(database, cases, 3, 2, random.Random(f"{CASE_SEED}-cases"))
    return Workload(
        name="append-refresh",
        seed=seed,
        databases={database.name: database},
        cases=drawn,
        levels=REFRESH_LEVELS,
        clients=1,
        service_options=dict(
            workers=1, refresh_artifacts=True, limits=VALIDATE_LIMITS
        ),
        fresh_rows_each_pass=False,
        append_rows=append_rows,
        excluded_cases=excluded,
        config=dict(
            tables=tables, rows_per_table=rows, topology="chain", shape=[3, 2],
        ),
    )


WORKLOADS = {
    "demo-mixed": demo_mixed,
    "synthetic-validate": synthetic_validate,
    "append-refresh": append_refresh,
}
