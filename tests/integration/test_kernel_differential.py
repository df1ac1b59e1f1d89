"""Randomized differential harness: the semijoin sweep vs the reference.

The executor decides every existence probe — ``exists`` and
``exists_batch``, whatever the table sizes or key types — with the
vectorized semijoin sweep of :mod:`repro.query.kernels`, and enumerates
rows for ``execute`` with array joins over the swept tables.  Both are
only trustworthy if they answer exactly as the naive reference oracle
(:mod:`repro.query.reference`) does.  This suite proves that the same
way the planner was proven
(:mod:`tests.integration.test_planner_differential`): seeded random
databases, random project-join workloads over them, and equality with
the reference at every level —

* ``execute`` / ``exists`` / ``exists_batch`` outcomes on 20 seeded
  databases, including queries where several predicates constrain one
  table and probes that share pushdown scans inside one
  :meth:`~repro.query.executor.Executor.round`;
* the same equalities again **after randomized append sequences**
  (a long-lived executor spans the appends, so plan-cache and
  edge-kernel revalidation are under test, not just cold caches);
* end-to-end discovery: the SQL equals a brute-force reference decision
  over the same candidate set;
* the incremental artifact path: ``ArtifactStore.refresh`` matches a
  cold rebuild, and discovery over the refreshed bundle matches
  discovery over the cold one.

The generated databases deliberately concentrate the storage edge cases:
NULLs in join keys and predicate columns, an empty table (which first
gains rows mid-test), a single-row table, unicode text, duplicate
low-cardinality join keys (int *and* text), dangling foreign keys, and
numeric-looking TEXT values.  NaN join keys are checked against the
reference in ``tests/storage/test_column_store_arrays.py``.
"""

from __future__ import annotations

import random

import pytest

from repro.dataset import Column, Database, DataType
from repro.dataset.schema import ColumnRef
from repro.discovery.candidates import GenerationLimits
from repro.discovery.engine import Prism
from repro.query.executor import BatchProbe, Executor
from repro.query.pj_query import ProjectJoinQuery
from repro.query.reference import execute_reference, exists_reference
from repro.query.sql import to_sql
from repro.api import ArtifactStore
from repro.service import artifacts
from repro.workloads.degrade import ResolutionLevel, spec_for_level
from repro.workloads.generator import WorkloadGenerator
from repro.datasets.synthetic import generate_synthetic_database
from tests.conftest import build_company_database
from tests.integration.test_planner_differential import (
    _callables,
    _random_predicates,
    _random_queries,
    _reference_confirms,
)
from tests.service.test_artifact_refresh import (
    _append_random_batch,
    _assert_bundles_equivalent,
    _specs,
)

# The acceptance bar: >= 20 seeded random databases, each also exercised
# in its post-append (delta) states.
_SEEDS = list(range(20))

# Unicode-heavy, deliberately collision-prone text vocabulary.
_NAMES = [
    "Ada", "ada", "café", "CAFÉ", "北京", "naïve", "Ω-mega", "O'Brien",
    "zulu", "",
]
# Numeric/boolean-*looking* TEXT values (they stay strings end to end).
_CODES = ["1", "2", "3", "0123", "3.14", "true", "False", "NaN"]
_KINDS = ["café", "北京", "naïve", "Ω"]


# ----------------------------------------------------------------------
# Seeded edge-case databases
# ----------------------------------------------------------------------
def _maybe(rng: random.Random, value, null_probability: float = 0.15):
    return None if rng.random() < null_probability else value


def _person_row(rng: random.Random, row_id: int) -> tuple:
    return (
        row_id,
        _maybe(rng, rng.choice(_NAMES)),
        _maybe(rng, rng.choice(_CODES), 0.1),
        _maybe(rng, round(rng.uniform(-50.0, 50.0), 2), 0.2),
        _maybe(rng, 0, 0.1),
    )


def _event_row(rng: random.Random, row_id: int, num_people: int) -> tuple:
    # person_id ranges past num_people: duplicate *and* dangling keys.
    return (
        row_id,
        _maybe(rng, rng.randrange(num_people + 4)),
        _maybe(rng, rng.choice(_KINDS), 0.1),
        _maybe(rng, rng.randrange(-5, 6)),
    )


def _tag_row(rng: random.Random, num_events: int) -> tuple:
    return (
        _maybe(rng, rng.randrange(num_events + 4)),
        _maybe(rng, rng.choice(_CODES), 0.1),
        _maybe(rng, rng.randrange(100)),
    )


def _empty_row(rng: random.Random, row_id: int) -> tuple:
    return (row_id, _maybe(rng, 0), _maybe(rng, rng.choice(_NAMES)))


def _content(rng: random.Random) -> dict[str, list[tuple]]:
    """One seeded database's rows."""
    num_people = rng.randint(18, 30)
    num_events = rng.randint(24, 48)
    group_names = rng.sample(_CODES, k=rng.randint(4, len(_CODES)))
    group_names.append(rng.choice(group_names))  # a duplicate parent key
    return {
        "Hub": [(0, rng.choice(_NAMES))],  # the single-row table
        "Group": [
            (name, rng.randrange(1, 9)) for name in group_names
        ],
        "Person": [_person_row(rng, i) for i in range(num_people)],
        "Event": [
            _event_row(rng, i, num_people) for i in range(num_events)
        ],
        "Tag": [
            _tag_row(rng, num_events) for __ in range(rng.randint(24, 48))
        ],
        "Empty": [],  # gains its first rows only mid-test (post-append)
    }


def _build(name: str, content: dict[str, list[tuple]]) -> Database:
    database = Database(name)
    database.create_table("Hub", [
        Column("id", DataType.INT, primary_key=True),
        Column("name", DataType.TEXT),
    ])
    database.create_table("Group", [
        Column("name", DataType.TEXT),
        Column("size", DataType.INT),
    ])
    database.create_table("Person", [
        Column("id", DataType.INT, primary_key=True),
        Column("name", DataType.TEXT),
        Column("code", DataType.TEXT),
        Column("score", DataType.DECIMAL),
        Column("hub_id", DataType.INT),
    ])
    database.create_table("Event", [
        Column("id", DataType.INT, primary_key=True),
        Column("person_id", DataType.INT),
        Column("kind", DataType.TEXT),
        Column("points", DataType.INT),
    ])
    database.create_table("Tag", [
        Column("event_id", DataType.INT),
        Column("label", DataType.TEXT),
        Column("weight", DataType.INT),
    ])
    database.create_table("Empty", [
        Column("id", DataType.INT),
        Column("hub_id", DataType.INT),
        Column("note", DataType.TEXT),
    ])
    for table_name, rows in content.items():
        database.table(table_name).insert_many(rows)
    database.link("Person.hub_id", "Hub.id")
    database.link("Person.code", "Group.name")  # text ⋈ text edge
    database.link("Event.person_id", "Person.id")
    database.link("Tag.event_id", "Event.id")
    database.link("Empty.hub_id", "Hub.id")
    return database


def _grow(rng: random.Random, database: Database) -> None:
    """Apply one randomized append sequence."""
    num_people = database.table("Person").num_rows
    num_events = database.table("Event").num_rows
    batch: dict[str, list[tuple]] = {
        "Person": [
            _person_row(rng, num_people + i)
            for i in range(rng.randint(1, 4))
        ],
        "Event": [
            _event_row(rng, num_events + i, num_people)
            for i in range(rng.randint(1, 5))
        ],
        "Tag": [_tag_row(rng, num_events) for __ in range(rng.randint(1, 5))],
        # The empty table gains its very first rows here: new dictionary
        # entries and column kernels created *after* caches are warm.
        "Empty": [_empty_row(rng, i) for i in range(rng.randint(0, 3))],
    }
    for table_name, rows in batch.items():
        database.table(table_name).insert_many(rows)


# ----------------------------------------------------------------------
# Executor vs reference (>= 20 seeds, pre- and post-append)
# ----------------------------------------------------------------------
def _widen(database, query, rng) -> ProjectJoinQuery:
    """``query`` projecting one more column of one of its tables, so
    several predicates can constrain the same table."""
    table = rng.choice(query.projections).table
    column = rng.choice(database.table(table).columns).name
    return ProjectJoinQuery(
        query.projections + (ColumnRef(table, column),), query.joins
    )


def _assert_matches_reference(database, executor, workloads, batches) -> None:
    for query, predicates in workloads:
        rows = executor.execute(query, cell_predicates=predicates)
        naive = execute_reference(
            database, query, cell_predicates=_callables(predicates)
        )
        assert sorted(map(repr, rows)) == sorted(map(repr, naive))
        assert executor.exists(query, cell_predicates=predicates) \
            == bool(naive)
    for batch in batches:
        expected = [
            exists_reference(
                database, probe.query, _callables(probe.cell_predicates)
            )
            for probe in batch
        ]
        with executor.round():
            assert executor.exists_batch(batch) == expected


@pytest.mark.parametrize("seed", _SEEDS)
def test_probe_paths_agree_with_kernels_on_and_off(seed):
    """``execute``/``exists``/``exists_batch`` equal the reference on a
    seeded database, before and after two randomized append batches."""
    database = _build("diff-kernel", _content(random.Random(seed)))
    rng = random.Random(seed * 1_000 + 17)
    queries = _random_queries(database, rng, count=8)
    queries += [_widen(database, query, rng) for query in queries]
    workloads = [
        (query, _random_predicates(database, query, rng))
        for query in queries
    ]
    batches = []
    for query in queries[::2]:
        # Inside a round, probes constraining a column with equal
        # constraints share its scan; the repeated first probe does.
        probes = [
            BatchProbe(query, predicates)
            for predicates in (
                _random_predicates(database, query, rng) for __ in range(3)
            )
        ]
        batches.append(probes + probes[:1])

    # A long-lived executor: the second phase runs on warm plan caches
    # and edge kernels that the appends must invalidate.
    executor = Executor(database)
    _assert_matches_reference(database, executor, workloads, batches)

    grow_rng = random.Random(seed * 977 + 5)
    for __ in range(2):
        _grow(grow_rng, database)
        _assert_matches_reference(database, executor, workloads, batches)


# ----------------------------------------------------------------------
# Discovery-level equality with a brute-force reference
# ----------------------------------------------------------------------
_LIMITS = GenerationLimits(
    max_candidates=80, max_assignments=160, max_trees_per_assignment=4
)


def _synthetic(seed: int) -> Database:
    return generate_synthetic_database(
        num_tables=4, rows_per_table=40, topology="random", seed=seed
    )


@pytest.mark.parametrize("seed,level", [
    (11, ResolutionLevel.EXACT),
    (29, ResolutionLevel.MIXED),
    (53, ResolutionLevel.EXACT),
])
def test_discovery_is_identical_with_kernels_on_and_off(seed, level):
    """Discovery returns exactly the candidates a brute-force reference
    decision confirms, the reference reading its own identical
    database."""
    engine = Prism(_synthetic(seed), limits=_LIMITS, time_limit=60.0)
    reference_db = _synthetic(seed)
    generator = WorkloadGenerator(reference_db, seed=seed)
    for __ in range(2):
        case = generator.generate_case(num_columns=3, num_tables=2)
        spec = spec_for_level(
            case, level, reference_db, catalog=engine.catalog, seed=seed,
        )
        got = engine.discover(spec, scheduler="bayesian")
        reference_sqls = sorted(
            to_sql(candidate.query)
            for candidate in engine.candidate_queries(spec)
            if _reference_confirms(reference_db, spec, candidate.query)
        )
        assert sorted(got.sql()) == reference_sqls


# ----------------------------------------------------------------------
# Incremental artifacts: refresh vs rebuild equivalence
# ----------------------------------------------------------------------
class TestRefreshEquivalence:
    @pytest.mark.parametrize("seed", [7, 41])
    def test_refresh_matches_cold_build_across_paths(self, seed, monkeypatch):
        database = build_company_database()
        monkeypatch.setattr(artifacts, "MAX_DELTA_FRACTION", 0.9)
        store = ArtifactStore()
        store.get(database)
        rng = random.Random(seed)
        for __ in range(3):
            _append_random_batch(rng, database)
            refreshed = store.refresh(database)
        assert store.stats.refreshes == 3
        assert store.stats.rebuild_fallbacks == 0
        assert store.stats.delta_rows_applied > 0

        # The delta path matches a cold build of the grown database.
        cold = ArtifactStore().build(database)
        _assert_bundles_equivalent(refreshed, cold)

        for spec in _specs():
            got = Prism.from_artifacts(refreshed).discover(spec)
            want = Prism.from_artifacts(cold).discover(spec)
            assert got.sql() == want.sql()
            assert got.num_queries == want.num_queries
