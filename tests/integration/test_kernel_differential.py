"""Randomized differential harness: kernel path vs generic path vs reference.

The executor decides existence probes two ways over the same column
store: vectorized semijoin kernels (:mod:`repro.query.kernels`) once a
probe touches a table of at least ``KERNEL_MIN_ROWS`` rows, and the
generic row-streaming path below that.  The kernels are only trustworthy
if they are *observationally identical* to the generic path — not
"close", but bit for bit, including the executor's accounting counters.
This suite proves that the same way the planner was proven
(:mod:`tests.integration.test_planner_differential`): seeded random
databases, random project-join workloads over them, and three-way
equality between a kernel-forced executor (``KERNEL_MIN_ROWS = 0``), a
kernel-disabled one (``KERNEL_MIN_ROWS`` above every table's row count)
and the naive reference oracle (:mod:`repro.query.reference`) at every
level —

* ``execute`` / ``exists`` / ``exists_batch`` outcomes, with full
  :class:`~repro.query.executor.ExecutionStats` equality between the two
  executors (the kernel path is accounting-transparent by design);
* the same equalities again **after randomized append sequences**
  (long-lived executors span the appends, so join-index invalidation and
  kernel revalidation are under test, not just cold caches);
* end-to-end discovery: identical SQL and identical non-timing stats on
  both paths, and identical SQL to a brute-force reference decision over
  the same candidate set;
* the incremental artifact path: ``ArtifactStore.refresh`` matches a
  cold rebuild, and discovery over the refreshed bundle on the kernel
  path matches discovery over the cold bundle on the generic path.

Each executor runs on its own identically built database: the join-index
cache lives in the store and is counted in ``ExecutionStats``, so two
executors sharing one store would see each other's builds as hits.

The generated databases deliberately concentrate the storage edge cases:
NULLs in join keys and predicate columns, an empty table (which first
gains rows mid-test), a single-row table, unicode text, duplicate
low-cardinality join keys (int *and* text), dangling foreign keys, and
numeric-looking TEXT values.

Actual ``float('nan')`` cells are deliberately absent: NaN join keys
decline the kernel path entirely, which ``tests/storage`` covers
directly.
"""

from __future__ import annotations

import random
from contextlib import contextmanager, nullcontext

import pytest

import repro.query.executor as executor_module
from repro.dataset import Column, Database, DataType
from repro.discovery.candidates import GenerationLimits
from repro.discovery.engine import Prism
from repro.query.executor import BatchProbe, Executor
from repro.query.reference import execute_reference, exists_reference
from repro.query.sql import to_sql
from repro.api import ArtifactStore
from repro.workloads.degrade import ResolutionLevel, spec_for_level
from repro.workloads.generator import WorkloadGenerator
from repro.datasets.synthetic import generate_synthetic_database
from tests.conftest import build_company_database
from tests.integration.test_planner_differential import (
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

# Above every table's row count in this suite: no probe takes a kernel.
_KERNEL_DISABLED_MIN_ROWS = 10**9

# Unicode-heavy, deliberately collision-prone text vocabulary.
_NAMES = [
    "Ada", "ada", "café", "CAFÉ", "北京", "naïve", "Ω-mega", "O'Brien",
    "zulu", "",
]
# Numeric/boolean-*looking* TEXT values (they stay strings end to end).
_CODES = ["1", "2", "3", "0123", "3.14", "true", "False", "NaN"]
_KINDS = ["café", "北京", "naïve", "Ω"]


@pytest.fixture(autouse=True)
def force_kernels(monkeypatch):
    """Tiny differential databases must still exercise the kernel path."""
    monkeypatch.setattr(executor_module, "KERNEL_MIN_ROWS", 0)


@contextmanager
def _generic_path():
    """Run the block with the kernel path disabled."""
    saved = executor_module.KERNEL_MIN_ROWS
    executor_module.KERNEL_MIN_ROWS = _KERNEL_DISABLED_MIN_ROWS
    try:
        yield
    finally:
        executor_module.KERNEL_MIN_ROWS = saved


# ----------------------------------------------------------------------
# Seeded edge-case database pairs
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
    """One seeded database's rows — generated once, inserted per copy."""
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


def _database_pair(seed: int) -> tuple[Database, Database]:
    """Two identical databases: one per executor under comparison."""
    content = _content(random.Random(seed))
    return _build("diff-kernel", content), _build("diff-generic", content)


def _grow_identically(rng: random.Random, databases: list[Database]) -> None:
    """Apply one randomized append sequence to every database equally."""
    reference = databases[0]
    num_people = reference.table("Person").num_rows
    num_events = reference.table("Event").num_rows
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
        # entries and join-index state created *after* caches are warm.
        "Empty": [_empty_row(rng, i) for i in range(rng.randint(0, 3))],
    }
    for database in databases:
        for table_name, rows in batch.items():
            database.table(table_name).insert_many(rows)


# ----------------------------------------------------------------------
# Executor-level triple equality (>= 20 seeds, pre- and post-append)
# ----------------------------------------------------------------------
def _assert_paths_agree(kernel_db, generic_db, kernel_executor,
                        generic_executor, workloads, batches) -> None:
    for query, predicates in workloads:
        vectorized = kernel_executor.execute(query, cell_predicates=predicates)
        with _generic_path():
            streamed = generic_executor.execute(
                query, cell_predicates=predicates
            )
        naive = execute_reference(
            generic_db, query, cell_predicates=predicates
        )
        assert vectorized == streamed
        assert sorted(map(repr, streamed)) == sorted(map(repr, naive))
        expected = exists_reference(kernel_db, query, predicates)
        assert kernel_executor.exists(query, cell_predicates=predicates) \
            == expected
        with _generic_path():
            assert generic_executor.exists(
                query, cell_predicates=predicates
            ) == expected
    for batch in batches:
        expected = [
            exists_reference(generic_db, probe.query, probe.cell_predicates)
            for probe in batch
        ]
        assert kernel_executor.exists_batch(batch) == expected
        with _generic_path():
            assert generic_executor.exists_batch(batch) == expected
    # The kernel path must be invisible in the executor's accounting.
    assert kernel_executor.stats == generic_executor.stats


@pytest.mark.parametrize("seed", _SEEDS)
def test_probe_paths_agree_with_kernels_on_and_off(seed):
    kernel_db, generic_db = _database_pair(seed)
    rng = random.Random(seed * 1_000 + 17)
    queries = _random_queries(kernel_db, rng, count=8)
    workloads = [
        (query, _random_predicates(kernel_db, query, rng))
        for query in queries
    ]
    batches = [
        [
            BatchProbe(query, _random_predicates(kernel_db, query, rng))
            for __ in range(3)
        ]
        for query in queries[::2]
    ]

    # Long-lived executors: the second phase runs on warm plan caches,
    # join indexes and edge kernels that the appends must invalidate.
    kernel_executor = Executor(kernel_db)
    generic_executor = Executor(generic_db)
    _assert_paths_agree(kernel_db, generic_db, kernel_executor,
                        generic_executor, workloads, batches)

    grow_rng = random.Random(seed * 977 + 5)
    for __ in range(2):
        _grow_identically(grow_rng, [kernel_db, generic_db])
        _assert_paths_agree(kernel_db, generic_db, kernel_executor,
                            generic_executor, workloads, batches)
    # Each executor really took its own path.
    assert kernel_executor._edge_kernels
    assert not generic_executor._edge_kernels


# ----------------------------------------------------------------------
# Discovery-level equality (SQL + stats) across paths and reference
# ----------------------------------------------------------------------
_LIMITS = GenerationLimits(
    max_candidates=80, max_assignments=160, max_trees_per_assignment=4
)
_VOLATILE_STATS = (
    "elapsed_seconds",
    "related_column_seconds",
    "candidate_seconds",
    "validation_seconds",
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
    kernel_engine = Prism(_synthetic(seed), limits=_LIMITS, time_limit=60.0)
    with _generic_path():
        generic_engine = Prism(
            _synthetic(seed), limits=_LIMITS, time_limit=60.0
        )
    reference_db = _synthetic(seed)
    generator = WorkloadGenerator(reference_db, seed=seed)
    for __ in range(2):
        case = generator.generate_case(num_columns=3, num_tables=2)
        spec = spec_for_level(
            case, level, reference_db, catalog=generic_engine.catalog,
            seed=seed,
        )
        got = kernel_engine.discover(spec, scheduler="bayesian")
        with _generic_path():
            want = generic_engine.discover(spec, scheduler="bayesian")
        assert got.sql() == want.sql()

        got_stats, want_stats = got.stats.as_dict(), want.stats.as_dict()
        for volatile in _VOLATILE_STATS:
            got_stats.pop(volatile, None)
            want_stats.pop(volatile, None)
        assert got_stats == want_stats

        # Both agree with the brute-force reference decision over the
        # kernel engine's own candidate set — closing the triangle.
        reference_sqls = sorted(
            to_sql(candidate.query)
            for candidate in kernel_engine.candidate_queries(spec)
            if _reference_confirms(reference_db, spec, candidate.query)
        )
        assert sorted(got.sql()) == reference_sqls


# ----------------------------------------------------------------------
# Sketch transparency: estimates steer, they never decide
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed,level", [
    (11, ResolutionLevel.EXACT),
    (29, ResolutionLevel.MIXED),
])
def test_sketches_never_change_discovery_outcomes(seed, level):
    """Sketch-informed discovery returns bit-for-bit the sketch-free
    answer on adversarial (skewed, dangling-FK) data on both the kernel
    and the generic path — the Bloom fast path and HLL estimates may
    reorder and prune work, but never an outcome."""
    def _adversarial_db():
        return generate_synthetic_database(
            num_tables=4,
            rows_per_table=40,
            topology="random",
            seed=seed,
            skew=1.0,
            dangling_fk_fraction=0.4,
        )

    spec_db = _adversarial_db()
    spec_engine = Prism(spec_db, limits=_LIMITS, time_limit=60.0)
    generator = WorkloadGenerator(spec_db, seed=seed)
    specs = [
        spec_for_level(
            generator.generate_case(num_columns=3, num_tables=2),
            level, spec_db, catalog=spec_engine.catalog, seed=seed,
        )
        for __ in range(2)
    ]

    sketch_estimates_used = 0
    for path in (nullcontext, _generic_path):
        with path():
            sketched = Prism(_adversarial_db(), limits=_LIMITS,
                             time_limit=60.0)
            raw = Prism(
                sketched.database,
                limits=_LIMITS,
                time_limit=60.0,
                use_sketches=False,
                index=sketched.index,
                catalog=sketched.catalog,
                schema_graph=sketched.schema_graph,
                models=sketched.models,
            )
            for spec in specs:
                got = sketched.discover(spec, scheduler="bayesian")
                want = raw.discover(spec, scheduler="bayesian")
                assert got.sql() == want.sql()
                assert got.num_queries == want.num_queries
                sketch_estimates_used += got.stats.sketch_estimates_used
                # The raw engine must be genuinely sketch-free.
                assert want.stats.sketch_estimates_used == 0
                assert want.stats.bloom_rejections == 0
    assert sketch_estimates_used > 0


# ----------------------------------------------------------------------
# Incremental artifacts: refresh vs rebuild equivalence
# ----------------------------------------------------------------------
class TestRefreshEquivalence:
    @pytest.mark.parametrize("seed", [7, 41])
    def test_refresh_matches_cold_build_across_paths(self, seed):
        database = build_company_database()
        store = ArtifactStore(max_delta_fraction=0.9)
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
            with _generic_path():
                want = Prism.from_artifacts(cold).discover(spec)
            assert got.sql() == want.sql()
            assert got.num_queries == want.num_queries
