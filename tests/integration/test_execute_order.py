"""``execute`` and ``count`` against the nested-loop walk they replaced.

The executor enumerates join rows with array joins over the
semijoin-reduced tables (:func:`repro.query.kernels.join_rows`).
Callers rely on its row order — ``WorkloadGenerator`` samples from
``execute(query, limit=500)`` — so this suite keeps the row-at-a-time
walk as an oracle: the executor's own pushdown and plan, a dict index
per join step, and a depth-first walk from the start table in ascending
row order.  ``execute`` must return exactly the oracle's list, order
included, at every limit, and ``count`` its length, on

* the 20 seeded edge-case databases of
  :mod:`tests.integration.test_kernel_differential`, before and after
  two randomized append batches;
* seeded databases whose join keys compare across types (float ⋈ int
  with NaN, bool ⋈ int) or as objects (DATE ⋈ DATE), which take the
  set-mode kernel;
* the three bundled demo databases.

A last check bounds the work ``limit`` leaves: a 3-table join whose
rows all share one key returns its first rows without building the
full join.
"""

from __future__ import annotations

import datetime
import random
import tracemalloc
from itertools import islice
from typing import Iterator

import pytest

from repro.dataset import Column, Database, DataType
from repro.dataset.schema import ColumnRef, ForeignKey
from repro.datasets import load_imdb, load_mondial, load_nba
from repro.query.executor import Executor
from repro.query.pj_query import ProjectJoinQuery
from repro.workloads.generator import WorkloadGenerator
from tests.integration.test_kernel_differential import (
    _SEEDS,
    _build,
    _content,
    _grow,
    _widen,
)
from tests.integration.test_planner_differential import (
    _random_predicates,
    _random_queries,
)

_LIMITS = (None, 1, 2, 7, 500)


def _oracle(executor, query, cell_predicates=None) -> Iterator[tuple]:
    """Result rows of ``query`` by a depth-first nested-loop walk.

    Uses the executor's own pushdown and plan, so only the join
    mechanism differs: each step looks the existing row's key up in a
    dict from key to ascending new-table rows (NULL keys left out).
    """
    selections = executor._pushdown(query, cell_predicates)
    if selections is None:
        return
    plan = executor._plan(query)
    database = executor.database

    def key_reader(table, position):
        return database.table(table).backend.cell_reader(table, position)

    steps = []
    for step in plan.steps:
        read_new = key_reader(step.new_table, step.new_position)
        index: dict = {}
        for row in range(database.table(step.new_table).num_rows):
            key = read_new(row)
            if key is not None:
                index.setdefault(key, []).append(row)
        steps.append((
            key_reader(step.existing_table, step.existing_position),
            step.existing_table,
            step.new_table,
            index,
            selections.get(step.new_table),
        ))
    projectors = [
        (database.table(ref.table).cell_reader(ref.column), ref.table)
        for ref in query.projections
    ]

    def extend(assignment, depth):
        if depth == len(steps):
            yield tuple(read(assignment[table]) for read, table in projectors)
            return
        read_key, existing_table, new_table, index, selection = steps[depth]
        for row in index.get(read_key(assignment[existing_table]), ()):
            if selection is None or row in selection:
                yield from extend({**assignment, new_table: row}, depth + 1)

    start = selections.get(plan.start_table)
    if start is None:
        start = range(database.table(plan.start_table).num_rows)
    for row in sorted(start):
        yield from extend({plan.start_table: row}, 0)


def _assert_matches_oracle(executor, workloads) -> int:
    """Exact list equality at every limit; returns the rows checked."""
    checked = 0
    for query, predicates in workloads:
        expected = list(_oracle(executor, query, predicates))
        for limit in _LIMITS:
            got = executor.execute(query, cell_predicates=predicates, limit=limit)
            assert got == expected[:limit], (query, predicates, limit)
        assert executor.count(query, cell_predicates=predicates) == len(expected)
        checked += len(expected)
    return checked


def _workloads(database, queries, rng) -> list:
    """Each query bare and under random cell predicates."""
    return [(query, None) for query in queries] + [
        (query, _random_predicates(database, query, rng)) for query in queries
    ]


@pytest.mark.parametrize("seed", _SEEDS)
def test_edge_case_databases_keep_nested_loop_order(seed):
    """The differential suite's databases and queries, on a long-lived
    executor, before and after two randomized append batches."""
    database = _build("order", _content(random.Random(seed)))
    rng = random.Random(seed * 1_000 + 17)
    queries = _random_queries(database, rng, count=8)
    queries += [_widen(database, query, rng) for query in queries]
    workloads = _workloads(database, queries, rng)
    executor = Executor(database)
    checked = _assert_matches_oracle(executor, workloads)
    grow_rng = random.Random(seed * 977 + 5)
    for __ in range(2):
        _grow(grow_rng, database)
        checked += _assert_matches_oracle(executor, workloads)
    assert checked


def _cross_type_database(seed: int) -> Database:
    """Join keys that compare under Python equality: F.k (float, NaN
    included) ⋈ N.k (int), B.flag (bool) ⋈ N.k, N.day ⋈ D.day (dates)."""
    rng = random.Random(seed)
    nan = float("nan")
    days = [datetime.date(2019, 1, day) for day in (1, 2, 3)] + [None]
    database = Database(f"cross-{seed}")
    database.create_table("F", [
        Column("k", DataType.DECIMAL), Column("v", DataType.INT),
    ])
    database.create_table("N", [
        Column("k", DataType.INT), Column("day", DataType.DATE),
        Column("u", DataType.INT),
    ])
    database.create_table("B", [
        Column("flag", DataType.BOOLEAN), Column("w", DataType.INT),
    ])
    database.create_table("D", [
        Column("day", DataType.DATE), Column("y", DataType.INT),
    ])

    def rows(make, low=1, high=9):
        return [make() for __ in range(rng.randint(low, high))]

    database.table("F").insert_many(rows(lambda: (
        rng.choice([nan, nan, None, 0.0, 1.0, 2.0, 2.5]), rng.randrange(5),
    )) + [(nan, 0)])
    database.table("N").insert_many(rows(lambda: (
        rng.choice([None, 0, 1, 2, 3]), rng.choice(days), rng.randrange(5),
    )))
    database.table("B").insert_many(rows(lambda: (
        rng.choice([True, False, None]), rng.randrange(5),
    )))
    database.table("D").insert_many(rows(lambda: (
        rng.choice(days), rng.randrange(5),
    )))
    database.link("N.k", "F.k")
    database.link("B.flag", "N.k")
    database.link("N.day", "D.day")
    return database


def test_cross_type_join_keys_keep_nested_loop_order():
    """Seeded float ⋈ int (NaN), bool ⋈ int and DATE ⋈ DATE joins: every
    edge takes the set-mode kernel, and rows keep the walk's order."""
    modes = set()
    checked = 0
    for seed in range(30):
        database = _cross_type_database(seed)
        executor = Executor(database)
        rng = random.Random(seed)
        queries = _random_queries(database, rng, count=8)
        checked += _assert_matches_oracle(
            executor, _workloads(database, queries, rng)
        )
        modes |= {edge.mode for edge in executor._edge_kernels.values()}
    assert modes == {"set"}
    assert checked


@pytest.mark.parametrize("load", [load_mondial, load_imdb, load_nba])
def test_demo_databases_keep_nested_loop_order(load):
    """Random queries over the bundled demo databases, plus the queries
    ``WorkloadGenerator`` samples its cases from."""
    database = load()
    rng = random.Random(database.name)
    workloads = _workloads(database, _random_queries(database, rng, count=12), rng)
    generator = WorkloadGenerator(database, seed=3)
    workloads += [
        (generator.generate_case(num_columns=3, num_tables=3).ground_truth, None)
        for __ in range(3)
    ]
    assert _assert_matches_oracle(Executor(database), workloads)


@pytest.mark.parametrize("key_type,key", [
    (DataType.INT, 7),
    (DataType.TEXT, "shared"),
    (DataType.DATE, datetime.date(2019, 1, 1)),
], ids=["array", "text", "set"])
def test_limit_bounds_the_work(key_type, key):
    """A 3-table chain whose 1,000 rows per table all share one key has
    10^9 result rows; ``execute(limit=5)`` returns the walk's first 5
    while holding only a few partial rows per step."""
    database = Database("one-key")
    for name in ("A", "B", "C"):
        table = database.create_table(
            name, [Column("k", key_type), Column("i", DataType.INT)]
        )
        table.insert_many([(key, row) for row in range(1_000)])
    database.link("A.k", "B.k")
    database.link("B.k", "C.k")
    query = ProjectJoinQuery(
        (ColumnRef("A", "i"), ColumnRef("B", "i"), ColumnRef("C", "i")),
        (ForeignKey("A", "k", "B", "k"), ForeignKey("B", "k", "C", "k")),
    )
    executor = Executor(database)
    expected = list(islice(_oracle(executor, query), 5))

    tracemalloc.start()
    try:
        rows = executor.execute(query, limit=5)
        __, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rows == expected
    # Without cutting each step to the limit, the last step alone would
    # hold 5 * 1,000 * 1,000 row indexes (40 MB per array).
    assert peak < 4 * 2**20
