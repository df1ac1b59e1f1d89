"""Plan and scan sharing inside one discovery round.

Validation decides one filter at a time, and each decision is one
existence probe, but the probes of a round share two things: the
executor lowers one physical plan per join structure (cached under
:func:`~repro.query.plan.join_prefix_key`, whatever a probe projects),
and ``discover()`` runs inside :meth:`~repro.query.executor.Executor.round`,
which scans each (table, column, constraint) once.  This harness counts
both on an e3-style filter-validation workload (ground-truth cases from
a WorkloadGenerator, MIXED resolution, the default bayesian scheduler)
over a synthetic database large enough that validation dominates the
round — the regime the paper's e3 experiment is about.  The report test
asserts, with deterministic counters only,

* one plan per join structure: ``Planner.join_order`` runs once per
  structure across the workload, ``plan_cache_builds`` counts exactly
  those structures and every later lookup is a ``plan_cache_hits``, and
* one ``Table.select_rows`` per (table, column, constraint) inside each
  ``discover()``,

and writes the counts, with each round's wall clock (recorded, not
asserted), to ``REPORT_DIR/plan_sharing.txt``.

A tiny ``smoke`` benchmark (eight probes over one structure on a
hand-built database) runs in CI so a plan or scan that stops being
shared fails fast without the full workload.
"""

from __future__ import annotations

import time
from collections import Counter

import pytest

from benchmarks.conftest import write_report
from repro.constraints.values import Predicate
from repro.dataset import Column, Database, DataType, Table
from repro.dataset.schema import ColumnRef, ForeignKey
from repro.datasets.synthetic import generate_synthetic_database
from repro.discovery import GenerationLimits, Prism
from repro.evaluation.reporting import format_table
from repro.query.executor import Executor
from repro.query.pj_query import ProjectJoinQuery
from repro.query.plan import join_prefix_key
from repro.query.planner import Planner
from repro.workloads.degrade import ResolutionLevel, spec_for_level
from repro.workloads.generator import WorkloadGenerator

_LEVEL = ResolutionLevel.MIXED
_LIMITS = GenerationLimits(
    max_candidates=200, max_assignments=400, max_trees_per_assignment=6
)


@pytest.fixture(scope="module")
def sharing_db():
    """A synthetic database big enough that validation dominates."""
    return generate_synthetic_database(
        num_tables=6, rows_per_table=2500, topology="random", seed=9
    )


@pytest.fixture(scope="module")
def base_engine(sharing_db):
    """One preprocessing pass shared by the workload's engine."""
    return Prism(sharing_db, limits=_LIMITS)


@pytest.fixture(scope="module")
def sharing_cases(sharing_db):
    generator = WorkloadGenerator(sharing_db, seed=21)
    return [
        generator.generate_case(num_columns=3, num_tables=2) for __ in range(3)
    ]


def _count_scans(monkeypatch) -> Counter:
    """``Table.select_rows`` calls per (table, column, constraint)."""
    scans: Counter = Counter()
    select_rows = Table.select_rows

    def counting(table, name, constraint):
        scans[table.name, name, constraint] += 1
        return select_rows(table, name, constraint)

    monkeypatch.setattr(Table, "select_rows", counting)
    return scans


def _count_orders(monkeypatch) -> Counter:
    """``Planner.join_order`` calls per join structure."""
    orders: Counter = Counter()
    join_order = Planner.join_order

    def counting(planner, query):
        orders[join_prefix_key(query)] += 1
        return join_order(planner, query)

    monkeypatch.setattr(Planner, "join_order", counting)
    return orders


def test_plan_sharing_report(benchmark, base_engine, sharing_cases, monkeypatch):
    """Count each round's plans and scans, and assert they are shared."""
    scans = _count_scans(monkeypatch)
    orders = _count_orders(monkeypatch)
    # A cold-cache engine over the shared artifacts (cheap to build).
    engine = Prism(
        base_engine.database,
        limits=_LIMITS,
        train_bayesian=False,
        index=base_engine.index,
        catalog=base_engine.catalog,
        schema_graph=base_engine.schema_graph,
        models=base_engine.models,
    )
    rows = []
    for index, case in enumerate(sharing_cases):
        spec = spec_for_level(
            case, _LEVEL, base_engine.database, catalog=base_engine.catalog, seed=0
        )
        scans.clear()
        started = time.perf_counter()
        stats = engine.discover(spec, scheduler="bayesian").stats
        seconds = time.perf_counter() - started
        # One scan per (table, column, constraint) inside the round.
        assert scans and max(scans.values()) == 1, scans.most_common(1)
        rows.append({
            "case": index,
            "seconds": round(seconds, 4),
            "validations": stats.validations,
            "probes": stats.exists_cache_misses,
            "select_rows": sum(scans.values()),
            "plan_builds": stats.plan_cache_builds,
            "plan_hits": stats.plan_cache_hits,
            "joins_performed": stats.joins_performed,
        })
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)

    # One plan per join structure, across the whole workload.
    assert orders and max(orders.values()) == 1, orders.most_common(1)
    builds = sum(row["plan_builds"] for row in rows)
    hits = sum(row["plan_hits"] for row in rows)
    assert builds == len(orders) == len(engine.executor.cache.plans)
    assert hits > builds
    # Probes share scans: far fewer scans than probes.
    assert sum(row["select_rows"] for row in rows) < sum(
        row["probes"] for row in rows
    )

    columns = ["case", "seconds", "validations", "probes", "select_rows",
               "plan_builds", "plan_hits", "joins_performed"]
    table = format_table(
        rows,
        columns=columns,
        title="Plan and scan sharing per discover() "
              f"(e3-style workload, level={_LEVEL.value}, "
              "6x2500-row synthetic db, one engine)",
    )
    write_report("plan_sharing", table)


# ----------------------------------------------------------------------
# CI smoke: eight probes over one structure, no workload, sub-second.
# ----------------------------------------------------------------------
def _smoke_database() -> Database:
    database = Database("plansmoke")
    left = database.create_table(
        "L", [Column("k", DataType.TEXT), Column("v", DataType.INT)]
    )
    right = database.create_table(
        "R", [Column("k", DataType.TEXT), Column("w", DataType.INT)]
    )
    left.insert_many([(f"k{i % 17}", i) for i in range(400)])
    right.insert_many([(f"k{i % 17}", i * 10) for i in range(400)])
    database.link("L.k", "R.k")
    return database


def test_plan_sharing_smoke(benchmark, monkeypatch):
    """Eight probes in one round, over one structure with two different
    projections: one plan, one scan per distinct constraint."""
    database = _smoke_database()
    edge = ForeignKey("L", "k", "R", "k")
    forward = ProjectJoinQuery((ColumnRef("L", "v"), ColumnRef("R", "w")), (edge,))
    backward = ProjectJoinQuery((ColumnRef("R", "w"), ColumnRef("L", "v")), (edge,))
    constraints = [Predicate(">", b) for b in (10, 100, 200, 399)]
    scans = _count_scans(monkeypatch)

    def run():
        scans.clear()
        executor = Executor(database)
        with executor.round():
            outcomes = [executor.exists(forward, {0: c}) for c in constraints]
            outcomes += [executor.exists(backward, {1: c}) for c in constraints]
        return outcomes, executor.stats

    outcomes, stats = benchmark(run)
    assert outcomes == [True, True, True, False] * 2
    # "> 399" selects no row, so its two probes never plan.
    assert (stats.plan_cache_builds, stats.plan_cache_hits) == (1, 5)
    assert stats.joins_performed == 6
    assert scans == {("L", "v", c): 1 for c in constraints}
