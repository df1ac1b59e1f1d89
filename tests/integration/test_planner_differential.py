"""Differential correctness of the planner path (ISSUE 5 satellite).

Property-style suite: randomized synthetic databases and candidate sets
run through the full planner/executor pipeline *and* through the retained
naive reference path (:mod:`repro.query.reference` — nested-loop joins,
no planner, no caches), asserting bit-for-bit identical results at every
level:

* executor vs reference on individual queries and predicate sets;
* existence probes (through ``exists_batch``, one ``exists`` per probe)
  vs per-probe reference outcomes;
* end-to-end discovery vs a reference decision procedure that
  brute-forces every candidate.
"""

from __future__ import annotations

import random

import pytest

from repro.constraints.values import ExactValue, OneOf
from repro.datasets.synthetic import generate_synthetic_database
from repro.discovery.candidates import GenerationLimits
from repro.discovery.engine import Prism
from repro.query.executor import BatchProbe, Executor
from repro.query.pj_query import ProjectJoinQuery
from repro.query.reference import execute_reference, exists_reference
from repro.query.sql import to_sql
from repro.workloads.degrade import ResolutionLevel, spec_for_level
from repro.workloads.generator import WorkloadGenerator

LIMITS = GenerationLimits(
    max_candidates=120, max_assignments=240, max_trees_per_assignment=5
)


def _random_queries(database, rng, count=12):
    """Random valid PJ queries over the database's foreign-key graph."""
    queries = []
    foreign_keys = list(database.foreign_keys)
    tables = database.table_names
    for __ in range(count):
        start = rng.choice(tables)
        joined = {start}
        edges = []
        for __ in range(rng.randint(0, 3)):
            frontier = [
                fk
                for fk in foreign_keys
                if (fk.child_table in joined) != (fk.parent_table in joined)
            ]
            if not frontier:
                break
            edge = rng.choice(frontier)
            edges.append(edge)
            joined.update(edge.tables())
        projections = []
        for table_name in sorted(joined):
            columns = database.table(table_name).columns
            projections.append(
                (table_name, rng.choice(columns).name)
            )
        rng.shuffle(projections)
        from repro.dataset.schema import ColumnRef

        queries.append(
            ProjectJoinQuery(
                tuple(ColumnRef(t, c) for t, c in projections),
                tuple(edges),
            )
        )
    return queries


def _random_predicates(database, query, rng):
    """Random cell constraints over a query's projections (half the time)."""
    predicates = {}
    for position, ref in enumerate(query.projections):
        if rng.random() < 0.5:
            continue
        values = [
            v
            for v in database.table(ref.table).column_values(ref.column)
            if v is not None
        ]
        if not values:
            continue
        if rng.random() < 0.7:
            wanted = rng.choice(values)
            predicates[position] = ExactValue(wanted)
        else:
            predicates[position] = OneOf(
                rng.sample(values, k=min(3, len(values)))
            )
    return predicates


def _callables(constraints):
    """The reference evaluator's form of cell constraints."""
    return {
        position: constraint.matches
        for position, constraint in (constraints or {}).items()
    }


@pytest.mark.parametrize("topology,seed", [
    ("chain", 11), ("star", 23), ("random", 37),
])
class TestExecutorVsReference:
    def test_execute_matches_reference(self, topology, seed):
        database = generate_synthetic_database(
            num_tables=4, rows_per_table=40, topology=topology, seed=seed
        )
        rng = random.Random(seed)
        for query in _random_queries(database, rng):
            predicates = _random_predicates(database, query, rng)
            fast = Executor(database).execute(query, cell_predicates=predicates)
            naive = execute_reference(
                database, query, cell_predicates=_callables(predicates)
            )
            assert sorted(map(repr, fast)) == sorted(map(repr, naive))

    def test_exists_batch_matches_reference(self, topology, seed):
        database = generate_synthetic_database(
            num_tables=4, rows_per_table=40, topology=topology, seed=seed
        )
        rng = random.Random(seed + 1)
        queries = _random_queries(database, rng, count=6)
        executor = Executor(database)
        for query in queries:
            probes = [
                BatchProbe(query, _random_predicates(database, query, rng))
                for __ in range(4)
            ]
            outcomes = executor.exists_batch(probes)
            expected = [
                exists_reference(
                    database, p.query, _callables(p.cell_predicates)
                )
                for p in probes
            ]
            assert outcomes == expected


def _reference_confirms(database, spec, query) -> bool:
    """Brute-force the paper's confirmation rule for one candidate."""
    if not spec.samples:
        return True
    for sample in spec.samples:
        predicates = {}
        constrained = [
            position
            for position in sample.constrained_positions()
            if position < query.width
        ]
        if not constrained:
            # No top filter for this sample: the driver never confirms.
            return False
        for position in constrained:
            predicates[position] = sample.cell(position).matches
        if not exists_reference(database, query, predicates):
            return False
    return True


@pytest.mark.parametrize("topology,seed", [
    ("chain", 5), ("star", 7), ("random", 13),
])
@pytest.mark.parametrize("level", [ResolutionLevel.EXACT, ResolutionLevel.MIXED])
class TestDiscoveryVsReference:
    def test_discovery_is_bit_for_bit_identical_to_reference(
        self, topology, seed, level
    ):
        database = generate_synthetic_database(
            num_tables=4, rows_per_table=40, topology=topology, seed=seed
        )
        engine = Prism(database, limits=LIMITS, time_limit=60.0)
        generator = WorkloadGenerator(database, seed=seed)
        for case_index in range(2):
            case = generator.generate_case(num_columns=3, num_tables=2)
            spec = spec_for_level(
                case, level, database, catalog=engine.catalog, seed=seed
            )
            result = engine.discover(spec, scheduler="bayesian")
            assert not result.timed_out

            # The planner path agrees with the naive reference decision
            # over the very same candidate set.
            candidates = engine.candidate_queries(spec)
            reference_sqls = sorted(
                to_sql(candidate.query)
                for candidate in candidates
                if _reference_confirms(database, spec, candidate.query)
            )
            assert sorted(result.sql()) == reference_sqls
