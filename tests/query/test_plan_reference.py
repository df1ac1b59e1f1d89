"""The planner, SQL renderer and explain plans against the tree-based
reference.

:class:`~repro.query.planner.Planner` orders joins straight from a
:class:`~repro.query.pj_query.ProjectJoinQuery`, :func:`to_sql` renders
straight from it, and only :meth:`Executor.logical_plan` builds a plan
tree.  The reference (:mod:`tests.query.reference_plan`) is the same
path as it was when every query lowered through a logical-plan tree
that the planner took apart, reordered and rebuilt.  Over every
candidate and filter query of degraded specs on the bundled databases
and on a dozen seeded synthetic schemas, both must give:

* the same join order (start table and edge tuple), with sketches on,
  with sketches off and without a catalog;
* the same ``structure_rows`` estimate, compared with ``==``;
* byte-equal SQL, plain and pretty with the spec's sample constraints;
* byte-equal ``prism explain --plan`` trees, annotated with estimates
  and with the first constrained sample row's predicates.
"""

from __future__ import annotations

import pytest

from repro import generate_synthetic_database, load_imdb, load_mondial, load_nba
from repro.dataset.catalog import MetadataCatalog
from repro.dataset.index import InvertedIndex
from repro.dataset.schema_graph import SchemaGraph
from repro.discovery.candidates import CandidateGenerator, GenerationLimits
from repro.discovery.filters import build_filters
from repro.discovery.related_columns import RelatedColumnFinder
from repro.explain.render import plan_to_ascii
from repro.query.executor import Executor
from repro.query.plan import PredicateSpec
from repro.query.planner import Planner
from repro.query.sql import to_sql
from repro.workloads.degrade import ResolutionLevel, spec_for_level
from repro.workloads.generator import WorkloadGenerator
from tests.query import reference_plan as reference

_LIMITS = GenerationLimits(
    max_candidates=120, max_assignments=240, max_trees_per_assignment=5
)
_BUNDLED = {"mondial": load_mondial, "imdb": load_imdb, "nba": load_nba}
#: (topology, seed) of each synthetic schema.
_SYNTHETIC = [("random", seed) for seed in range(1, 7)] + [
    ("chain", seed) for seed in range(7, 13)
]
#: (columns, tables, level) of each spec's ground-truth case.
_BUNDLED_SHAPES = [
    (3, 2, ResolutionLevel.EXACT),
    (2, 1, ResolutionLevel.MIXED),
    (3, 3, ResolutionLevel.SPARSE),
    (3, 2, ResolutionLevel.RANGE),
    (2, 2, ResolutionLevel.DISJUNCTION),
]
_SYNTHETIC_SHAPES = [
    (3, 2, ResolutionLevel.MIXED),
    (3, 3, ResolutionLevel.RANGE),
]


def _synthetic(topology: str, seed: int):
    return generate_synthetic_database(
        num_tables=5 + seed % 2,
        rows_per_table=120,
        topology=topology,
        seed=seed,
        skew=0.5 * (seed % 3),
        dangling_fk_fraction=0.1 * (seed % 4),
    )


def _specs_and_queries(database, catalog, shapes, seed):
    """Each degraded spec with its candidate and filter queries."""
    finder = RelatedColumnFinder(
        database, InvertedIndex.build(database), catalog
    )
    generator = CandidateGenerator(database, SchemaGraph(database), _LIMITS)
    workload = WorkloadGenerator(database, seed=seed)
    cases = []
    for columns, tables, level in shapes:
        case = workload.generate_case(columns, tables, num_samples=2)
        spec = spec_for_level(case, level, database, catalog, seed=seed)
        candidates = generator.generate(spec, finder.find(spec))
        filters = build_filters(spec, candidates)
        queries = [candidate.query for candidate in candidates]
        queries.extend(filter_.query for filter_ in filters.filters)
        cases.append((spec, queries))
    return cases


def _explain_predicates(spec, query) -> list[PredicateSpec]:
    """The first constrained sample row's predicates, as the workbench
    overlays them on ``prism explain --plan``."""
    for row in spec.samples:
        specs = [
            PredicateSpec(
                query.projections[position].table,
                query.projections[position].column,
                tag=row.cell(position),
            )
            for position in row.constrained_positions()
            if position < query.width
        ]
        if specs:
            return specs
    return []


def _assert_matches_reference(database, shapes, seed):
    catalog = MetadataCatalog.build(database)
    executor = Executor(database, catalog)
    planners = [
        executor.planner,
        Planner(database, catalog, use_sketches=False),
        Planner(database),
    ]
    memos = [{} for _ in planners]
    checked = 0
    for spec, queries in _specs_and_queries(database, catalog, shapes, seed):
        assert queries
        for query in queries:
            for planner, memo in zip(planners, memos):
                ours = planner.join_order(query)
                theirs = reference.join_order(planner, query)
                assert ours.start_table == theirs.start_table, query
                assert ours.edges == theirs.edges, query
                assert planner.structure_rows(query) == (
                    reference.structure_rows(planner, query, memo)
                ), query
            assert to_sql(query) == reference.to_sql(query)
            assert to_sql(query, pretty=True, spec=spec) == reference.to_sql(
                query, pretty=True, spec=spec
            )
            predicates = _explain_predicates(spec, query)
            planner = executor.planner
            assert plan_to_ascii(
                executor.logical_plan(query, predicates), planner
            ) == plan_to_ascii(
                reference.logical_plan(planner, query, predicates), planner
            )
            checked += 1
    return checked


@pytest.mark.parametrize("name", sorted(_BUNDLED))
def test_bundled_database_matches_reference(name):
    checked = _assert_matches_reference(_BUNDLED[name](), _BUNDLED_SHAPES, 7)
    assert checked >= 100


@pytest.mark.parametrize(
    "topology,seed", _SYNTHETIC, ids=[f"{t}-{s}" for t, s in _SYNTHETIC]
)
def test_synthetic_schema_matches_reference(topology, seed):
    checked = _assert_matches_reference(
        _synthetic(topology, seed), _SYNTHETIC_SHAPES, seed
    )
    assert checked >= 10
