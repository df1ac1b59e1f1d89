"""Filter decomposition against the reference decomposition.

:func:`repro.discovery.filters.build_filters` walks each join tree's
cached subtree shapes, keys filter occurrences by plain tuples and finds
containment from stored cell sets; the reference
(:mod:`tests.discovery.reference_filters`) enumerates every candidate's
subtrees again and zips cells for every pair.  Filter ids differ between
the two (the reference numbers filters in hash-seed order), so every
comparison maps ids to a filter's content key: its sample, positions,
projected columns, join-edge set and tables, which is also its
sub-query as ``(projections, frozenset(joins))``.  Over the specs of
:mod:`tests.discovery.test_driver_differential` and every resolution
level on the bundled databases and on seeded synthetic schemas, with one
and two sample rows, both must build the same filters, share them
between the same candidates, pick the same top filters and relate the
same pairs by containment.  Each filter's sub-query must carry, preset
from its shape, the tables and join prefix key that a fresh query of
the same projections and joins computes.
"""

from __future__ import annotations

import pytest

from repro import Prism, generate_synthetic_database
from repro.constraints.spec import MappingSpec
from repro.constraints.values import ExactValue
from repro.dataset.schema import ColumnRef, ForeignKey
from repro.discovery.candidates import CandidateQuery
from repro.discovery.filters import build_filters
from repro.errors import DiscoveryError, WorkloadError
from repro.query.pj_query import ProjectJoinQuery
from repro.query.plan import join_prefix_key
from repro.workloads.degrade import ResolutionLevel, spec_for_level
from repro.workloads.generator import WorkloadGenerator
from tests.discovery import reference_filters as reference
from tests.discovery.test_driver_differential import (
    _CASES,
    _DATABASES,
    _LIMITS,
    _case,
    _ids,
)

#: Seeded synthetic schemas of every topology.
_SYNTHETIC = {
    f"{topology}-{seed}": (
        lambda topology=topology, seed=seed: generate_synthetic_database(
            4, 100, topology=topology, seed=seed, skew=0.8,
            dangling_fk_fraction=0.2, name=f"{topology}{seed}",
        )
    )
    for topology in ("random", "chain", "star")
    for seed in (11, 12)
}
_LOADERS = {**_DATABASES, **_SYNTHETIC}
#: Schemas on which every resolution level is compared.
_SCHEMAS = ["mondial", "imdb", "nba", *_SYNTHETIC]
#: (columns, tables) of the ground-truth queries drawn per schema.
_SHAPES = [(2, 1), (3, 2), (3, 3)]


def _key(filter_) -> tuple:
    return (
        filter_.sample_index,
        filter_.positions,
        filter_.query.projections,
        frozenset(filter_.query.joins),
        filter_.tables,
    )


def _decomposition(filter_set) -> dict:
    """Everything a filter set decides, with filter ids mapped to keys."""
    keys = [_key(filter_) for filter_ in filter_set.filters]
    assert len(set(keys)) == len(keys)

    def mapped(ids) -> frozenset:
        return frozenset(keys[i] for i in ids)

    return {
        "candidate_ids": {
            keys[f.id]: frozenset(f.candidate_ids) for f in filter_set.filters
        },
        "candidate_filters": {
            candidate_id: mapped(ids)
            for candidate_id, ids in filter_set.candidate_filters.items()
        },
        "candidate_tops": {
            candidate_id: {sample: keys[i] for sample, i in tops.items()}
            for candidate_id, tops in filter_set.candidate_tops.items()
        },
        "ancestors": {
            keys[f.id]: mapped(filter_set.ancestors(f.id))
            for f in filter_set.filters
        },
        "descendants": {
            keys[f.id]: mapped(filter_set.descendants(f.id))
            for f in filter_set.filters
        },
    }


def _check(spec, candidates) -> int:
    """Assert both decompositions agree; return how many filters."""
    actual = build_filters(spec, candidates)
    expected = reference.build_filters(spec, candidates)
    for position, filter_ in enumerate(actual.filters):
        assert filter_.id == position
        assert filter_.cells == frozenset(
            zip(filter_.positions, filter_.query.projections)
        )
        assert filter_.shape == (filter_.tables, frozenset(filter_.query.joins))
        # The sub-query was built with its tables and prefix key preset.
        fresh = ProjectJoinQuery(filter_.query.projections, filter_.query.joins)
        assert filter_.query.tables is filter_.tables
        assert filter_.query.tables == fresh.tables
        assert join_prefix_key(filter_.query) == join_prefix_key(fresh)
    assert actual.num_filters == expected.num_filters
    assert _decomposition(actual) == _decomposition(expected)
    return actual.num_filters


@pytest.fixture(scope="module")
def engines():
    built = {}

    def engine(name: str) -> Prism:
        if name not in built:
            built[name] = Prism(_LOADERS[name](), limits=_LIMITS, train_bayesian=False)
        return built[name]

    return engine


@pytest.mark.parametrize("database, shape, level", _CASES, ids=_ids(_CASES))
def test_driver_differential_specs(engines, database, shape, level):
    engine = engines(database)
    spec, __ = _case(engine, shape, level)
    assert _check(spec, engine.candidate_queries(spec))


@pytest.mark.parametrize("samples", [1, 2])
@pytest.mark.parametrize("schema", _SCHEMAS)
def test_every_level(engines, schema, samples):
    engine = engines(schema)
    generator = WorkloadGenerator(engine.database, seed=samples)
    compared = 0
    for shape in _SHAPES:
        try:
            case = generator.generate_case(*shape, num_samples=samples)
        except WorkloadError:
            continue
        for level in ResolutionLevel:
            spec = spec_for_level(
                case, level, engine.database, engine.catalog, seed=samples
            )
            compared += _check(spec, engine.candidate_queries(spec))
    assert compared


def test_a_candidate_that_is_not_one_join_tree_is_refused():
    """A candidate's top filter is its join tree's whole shape.  Joins
    that leave a projected table unconnected have no such shape, and
    the candidate is refused rather than given a partial top filter
    (the reference built that top filter from the query as given)."""
    query = ProjectJoinQuery(
        (ColumnRef("Department", "Name"), ColumnRef("Project", "Title")),
        (ForeignKey("Employee", "Department", "Department", "Name"),),
    )
    spec = MappingSpec(2)
    spec.add_sample_cells([ExactValue("Engineering"), ExactValue("Query Optimizer")])
    with pytest.raises(DiscoveryError, match="one tree"):
        build_filters(spec, [CandidateQuery(0, query)])
