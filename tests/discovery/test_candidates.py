"""Unit tests for candidate schema-mapping query generation."""

from __future__ import annotations

import pytest

from repro.constraints.spec import MappingSpec
from repro.constraints.values import ExactValue
from repro.dataset.catalog import MetadataCatalog
from repro.dataset.database import Database
from repro.dataset.index import InvertedIndex
from repro.dataset.schema import Column, ColumnRef
from repro.dataset.schema_graph import SchemaGraph
from repro.dataset.types import DataType
from repro.discovery.candidates import CandidateGenerator, GenerationLimits
from repro.discovery.engine import Prism
from repro.discovery.related_columns import RelatedColumnFinder, RelatedColumns
from repro.errors import DiscoveryError, SchemaError


@pytest.fixture()
def generator(company_db):
    return CandidateGenerator(company_db, SchemaGraph(company_db))


@pytest.fixture()
def finder(company_db):
    return RelatedColumnFinder(
        company_db, InvertedIndex.build(company_db), MetadataCatalog.build(company_db)
    )


class TestGeneration:
    def test_single_table_candidates(self, generator, finder):
        spec = MappingSpec(2)
        spec.add_sample_cells([ExactValue("Alice Chen"), ExactValue(120000)])
        candidates = generator.generate(spec, finder.find(spec))
        assert candidates
        single_table = [c for c in candidates if c.join_size == 0]
        assert any(
            c.query.projections == (ColumnRef("Employee", "Name"),
                                    ColumnRef("Employee", "Salary"))
            for c in single_table
        )

    def test_cross_table_candidates_require_join_trees(self, generator, finder):
        spec = MappingSpec(2)
        spec.add_sample_cells([ExactValue("Ann Arbor"), ExactValue("Alice Chen")])
        candidates = generator.generate(spec, finder.find(spec))
        joined = [c for c in candidates if c.join_size >= 1]
        assert joined, "expected candidates joining Department and Employee"
        for candidate in joined:
            candidate.query.validate(generator._database)

    def test_every_candidate_is_a_valid_tree(self, generator, finder, company_db):
        spec = MappingSpec(2)
        spec.add_sample_cells([ExactValue("Engineering"), ExactValue("Query Optimizer")])
        for candidate in generator.generate(spec, finder.find(spec)):
            candidate.query.validate(company_db)

    def test_candidate_ids_are_unique_and_sequential(self, generator, finder):
        spec = MappingSpec(1).add_sample_cells([ExactValue("Engineering")])
        candidates = generator.generate(spec, finder.find(spec))
        assert [c.id for c in candidates] == list(range(len(candidates)))

    def test_duplicate_queries_are_not_emitted(self, generator, finder):
        spec = MappingSpec(1).add_sample_cells([ExactValue("Engineering")])
        candidates = generator.generate(spec, finder.find(spec))
        signatures = [c.query.signature() for c in candidates]
        assert len(signatures) == len(set(signatures))

    def test_unsatisfiable_related_columns_give_no_candidates(self, generator):
        related = RelatedColumns(per_position={0: set()})
        spec = MappingSpec(1).add_sample_cells([ExactValue("Nothing")])
        assert generator.generate(spec, related) == []

    def test_no_constrained_position_raises(self, generator):
        spec = MappingSpec(1)
        with pytest.raises(DiscoveryError):
            generator.generate(spec, RelatedColumns())

    def test_unconstrained_positions_filled_from_join_tree(self, generator, finder):
        spec = MappingSpec(2)
        spec.add_sample_cells([ExactValue("Engineering"), None])
        candidates = generator.generate(spec, finder.find(spec))
        assert candidates
        for candidate in candidates:
            assert candidate.query.width == 2
            # The filler column must come from a table of the join tree.
            assert candidate.query.projections[1].table in candidate.query.tables

    def test_same_source_column_never_used_twice(self, generator, finder):
        spec = MappingSpec(2)
        spec.add_sample_cells([ExactValue("Engineering"), ExactValue("Engineering")])
        for candidate in generator.generate(spec, finder.find(spec)):
            assert len(set(candidate.query.projections)) == 2

    def test_a_schema_graph_of_another_database_raises(self, company_db):
        """A graph that does not know the related columns' tables is an
        error, not a discovery that silently finds nothing."""
        other = Database("other")
        other.create_table("Elsewhere", [Column("x", DataType.INT)])
        prism = Prism(company_db, schema_graph=SchemaGraph(other))
        spec = MappingSpec(1).add_sample_cells([ExactValue("Engineering")])
        with pytest.raises(SchemaError, match="unknown table"):
            prism.discover(spec)


class TestLimits:
    def test_max_candidates_is_respected(self, company_db, finder):
        limits = GenerationLimits(max_candidates=3)
        generator = CandidateGenerator(company_db, SchemaGraph(company_db), limits)
        spec = MappingSpec(2)
        spec.add_sample_cells([ExactValue("Engineering"), None])
        candidates = generator.generate(spec, finder.find(spec))
        assert len(candidates) <= 3

    def test_max_tables_limits_join_width(self, company_db, finder):
        limits = GenerationLimits(max_tables=2)
        generator = CandidateGenerator(company_db, SchemaGraph(company_db), limits)
        spec = MappingSpec(2)
        spec.add_sample_cells([ExactValue("Engineering"), ExactValue("Query Optimizer")])
        candidates = generator.generate(spec, finder.find(spec))
        # Department/Name and Project/Title are three joins apart, so only
        # same-table or two-table assignments survive.
        assert all(len(c.query.tables) <= 2 for c in candidates)

    def test_expired_deadline_stops_generation(self, generator, finder):
        spec = MappingSpec(2)
        spec.add_sample_cells([ExactValue("Engineering"), None])
        candidates = generator.generate(spec, finder.find(spec), deadline=0.0)
        assert candidates == []

    def test_limits_are_exposed(self, generator):
        assert generator.limits.max_candidates >= 1
