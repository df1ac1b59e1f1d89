"""Unit tests for constraint degradation (resolution levels)."""

from __future__ import annotations

import pytest

from repro.constraints.resolution import Resolution
from repro.constraints.values import ExactValue, OneOf, Range
from repro.dataset.catalog import MetadataCatalog
from repro.dataset.database import Database
from repro.dataset.schema import Column, ColumnRef
from repro.dataset.types import DataType
from repro.errors import WorkloadError
from repro.query.pj_query import ProjectJoinQuery
from repro.workloads.degrade import (
    DEFAULT_SWEEP_LEVELS,
    ResolutionLevel,
    spec_for_level,
)
from repro.workloads.generator import WorkloadCase, WorkloadGenerator


@pytest.fixture(scope="module")
def case(company_db_session):
    generator = WorkloadGenerator(company_db_session, seed=9)
    return generator.generate_case(num_columns=3, num_tables=2)


@pytest.fixture(scope="module")
def catalog(company_db_session):
    return MetadataCatalog.build(company_db_session)


class TestLevels:
    def test_level_names_resolve(self):
        assert ResolutionLevel.from_name("exact") is ResolutionLevel.EXACT
        assert ResolutionLevel.from_name("DISJUNCTION") is ResolutionLevel.DISJUNCTION
        with pytest.raises(WorkloadError):
            ResolutionLevel.from_name("fuzzy")

    def test_default_sweep_covers_exact_to_sparse(self):
        assert DEFAULT_SWEEP_LEVELS[0] is ResolutionLevel.EXACT
        assert ResolutionLevel.SPARSE in DEFAULT_SWEEP_LEVELS


class TestSpecDerivation:
    def test_exact_level_keeps_every_cell(self, case, company_db_session):
        spec = spec_for_level(case, ResolutionLevel.EXACT, company_db_session)
        assert len(spec.samples) == len(case.sample_rows)
        sample = spec.samples[0]
        assert sample.is_complete
        assert all(isinstance(cell, ExactValue) for cell in sample.cells)
        assert sample.satisfied_by_row(case.sample_rows[0])

    def test_partial_level_blanks_one_cell(self, case, company_db_session):
        spec = spec_for_level(case, ResolutionLevel.PARTIAL, company_db_session)
        sample = spec.samples[0]
        assert not sample.is_complete
        assert len(sample.constrained_positions()) == case.num_columns - 1

    def test_disjunction_level_contains_the_true_value(self, case, company_db_session):
        spec = spec_for_level(case, ResolutionLevel.DISJUNCTION, company_db_session)
        sample = spec.samples[0]
        assert sample.satisfied_by_row(case.sample_rows[0])
        assert any(isinstance(cell, OneOf) for cell in sample.cells)

    def test_range_level_wraps_numeric_cells(self, case, company_db_session):
        spec = spec_for_level(case, ResolutionLevel.RANGE, company_db_session)
        sample = spec.samples[0]
        assert sample.satisfied_by_row(case.sample_rows[0])

    def test_mixed_level_is_at_most_medium_resolution(self, case, company_db_session):
        spec = spec_for_level(case, ResolutionLevel.MIXED, company_db_session)
        assert spec.resolution <= Resolution.MEDIUM
        assert spec.samples[0].satisfied_by_row(case.sample_rows[0])

    def test_sparse_level_keeps_one_cell_and_adds_metadata(
        self, case, company_db_session, catalog
    ):
        spec = spec_for_level(
            case, ResolutionLevel.SPARSE, company_db_session, catalog=catalog
        )
        sample = spec.samples[0]
        assert len(sample.constrained_positions()) == 1
        # Metadata describes the ground-truth columns truthfully.
        for position, constraint in spec.metadata.items():
            ref = case.ground_truth.projections[position]
            assert constraint.matches(catalog.stats(ref))

    def test_metadata_level_constrains_every_other_column(
        self, case, company_db_session, catalog
    ):
        spec = spec_for_level(
            case, ResolutionLevel.METADATA, company_db_session, catalog=catalog
        )
        constrained = set(spec.samples[0].constrained_positions())
        assert len(constrained) == 1
        assert set(spec.metadata) == set(range(case.num_columns)) - constrained

    def test_derivation_is_deterministic(self, case, company_db_session):
        first = spec_for_level(case, ResolutionLevel.MIXED, company_db_session, seed=5)
        second = spec_for_level(case, ResolutionLevel.MIXED, company_db_session, seed=5)
        assert [s.describe() for s in first.samples] == [
            s.describe() for s in second.samples
        ]

    def test_different_seeds_can_differ(self, case, company_db_session):
        texts = {
            spec_for_level(
                case, ResolutionLevel.PARTIAL, company_db_session, seed=seed
            ).samples[0].describe()
            for seed in range(6)
        }
        assert len(texts) >= 2

    def test_case_without_samples_is_rejected(self, case, company_db_session):
        empty = WorkloadCase(case_id=99, ground_truth=case.ground_truth, sample_rows=[])
        with pytest.raises(WorkloadError):
            spec_for_level(empty, ResolutionLevel.EXACT, company_db_session)

    def test_ground_truth_satisfies_derived_specs_at_every_level(
        self, case, company_db_session, catalog
    ):
        from repro.query.executor import Executor

        executor = Executor(company_db_session)
        rows = executor.execute(case.ground_truth)
        for level in DEFAULT_SWEEP_LEVELS:
            spec = spec_for_level(
                case, level, company_db_session, catalog=catalog
            )
            for sample in spec.samples:
                assert sample.satisfied_by_result(rows), level


class TestIntegersBeyondFloatRange:
    """A cell or column minimum that ``float()`` cannot hold degrades to
    an exact value and a bare type predicate, never to an error or to a
    bound that excludes the ground truth."""

    @pytest.fixture(scope="class")
    def huge(self):
        database = Database("huge")
        table = database.create_table(
            "Big", [Column("Name", DataType.TEXT), Column("N", DataType.INT)]
        )
        rows = [("a", 10**400), ("b", 10**401)]
        table.insert_many(rows)
        case = WorkloadCase(
            case_id=1,
            ground_truth=ProjectJoinQuery(
                (ColumnRef("Big", "Name"), ColumnRef("Big", "N"))
            ),
            sample_rows=rows,
        )
        return database, case, MetadataCatalog.build(database)

    @pytest.mark.parametrize("level", list(ResolutionLevel))
    @pytest.mark.parametrize("seed", range(6))
    def test_spec_holds_the_ground_truth(self, huge, level, seed):
        database, case, catalog = huge
        spec = spec_for_level(case, level, database, catalog=catalog, seed=seed)
        for sample, row in zip(spec.samples, case.sample_rows):
            for cell, value in zip(sample.cells, row):
                assert cell is None or cell.matches(value)
        for position, constraint in spec.metadata.items():
            ref = case.ground_truth.projections[position]
            assert constraint.matches(catalog.stats(ref))
