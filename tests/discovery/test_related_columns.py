"""Unit tests for related-column discovery (pipeline step 1)."""

from __future__ import annotations

import pytest

from repro.constraints.metadata import MetadataField, MetadataPredicate
from repro.constraints.spec import MappingSpec
from repro.constraints.values import ExactValue, OneOf, Predicate, Range
from repro.dataset.catalog import MetadataCatalog
from repro.dataset.index import InvertedIndex
from repro.dataset.schema import ColumnRef
from repro.discovery.related_columns import RelatedColumnFinder


@pytest.fixture()
def finder(company_db):
    return RelatedColumnFinder(
        company_db, InvertedIndex.build(company_db), MetadataCatalog.build(company_db)
    )


class TestValueConstraints:
    def test_exact_keyword_resolved_through_index(self, finder):
        spec = MappingSpec(1).add_sample_cells([ExactValue("Engineering")])
        related = finder.find(spec)
        columns = related.columns_for(0)
        assert ColumnRef("Department", "Name") in columns
        assert ColumnRef("Employee", "Department") in columns
        assert ColumnRef("Project", "Title") not in columns

    def test_disjunction_unions_columns(self, finder):
        spec = MappingSpec(1).add_sample_cells([OneOf(["Engineering", "P3"])])
        columns = finder.find(spec).columns_for(0)
        assert ColumnRef("Project", "Code") in columns
        assert ColumnRef("Department", "Name") in columns

    def test_keyword_inside_longer_text_matches(self, finder):
        spec = MappingSpec(1).add_sample_cells([ExactValue("Alice")])
        columns = finder.find(spec).columns_for(0)
        assert ColumnRef("Employee", "Name") in columns

    def test_range_constraint_uses_catalog_screen_and_scan(self, finder):
        spec = MappingSpec(1).add_sample_cells([Range(400, 520)])
        columns = finder.find(spec).columns_for(0)
        # Assignment.Hours has values 300..500; 420 and 460 and 500 fall in range.
        assert ColumnRef("Assignment", "Hours") in columns
        # Salaries are all >= 67000, so they cannot match.
        assert ColumnRef("Employee", "Salary") not in columns

    def test_inequality_predicate(self, finder):
        spec = MappingSpec(1).add_sample_cells([Predicate(">=", 1_000_000)])
        columns = finder.find(spec).columns_for(0)
        assert ColumnRef("Department", "Budget") in columns
        assert ColumnRef("Employee", "Age") not in columns

    def test_multiple_samples_intersect_columns(self, finder):
        spec = MappingSpec(1)
        spec.add_sample_cells([ExactValue("Engineering")])
        spec.add_sample_cells([ExactValue("Sales")])
        columns = finder.find(spec).columns_for(0)
        # Both values appear in Department.Name and Employee.Department.
        assert ColumnRef("Department", "Name") in columns
        spec_disjoint = MappingSpec(1)
        spec_disjoint.add_sample_cells([ExactValue("Engineering")])
        spec_disjoint.add_sample_cells([ExactValue("Query Optimizer")])
        assert finder.find(spec_disjoint).columns_for(0) == set()

    def test_unknown_value_yields_empty_set(self, finder):
        spec = MappingSpec(1).add_sample_cells([ExactValue("Nowhere Land")])
        related = finder.find(spec)
        assert related.columns_for(0) == set()
        assert not related.is_satisfiable()


class TestMetadataConstraints:
    def test_metadata_only_position_filters_catalog(self, finder):
        spec = MappingSpec(1)
        spec.set_metadata(
            0, MetadataPredicate(MetadataField.DATA_TYPE, "==", "decimal")
        )
        columns = finder.find(spec).columns_for(0)
        assert ColumnRef("Employee", "Salary") in columns
        assert ColumnRef("Employee", "Age") in columns  # int satisfies decimal
        assert ColumnRef("Employee", "Name") not in columns

    def test_metadata_narrows_value_matches(self, finder):
        spec = MappingSpec(1)
        spec.add_sample_cells([ExactValue("Engineering")])
        spec.set_metadata(
            0, MetadataPredicate(MetadataField.COLUMN_NAME, "==", "Name")
        )
        columns = finder.find(spec).columns_for(0)
        assert columns == {ColumnRef("Department", "Name")}

    def test_column_name_metadata(self, finder):
        spec = MappingSpec(1)
        spec.set_metadata(
            0, MetadataPredicate(MetadataField.COLUMN_NAME, "==", "Budget")
        )
        columns = finder.find(spec).columns_for(0)
        assert columns == {
            ColumnRef("Department", "Budget"),
            ColumnRef("Project", "Budget"),
        }


class TestStructure:
    def test_unconstrained_positions_are_omitted(self, finder):
        spec = MappingSpec(3)
        spec.add_sample_cells([ExactValue("Engineering"), None, None])
        related = finder.find(spec)
        assert related.constrained_positions() == [0]
        assert related.columns_for(1) == set()

    def test_all_tables_and_total_columns(self, finder):
        spec = MappingSpec(2)
        spec.add_sample_cells([ExactValue("Engineering"), ExactValue("P1")])
        related = finder.find(spec)
        assert "Department" in related.all_tables()
        assert "Assignment" in related.all_tables()
        assert related.total_columns == len(related.columns_for(0)) + len(
            related.columns_for(1)
        )


def _scan_loop(values, constraint, scan_limit) -> bool:
    """The row-at-a-time confirmation scan the column mask replaced."""
    for scanned, value in enumerate(values):
        if scanned >= scan_limit:
            return True
        if value is None:
            continue
        if constraint.matches(value):
            return True
    return False


class TestScanConfirmation:
    """The mask-based confirmation answers exactly as the old loop did:
    ``mask[:scan_limit].any() or num_rows > scan_limit``."""

    CONSTRAINTS = [
        Range(400, 520), Range(None, 10), Range(1_000, None),
        Predicate(">", 499.5), Predicate("<", 0), Predicate("!=", 300),
        Predicate(">=", "m"), Range("a", "c"), ExactValue("Nevada"),
        OneOf([7, "x"]),
    ]

    def _database(self):
        from repro.dataset import Column, Database, DataType

        database = Database("scan")
        table = database.create_table(
            "T",
            [Column("n", DataType.INT), Column("s", DataType.TEXT),
             Column("x", DataType.DECIMAL)],
        )
        table.insert_many([
            (None, None, 1.5),
            (300, "apple", None),
            (None, "Nevada", 2.5),
            (420, None, 510.0),
            (7, "melon", float("nan")),
            (500, "banana", -1.0),
        ])
        return database

    @pytest.mark.parametrize("scan_limit", [0, 1, 2, 3, 5, 6, 100])
    def test_answers_equal_the_row_loop(self, scan_limit):
        database = self._database()
        finder = RelatedColumnFinder(
            database,
            InvertedIndex.build(database),
            MetadataCatalog.build(database),
            scan_limit=scan_limit,
        )
        answers = {True: 0, False: 0}
        for column in ("n", "s", "x"):
            ref = ColumnRef("T", column)
            values = database.column_values(ref)
            assert None in values
            for constraint in self.CONSTRAINTS:
                expected = _scan_loop(values, constraint, scan_limit)
                assert finder._scan_confirms(ref, constraint) == expected, (
                    column, constraint, scan_limit
                )
                answers[expected] += 1
        if scan_limit >= 6:
            # Within the limit the scan decides: both answers occur.
            assert answers[True] and answers[False]
        else:
            # Past the limit every column gets the benefit of the doubt.
            assert answers == {True: 30, False: 0}
