"""Unit tests for the Project-Join query model."""

from __future__ import annotations

import pytest

from repro.dataset.schema import ColumnRef, ForeignKey
from repro.errors import QueryError
from repro.query.pj_query import ProjectJoinQuery
from repro.query.plan import join_prefix_key


EMP_DEPT = ForeignKey("Employee", "Department", "Department", "Name")
ASSIGN_EMP = ForeignKey("Assignment", "EmployeeId", "Employee", "Id")
ASSIGN_PROJ = ForeignKey("Assignment", "ProjectCode", "Project", "Code")


def single_table_query() -> ProjectJoinQuery:
    return ProjectJoinQuery((ColumnRef("Employee", "Name"),))


def two_table_query() -> ProjectJoinQuery:
    return ProjectJoinQuery(
        (ColumnRef("Department", "City"), ColumnRef("Employee", "Name")),
        (EMP_DEPT,),
    )


def four_table_query() -> ProjectJoinQuery:
    return ProjectJoinQuery(
        (ColumnRef("Department", "Name"), ColumnRef("Project", "Title")),
        (EMP_DEPT, ASSIGN_EMP, ASSIGN_PROJ),
    )


class TestStructure:
    def test_requires_projections(self):
        with pytest.raises(QueryError):
            ProjectJoinQuery(())

    def test_tables_union_of_projections_and_joins(self):
        query = four_table_query()
        assert query.tables == frozenset(
            {"Department", "Employee", "Assignment", "Project"}
        )

    def test_width_and_join_size(self):
        assert single_table_query().width == 1
        assert single_table_query().join_size == 0
        assert four_table_query().join_size == 3

    def test_projection_positions(self):
        query = two_table_query()
        assert query.projection_positions("Employee") == [1]
        assert query.projection_positions("Department") == [0]
        assert query.projection_positions("Project") == []


class TestTreeValidation:
    def test_single_table_is_tree(self):
        assert single_table_query().is_tree()

    def test_two_projections_without_join_is_not_tree(self):
        query = ProjectJoinQuery(
            (ColumnRef("Employee", "Name"), ColumnRef("Department", "City"))
        )
        assert not query.is_tree()

    def test_chain_is_tree(self):
        assert four_table_query().is_tree()

    def test_cycle_is_not_tree(self):
        duplicate = ForeignKey("Employee", "Department", "Department", "Capital")
        query = ProjectJoinQuery(
            (ColumnRef("Employee", "Name"),), (EMP_DEPT, duplicate)
        )
        assert not query.is_tree()

    def test_validate_against_database(self, company_db):
        two_table_query().validate(company_db)
        four_table_query().validate(company_db)

    def test_validate_rejects_unknown_column(self, company_db):
        query = ProjectJoinQuery((ColumnRef("Employee", "Ghost"),))
        with pytest.raises(QueryError):
            query.validate(company_db)

    def test_validate_rejects_unknown_join_column(self, company_db):
        bad_edge = ForeignKey("Employee", "Ghost", "Department", "Name")
        query = ProjectJoinQuery((ColumnRef("Employee", "Name"),), (bad_edge,))
        with pytest.raises(QueryError):
            query.validate(company_db)

    def test_validate_rejects_projection_outside_join_tree(self, company_db):
        query = ProjectJoinQuery(
            (ColumnRef("Project", "Title"), ColumnRef("Employee", "Name")),
            (EMP_DEPT,),
        )
        with pytest.raises(QueryError):
            query.validate(company_db)


class TestDerivation:
    def test_subquery_restricts_tables_and_projections(self):
        query = four_table_query()
        sub = query.subquery({"Department", "Employee"})
        assert sub.projections == (ColumnRef("Department", "Name"),)
        assert sub.joins == (EMP_DEPT,)

    def test_subquery_with_explicit_positions(self):
        query = two_table_query()
        sub = query.subquery({"Employee", "Department"}, positions=[1])
        assert sub.projections == (ColumnRef("Employee", "Name"),)

    def test_subquery_without_projection_raises(self):
        query = two_table_query()
        with pytest.raises(QueryError):
            query.subquery({"Assignment"})

    def test_signature_ignores_join_order(self):
        first = ProjectJoinQuery(
            (ColumnRef("Department", "Name"),), (EMP_DEPT, ASSIGN_EMP)
        )
        second = ProjectJoinQuery(
            (ColumnRef("Department", "Name"),), (ASSIGN_EMP, EMP_DEPT)
        )
        assert first.signature() == second.signature()

    def test_signature_distinguishes_projection_order(self):
        first = ProjectJoinQuery(
            (ColumnRef("Department", "City"), ColumnRef("Employee", "Name")),
            (EMP_DEPT,),
        )
        second = ProjectJoinQuery(
            (ColumnRef("Employee", "Name"), ColumnRef("Department", "City")),
            (EMP_DEPT,),
        )
        assert first.signature() != second.signature()

    def test_signature_is_computed_once(self):
        query = two_table_query()
        assert query.signature() is query.signature()

    def test_over_tree_keeps_the_structure_it_is_given(self):
        query = two_table_query()
        tables = frozenset(query.tables)
        key = join_prefix_key(query)
        built = ProjectJoinQuery.over_tree(
            query.projections, query.joins, tables, key
        )
        assert built == query
        assert built.tables is tables
        assert join_prefix_key(built) is key

    def test_str_is_sql(self):
        assert str(single_table_query()).startswith("SELECT Employee.Name")
