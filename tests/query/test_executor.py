"""Unit tests for the executor."""

from __future__ import annotations

import pytest

from repro.dataset import Column, Database, DataType
from repro.dataset.schema import ColumnRef, ForeignKey
from repro.errors import QueryError
from repro.query.executor import Executor
from repro.query.pj_query import ProjectJoinQuery


EMP_DEPT = ForeignKey("Employee", "Department", "Department", "Name")
ASSIGN_EMP = ForeignKey("Assignment", "EmployeeId", "Employee", "Id")
ASSIGN_PROJ = ForeignKey("Assignment", "ProjectCode", "Project", "Code")


@pytest.fixture()
def executor(company_db):
    return Executor(company_db)


class TestSingleTable:
    def test_projection(self, executor):
        query = ProjectJoinQuery((ColumnRef("Department", "City"),))
        rows = executor.execute(query)
        assert sorted(rows) == [
            ("Ann Arbor",), ("Ann Arbor",), ("Chicago",), ("Detroit",),
        ]

    def test_multi_column_projection_preserves_order(self, executor):
        query = ProjectJoinQuery(
            (ColumnRef("Employee", "Salary"), ColumnRef("Employee", "Name"))
        )
        rows = executor.execute(query)
        assert (120_000.0, "Alice Chen") in rows

    def test_limit(self, executor):
        query = ProjectJoinQuery((ColumnRef("Employee", "Name"),))
        assert len(executor.execute(query, limit=2)) == 2

    def test_count(self, executor):
        query = ProjectJoinQuery((ColumnRef("Assignment", "Hours"),))
        assert executor.count(query) == 7


class TestJoins:
    def test_two_table_join(self, executor):
        query = ProjectJoinQuery(
            (ColumnRef("Department", "City"), ColumnRef("Employee", "Name")),
            (EMP_DEPT,),
        )
        rows = executor.execute(query)
        assert ("Ann Arbor", "Alice Chen") in rows
        assert ("Detroit", "Carol Evans") in rows
        assert len(rows) == 6  # every employee joins exactly one department

    def test_chain_join_across_four_tables(self, executor):
        query = ProjectJoinQuery(
            (ColumnRef("Department", "Name"), ColumnRef("Project", "Title")),
            (EMP_DEPT, ASSIGN_EMP, ASSIGN_PROJ),
        )
        rows = executor.execute(query)
        assert ("Engineering", "Query Optimizer") in rows
        assert ("Research", "Schema Mapping") in rows
        assert ("Marketing", "Query Optimizer") not in rows
        assert len(rows) == 7  # one row per assignment

    def test_join_order_is_irrelevant(self, executor):
        forward = ProjectJoinQuery(
            (ColumnRef("Department", "Name"), ColumnRef("Project", "Title")),
            (EMP_DEPT, ASSIGN_EMP, ASSIGN_PROJ),
        )
        backward = ProjectJoinQuery(
            (ColumnRef("Department", "Name"), ColumnRef("Project", "Title")),
            (ASSIGN_PROJ, ASSIGN_EMP, EMP_DEPT),
        )
        assert sorted(executor.execute(forward)) == sorted(executor.execute(backward))

    def test_null_join_keys_never_match(self):
        database = Database("nulljoin")
        left = database.create_table(
            "L", [Column("k", DataType.TEXT), Column("v", DataType.INT)]
        )
        right = database.create_table(
            "R", [Column("k", DataType.TEXT), Column("w", DataType.INT)]
        )
        left.insert_many([("a", 1), (None, 2)])
        right.insert_many([("a", 10), (None, 20)])
        database.link("L.k", "R.k")
        query = ProjectJoinQuery(
            (ColumnRef("L", "v"), ColumnRef("R", "w")),
            (ForeignKey("L", "k", "R", "k"),),
        )
        rows = Executor(database).execute(query)
        assert rows == [(1, 10)]

    def test_empty_join_result(self, executor):
        # Sales has an employee but that employee's only assignment joins a
        # project; restrict via predicate to force an empty result instead.
        query = ProjectJoinQuery(
            (ColumnRef("Department", "Name"), ColumnRef("Project", "Title")),
            (EMP_DEPT, ASSIGN_EMP, ASSIGN_PROJ),
        )
        rows = executor.execute(
            query,
            cell_predicates={0: lambda v: v == "Marketing", 1: lambda v: v == "Field Outreach"},
        )
        assert rows == []


class TestPredicates:
    def test_predicate_pushdown_filters_results(self, executor):
        query = ProjectJoinQuery(
            (ColumnRef("Department", "City"), ColumnRef("Employee", "Name")),
            (EMP_DEPT,),
        )
        rows = executor.execute(query, cell_predicates={0: lambda v: v == "Ann Arbor"})
        assert len(rows) == 4
        assert all(city == "Ann Arbor" for city, __ in rows)

    def test_exists_short_circuits(self, executor):
        query = ProjectJoinQuery(
            (ColumnRef("Department", "Name"), ColumnRef("Project", "Title")),
            (EMP_DEPT, ASSIGN_EMP, ASSIGN_PROJ),
        )
        assert executor.exists(
            query, cell_predicates={1: lambda v: v == "Schema Mapping"}
        )
        assert not executor.exists(
            query, cell_predicates={1: lambda v: v == "No Such Project"}
        )

    def test_predicates_on_same_table_combine_with_and(self, executor):
        query = ProjectJoinQuery(
            (ColumnRef("Employee", "Name"), ColumnRef("Employee", "Age"))
        )
        rows = executor.execute(
            query,
            cell_predicates={0: lambda v: "Alice" in v, 1: lambda v: v > 40},
        )
        assert rows == []

    def test_out_of_range_predicate_position_raises(self, executor):
        query = ProjectJoinQuery((ColumnRef("Employee", "Name"),))
        with pytest.raises(QueryError):
            executor.execute(query, cell_predicates={3: lambda v: True})

    def test_predicates_never_match_null_cells(self):
        database = Database("nullpred")
        table = database.create_table(
            "T", [Column("a", DataType.TEXT), Column("b", DataType.INT)]
        )
        table.insert_many([("x", None), ("y", 5)])
        query = ProjectJoinQuery((ColumnRef("T", "a"), ColumnRef("T", "b")))
        rows = Executor(database).execute(
            query, cell_predicates={1: lambda v: True}
        )
        assert rows == [("y", 5)]


class TestStats:
    def test_stats_accumulate(self, executor):
        query = ProjectJoinQuery((ColumnRef("Employee", "Name"),))
        executor.execute(query)
        executor.execute(query)
        assert executor.stats.queries_executed == 2
        assert executor.stats.rows_emitted == 12
        assert executor.stats.rows_scanned >= 12

    def test_stats_merge(self, executor):
        from repro.query.executor import ExecutionStats

        other = ExecutionStats(queries_executed=3, rows_scanned=10,
                               rows_emitted=5, joins_performed=2)
        executor.stats.merge(other)
        assert executor.stats.queries_executed == 3
        assert executor.stats.joins_performed == 2

    def test_validate_is_enforced(self, executor):
        query = ProjectJoinQuery((ColumnRef("Ghost", "x"),))
        with pytest.raises(Exception):
            executor.execute(query)
