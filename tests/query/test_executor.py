"""Unit tests for the executor."""

from __future__ import annotations

from collections import Counter

import pytest

from repro.constraints.values import AnyValue, ExactValue, Predicate
from repro.dataset import Column, Database, DataType, Table
from repro.dataset.schema import ColumnRef, ForeignKey
from repro.errors import QueryError
from repro.query.executor import BatchProbe, Executor
from repro.query.pj_query import ProjectJoinQuery


EMP_DEPT = ForeignKey("Employee", "Department", "Department", "Name")
ASSIGN_EMP = ForeignKey("Assignment", "EmployeeId", "Employee", "Id")
ASSIGN_PROJ = ForeignKey("Assignment", "ProjectCode", "Project", "Code")

JOIN_QUERY = ProjectJoinQuery(
    (ColumnRef("Department", "City"), ColumnRef("Employee", "Name")),
    (EMP_DEPT,),
)
OTHER_PROJECTIONS = ProjectJoinQuery(
    (ColumnRef("Department", "Budget"), ColumnRef("Employee", "Salary")),
    (EMP_DEPT,),
)


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
        assert len(executor.execute(query)) == 7


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
            cell_predicates={
                0: ExactValue("Marketing"), 1: ExactValue("Field Outreach")
            },
        )
        assert rows == []


class TestPredicates:
    def test_predicate_pushdown_filters_results(self, executor):
        query = ProjectJoinQuery(
            (ColumnRef("Department", "City"), ColumnRef("Employee", "Name")),
            (EMP_DEPT,),
        )
        rows = executor.execute(query, cell_predicates={0: ExactValue("Ann Arbor")})
        assert len(rows) == 4
        assert all(city == "Ann Arbor" for city, __ in rows)

    def test_exists_short_circuits(self, executor):
        query = ProjectJoinQuery(
            (ColumnRef("Department", "Name"), ColumnRef("Project", "Title")),
            (EMP_DEPT, ASSIGN_EMP, ASSIGN_PROJ),
        )
        assert executor.exists(
            query, cell_predicates={1: ExactValue("Schema Mapping")}
        )
        assert not executor.exists(
            query, cell_predicates={1: ExactValue("No Such Project")}
        )

    def test_predicates_on_same_table_combine_with_and(self, executor):
        query = ProjectJoinQuery(
            (ColumnRef("Employee", "Name"), ColumnRef("Employee", "Age"))
        )
        rows = executor.execute(
            query,
            cell_predicates={0: ExactValue("Alice"), 1: Predicate(">", 40)},
        )
        assert rows == []

    def test_out_of_range_predicate_position_raises(self, executor):
        query = ProjectJoinQuery((ColumnRef("Employee", "Name"),))
        with pytest.raises(QueryError):
            executor.execute(query, cell_predicates={3: AnyValue()})

    def test_callable_cell_predicate_is_rejected(self, executor):
        query = ProjectJoinQuery((ColumnRef("Employee", "Name"),))
        for call in (executor.execute, executor.exists):
            with pytest.raises(QueryError, match="ValueConstraint"):
                call(query, {0: lambda v: True})

    def test_predicates_never_match_null_cells(self):
        database = Database("nullpred")
        table = database.create_table(
            "T", [Column("a", DataType.TEXT), Column("b", DataType.INT)]
        )
        table.insert_many([("x", None), ("y", 5)])
        query = ProjectJoinQuery((ColumnRef("T", "a"), ColumnRef("T", "b")))
        rows = Executor(database).execute(
            query, cell_predicates={1: AnyValue()}
        )
        assert rows == [("y", 5)]


class TestStats:
    def test_stats_accumulate(self, executor):
        query = ProjectJoinQuery((ColumnRef("Employee", "Name"),))
        first = executor.execute(query)
        executor.execute(query)
        # Each call visits every row of the query's one table.
        assert len(first) == 6
        assert executor.stats.rows_scanned == 12

    def test_validate_is_enforced(self, executor):
        query = ProjectJoinQuery((ColumnRef("Ghost", "x"),))
        with pytest.raises(Exception):
            executor.execute(query)


class TestProbeSharing:
    """What the probes of one executor share: plans per join structure,
    and pushdown scans inside one round."""

    def test_pushdown_that_selects_no_row_never_plans(self, executor):
        assert not executor.exists(JOIN_QUERY, {0: ExactValue("Nowhere")})
        assert executor.stats.joins_performed == 0
        # Pushdown decided it: the structure was not even planned.
        assert executor.stats.plan_cache_builds == 0

    def test_one_plan_serves_differing_projections(self, executor):
        assert executor.exists(JOIN_QUERY, {1: ExactValue("Alice Chen")})
        assert executor.exists(OTHER_PROJECTIONS, {0: Predicate(">", 1_000_000)})
        assert executor.stats.plan_cache_builds == 1
        assert executor.stats.plan_cache_hits == 1
        assert len(executor.cache.plans) == 1
        # Each probe sweeps the structure's one join step.
        assert executor.stats.joins_performed == 2

    def test_equal_constraints_share_one_scan_inside_a_round(
        self, executor, monkeypatch
    ):
        scans = Counter()
        select_rows = Table.select_rows

        def counting_select_rows(table, name, constraint):
            scans[table.name, name] += 1
            return select_rows(table, name, constraint)

        monkeypatch.setattr(Table, "select_rows", counting_select_rows)
        probes = [
            {0: ExactValue("Ann Arbor")},
            {0: ExactValue("Ann Arbor"), 1: AnyValue()},
        ]
        with executor.round():
            assert all(executor.exists(JOIN_QUERY, p) for p in probes)
        # Equal constraints share one scan of their column ...
        assert scans == {("Department", "City"): 1, ("Employee", "Name"): 1}
        # ... and outside a round every probe scans for itself.
        scans.clear()
        assert all(executor.exists(JOIN_QUERY, p) for p in probes)
        assert scans == {("Department", "City"): 2, ("Employee", "Name"): 1}

    def test_exists_batch_is_one_exists_per_probe(self, executor, company_db):
        single = ProjectJoinQuery((ColumnRef("Employee", "Name"),))
        probes = [
            BatchProbe(JOIN_QUERY, {1: ExactValue("Alice Chen")}),
            BatchProbe(JOIN_QUERY, {1: ExactValue("Nobody")}),
            BatchProbe(single, {0: ExactValue("Bob Diaz")}),
            BatchProbe(OTHER_PROJECTIONS),
        ]
        reference = Executor(company_db)
        expected = [reference.exists(p.query, p.cell_predicates) for p in probes]
        assert executor.exists_batch(probes) == expected == [
            True, False, True, True
        ]
        assert executor.stats == reference.stats
        assert executor.exists_batch([]) == []
