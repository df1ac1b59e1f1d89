"""Unit tests for explain plan trees, join-structure keys and SQL text."""

from __future__ import annotations

import pytest

from repro.dataset.schema import ColumnRef, ForeignKey
from repro.query.pj_query import ProjectJoinQuery
from repro.query.plan import (
    Filter,
    PredicateSpec,
    Project,
    Scan,
    edge_key,
    join_prefix_key,
)
from repro.query.planner import Planner
from repro.query.sql import to_sql

EMP_DEPT = ForeignKey("Employee", "Department", "Department", "Name")
ASSIGN_EMP = ForeignKey("Assignment", "EmployeeId", "Employee", "Id")
ASSIGN_PROJ = ForeignKey("Assignment", "ProjectCode", "Project", "Code")

TWO_TABLE = ProjectJoinQuery(
    (ColumnRef("Department", "City"), ColumnRef("Employee", "Name")),
    (EMP_DEPT,),
)


@pytest.fixture()
def planner(company_db):
    return Planner(company_db)


class TestPlanConstruction:
    def test_single_table_plan_is_project_over_scan(self, planner):
        query = ProjectJoinQuery((ColumnRef("Employee", "Name"),))
        plan = planner.plan_query(query)
        assert isinstance(plan, Project)
        assert isinstance(plan.child, Scan)
        assert plan.tables == frozenset({"Employee"})

    def test_join_plan_contains_every_edge_and_table(self, planner):
        query = ProjectJoinQuery(
            (ColumnRef("Department", "Name"), ColumnRef("Project", "Title")),
            (EMP_DEPT, ASSIGN_EMP, ASSIGN_PROJ),
        )
        plan = planner.plan_query(query)
        assert set(plan.edges()) == {EMP_DEPT, ASSIGN_EMP, ASSIGN_PROJ}
        assert plan.tables == frozenset(
            {"Department", "Employee", "Assignment", "Project"}
        )

    def test_predicates_are_pushed_onto_their_scan(self, planner):
        spec = PredicateSpec("Employee", "Name", tag="= Alice")
        plan = planner.plan_query(TWO_TABLE, (spec,))
        filters = [node for node in plan.walk() if isinstance(node, Filter)]
        assert len(filters) == 1
        assert isinstance(filters[0].child, Scan)
        assert filters[0].child.table == "Employee"
        assert filters[0].specs == (spec,)


class TestCanonicalHashing:
    def test_edge_key_is_symmetric(self):
        flipped = ForeignKey("Department", "Name", "Employee", "Department")
        assert edge_key(EMP_DEPT) == edge_key(flipped)

    def test_join_prefix_key_ignores_projections_and_edge_order(self):
        other = ProjectJoinQuery(
            (ColumnRef("Employee", "Salary"),),
            (EMP_DEPT,),
        )
        assert join_prefix_key(TWO_TABLE) == join_prefix_key(other)
        single = ProjectJoinQuery((ColumnRef("Employee", "Salary"),))
        assert join_prefix_key(TWO_TABLE) != join_prefix_key(single)
        forward = ProjectJoinQuery(
            (ColumnRef("Department", "Name"), ColumnRef("Project", "Title")),
            (EMP_DEPT, ASSIGN_EMP, ASSIGN_PROJ),
        )
        backward = ProjectJoinQuery(
            (ColumnRef("Project", "Title"),),
            (ASSIGN_PROJ, ASSIGN_EMP, EMP_DEPT),
        )
        assert join_prefix_key(forward) == join_prefix_key(backward)


class TestPlanSql:
    def test_single_table_sql_is_stable(self):
        query = ProjectJoinQuery(
            (ColumnRef("Employee", "Name"), ColumnRef("Employee", "Salary"))
        )
        assert to_sql(query) == (
            "SELECT Employee.Name, Employee.Salary FROM Employee"
        )

    def test_join_sql_lists_tables_sorted_and_edges_in_join_order(self):
        sql = to_sql(
            ProjectJoinQuery(
                (ColumnRef("Department", "Name"), ColumnRef("Project", "Title")),
                (EMP_DEPT, ASSIGN_EMP, ASSIGN_PROJ),
            )
        )
        assert "FROM Assignment, Department, Employee, Project" in sql
        assert sql.count(" = ") == 3


class TestWalkHelpers:
    def test_walk_visits_every_node_once(self, planner):
        plan = planner.plan_query(
            ProjectJoinQuery(
                (ColumnRef("Department", "Name"), ColumnRef("Project", "Title")),
                (EMP_DEPT, ASSIGN_EMP, ASSIGN_PROJ),
            ),
            (PredicateSpec("Project", "Title", tag="t"),),
        )
        nodes = list(plan.walk())
        assert len(nodes) == len(set(id(node) for node in nodes))
        kinds = {type(node).__name__ for node in nodes}
        assert kinds == {"Project", "Join", "Filter", "Scan"}
