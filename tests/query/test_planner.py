"""Unit tests for the cost-based planner (ordering, estimates, prefixes)."""

from __future__ import annotations

import pytest

from repro.constraints.values import Range
from repro.dataset.catalog import MetadataCatalog
from repro.dataset.schema import ColumnRef, ForeignKey
from repro.errors import QueryError, SchemaError
from repro.query.pj_query import ProjectJoinQuery
from repro.query.plan import (
    Filter,
    Join,
    PredicateSpec,
    Project,
    Scan,
)
from repro.query.planner import DEFAULT_FILTER_SELECTIVITY, Planner

EMP_DEPT = ForeignKey("Employee", "Department", "Department", "Name")
ASSIGN_EMP = ForeignKey("Assignment", "EmployeeId", "Employee", "Id")
ASSIGN_PROJ = ForeignKey("Assignment", "ProjectCode", "Project", "Code")

TWO_TABLE = ProjectJoinQuery(
    (ColumnRef("Department", "City"), ColumnRef("Employee", "Name")),
    (EMP_DEPT,),
)
FOUR_TABLE = ProjectJoinQuery(
    (ColumnRef("Department", "Name"), ColumnRef("Project", "Title")),
    (EMP_DEPT, ASSIGN_EMP, ASSIGN_PROJ),
)


@pytest.fixture()
def planner(company_db):
    return Planner(company_db, MetadataCatalog.build(company_db))


@pytest.fixture()
def statless_planner(company_db):
    return Planner(company_db)


class TestCardinalities:
    def test_scan_estimate_matches_row_count(self, planner, company_db):
        assert planner.estimated_rows(Scan("Employee")) == 6
        assert planner.estimated_rows(Scan("Department")) == 4

    def test_filter_discounts_by_distinct_count(self, planner):
        # Employee.Name has 6 distinct values over 6 rows.
        filtered = Filter(
            Scan("Employee"), (PredicateSpec("Employee", "Name", tag="x"),)
        )
        assert planner.estimated_rows(filtered) == pytest.approx(1.0)

    def test_filter_without_stats_uses_default_selectivity(self, statless_planner):
        filtered = Filter(
            Scan("Employee"), (PredicateSpec("Employee", "Name", tag="x"),)
        )
        assert statless_planner.estimated_rows(filtered) == pytest.approx(
            6 * DEFAULT_FILTER_SELECTIVITY
        )

    def test_join_estimate_uses_containment_assumption(self, company_db):
        # With sketches disabled the estimate is the classic containment
        # model: 6 * 4 / max(d(Employee.Department)=4, d(Department.Name)=4).
        raw_planner = Planner(
            company_db, MetadataCatalog.build(company_db), use_sketches=False
        )
        join = Join(Scan("Employee"), Scan("Department"), EMP_DEPT)
        assert raw_planner.estimated_rows(join) == pytest.approx(6.0)

    def test_sketch_join_estimate_close_to_containment(self, planner):
        # The default (sketch-informed) planner replaces the containment
        # denominator with HLL distinct estimates; on tiny exact-ish
        # columns it must land within HLL error of the raw model.
        join = Join(Scan("Employee"), Scan("Department"), EMP_DEPT)
        assert planner.estimated_rows(join) == pytest.approx(6.0, rel=0.05)

    def test_project_is_transparent(self, planner):
        plan = planner.plan_query(TWO_TABLE)
        assert planner.estimated_rows(plan) == planner.estimated_rows(plan.child)

    def test_structure_rows_is_the_planned_tree_estimate(self, planner):
        for query in (TWO_TABLE, FOUR_TABLE):
            assert planner.structure_rows(query) == planner.estimated_rows(
                planner.plan_query(query)
            )


class TestJoinOrdering:
    def test_starts_from_the_smallest_input(self, planner):
        order = planner.join_order(TWO_TABLE)
        assert order.start_table == "Department"
        assert order.edges == (EMP_DEPT,)

    def test_predicates_do_not_choose_the_start(self, planner):
        plan = planner.plan_query(
            TWO_TABLE, (PredicateSpec("Employee", "Name", tag="x"),)
        )
        # The filtered Employee side (~1 row) would be cheaper than the
        # 4-row Department scan, but explain draws the order the
        # executor runs, which never depends on predicates.
        body = plan.child
        assert isinstance(body, Join)
        assert body.left == Scan("Department")
        assert isinstance(body.right, Filter)
        assert body.right.child == Scan("Employee")

    def test_four_table_order_is_connected(self, planner):
        order = planner.join_order(FOUR_TABLE)
        joined = {order.start_table}
        for edge in order.edges:
            left, right = edge.tables()
            assert left in joined or right in joined
            joined.update((left, right))
        assert joined == {"Department", "Employee", "Assignment", "Project"}

    def test_order_is_deterministic(self, planner):
        first = planner.join_order(FOUR_TABLE)
        second = planner.join_order(FOUR_TABLE)
        assert first.start_table == second.start_table
        assert first.edges == second.edges

    def test_optimized_plan_is_left_deep_with_same_structure(self, planner):
        plan = planner.plan_query(FOUR_TABLE)
        assert isinstance(plan, Project)
        assert set(plan.edges()) == set(FOUR_TABLE.joins)
        node = plan.child
        while isinstance(node, Join):
            assert isinstance(node.right, (Scan, Filter))
            node = node.left
        assert isinstance(node, (Scan, Filter))

    def test_no_join_query_orders_trivially(self, planner):
        query = ProjectJoinQuery((ColumnRef("Employee", "Name"),))
        order = planner.join_order(query)
        assert order.start_table == "Employee"
        assert order.edges == ()

    def test_disconnected_edges_are_rejected(self, planner):
        disconnected = ProjectJoinQuery(
            TWO_TABLE.projections, (EMP_DEPT, ASSIGN_PROJ)
        )
        with pytest.raises(QueryError, match="connected tree"):
            planner.join_order(disconnected)


def _raising(error):
    def fail(*args, **kwargs):
        raise error

    return fail


class TestCatalogErrors:
    """The planner falls back where the catalog lacks statistics (it
    raises ``SchemaError``); any other catalog error propagates."""

    def test_table_rows_falls_back_to_the_live_count(self, planner, monkeypatch):
        catalog = planner._catalog
        monkeypatch.setattr(catalog, "table_row_count",
                            _raising(SchemaError("no statistics")))
        assert planner.table_rows("Employee") == 6
        monkeypatch.setattr(catalog, "table_row_count",
                            _raising(TypeError("broken catalog")))
        with pytest.raises(TypeError):
            planner.table_rows("Employee")

    def test_distinct_count_falls_back_to_the_default(self, planner, monkeypatch):
        spec = PredicateSpec("Employee", "Name", tag="x")
        catalog = planner._catalog
        monkeypatch.setattr(catalog, "stats",
                            _raising(SchemaError("no statistics")))
        assert planner.filter_selectivity(spec) == DEFAULT_FILTER_SELECTIVITY
        monkeypatch.setattr(catalog, "stats",
                            _raising(TypeError("broken catalog")))
        with pytest.raises(TypeError):
            planner.filter_selectivity(spec)

    def test_histogram_selectivity_skips_the_null_discount(
        self, planner, monkeypatch
    ):
        spec = PredicateSpec("Employee", "Salary", tag=Range(90_000, 130_000))
        catalog = planner._catalog
        histogram = catalog.sketches(ColumnRef("Employee", "Salary")).histogram
        # Salary has no NULLs, so the discount is 1 either way.
        expected = planner.filter_selectivity(spec)
        assert expected == pytest.approx(
            min(1.0, histogram.selectivity(90_000, 130_000))
        )
        monkeypatch.setattr(catalog, "stats",
                            _raising(SchemaError("no statistics")))
        assert planner.filter_selectivity(spec) == expected
        monkeypatch.setattr(catalog, "stats",
                            _raising(TypeError("broken catalog")))
        with pytest.raises(TypeError):
            planner.filter_selectivity(spec)
