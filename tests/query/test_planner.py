"""Unit tests for the cost-based planner (ordering, estimates, prefixes)."""

from __future__ import annotations

import math
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.constraints.values import Range
from repro.dataset import Column, Database, DataType
from repro.dataset.catalog import MetadataCatalog
from repro.dataset.schema import ColumnRef, ForeignKey
from repro.datasets import generate_synthetic_database
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

    def test_join_estimate_uses_containment_assumption(self, planner):
        # The classic containment model over the catalog's exact counts:
        # 6 * 4 / max(d(Employee.Department)=4, d(Department.Name)=4).
        join = Join(Scan("Employee"), Scan("Department"), EMP_DEPT)
        assert planner.estimated_rows(join) == 6.0

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

    def test_range_selectivity_falls_back_without_statistics(
        self, planner, monkeypatch
    ):
        spec = PredicateSpec("Employee", "Salary", tag=Range(90_000, 130_000))
        catalog = planner._catalog
        # Salary spans [67,000, 120,000] and the range covers its top
        # 30,000; the column has no NULLs to discount.
        assert planner.filter_selectivity(spec) == pytest.approx(30 / 53)
        monkeypatch.setattr(catalog, "stats",
                            _raising(SchemaError("no statistics")))
        assert planner.filter_selectivity(spec) == DEFAULT_FILTER_SELECTIVITY
        monkeypatch.setattr(catalog, "stats",
                            _raising(TypeError("broken catalog")))
        with pytest.raises(TypeError):
            planner.filter_selectivity(spec)


def _readings_planner() -> Planner:
    """A planner over one table whose ``Value`` spans [0, 10] with two
    NULLs in ten rows, and whose ``Flat`` holds 5 in every row."""
    database = Database("readings")
    table = database.create_table(
        "Reading",
        [
            Column("Value", DataType.DECIMAL),
            Column("Flat", DataType.INT),
            Column("Word", DataType.TEXT),
        ],
    )
    values = [0.0, 1.0, 2.0, 4.0, 6.0, 8.0, 9.0, 10.0, None, None]
    table.insert_many(
        [(value, 5, f"w{i % 4}") for i, value in enumerate(values)]
    )
    return Planner(database, MetadataCatalog.build(database))


class TestRangeSelectivity:
    """A ``Range`` keeps the share of the column's exact ``[min, max]``
    it covers, under a uniform assumption, discounted by the NULLs."""

    @pytest.mark.parametrize("tag,share", [
        (Range(2.5, 7.5), 0.5),
        (Range(high=4), 0.4),
        (Range(low=4), 0.6),
        (Range(-100, 100), 1.0),
        (Range(10, 10), 0.0),
        (Range(20, 30), 0.0),
        (Range(high=-1), 0.0),
        (Range(math.nan, 5), 0.0),
    ])
    def test_share_of_the_min_max_span(self, tag, share):
        planner = _readings_planner()
        spec = PredicateSpec("Reading", "Value", tag=tag)
        assert planner.filter_selectivity(spec) == pytest.approx(share * 0.8)

    @pytest.mark.parametrize("tag,kept", [
        (Range(5, 5), 1.0),
        (Range(high=5), 1.0),
        (Range(5, 9, low_inclusive=False), 0.0),
        (Range(6, 9), 0.0),
    ])
    def test_a_single_valued_column_keeps_all_rows_or_none(self, tag, kept):
        planner = _readings_planner()
        spec = PredicateSpec("Reading", "Flat", tag=tag)
        assert planner.filter_selectivity(spec) == kept

    def test_other_ranges_keep_one_distinct_value(self):
        planner = _readings_planner()
        # Text columns and text bounds have no numeric span to share.
        for column, tag in (
            ("Word", Range("w0", "w2")),
            ("Value", Range("a", "z")),
        ):
            spec = PredicateSpec("Reading", column, tag=tag)
            distinct = planner._catalog.stats(
                ColumnRef("Reading", column)
            ).distinct_count
            assert planner.filter_selectivity(spec) == 1 / distinct


@st.composite
def _dangling_chain(draw):
    return generate_synthetic_database(
        num_tables=4,
        rows_per_table=draw(st.integers(min_value=100, max_value=2_000)),
        topology="chain",
        seed=draw(st.integers(min_value=0, max_value=1_000)),
        skew=draw(st.sampled_from([0.0, 0.5, 1.1, 1.5])),
        dangling_fk_fraction=draw(st.floats(min_value=0.0, max_value=0.99)),
    )


class TestNonEmptyJoins:
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(_dangling_chain())
    def test_a_non_empty_join_is_never_priced_as_empty(self, database):
        """Every foreign-key join that matches a row is estimated at one
        row or more, however many of its keys dangle."""
        planner = Planner(database, MetadataCatalog.build(database))
        for edge in database.foreign_keys:
            parent = Counter(
                value
                for value in database.table(edge.parent_table).column_values(
                    edge.parent_column
                )
                if value is not None
            )
            joined = sum(
                parent[value]
                for value in database.table(edge.child_table).column_values(
                    edge.child_column
                )
                if value is not None
            )
            if joined:
                join = Join(
                    Scan(edge.child_table), Scan(edge.parent_table), edge
                )
                assert planner.estimated_rows(join) >= 1, (edge, joined)
