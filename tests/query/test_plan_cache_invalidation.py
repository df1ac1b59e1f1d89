"""Plan/memo cache invalidation across schema changes, data changes and
``ArtifactStore.refresh()`` (ISSUE 5 satellite coverage).

The executor keys its physical-plan cache by canonical plan hash (join
structure) and its existence memo by caller-supplied canonical probe
signatures.  These tests prove both caches are dropped exactly when they
must be: the plan cache on schema-version changes, the memo on any
data-version change — including the append-and-refresh lifecycle of the
service layer's artifact store.
"""

from __future__ import annotations

import pytest

from repro.constraints.values import ExactValue
from repro.dataset import Column, Database, DataType
from repro.dataset.schema import ColumnRef, ForeignKey
from repro.query.executor import BatchProbe, Executor
from repro.query.pj_query import ProjectJoinQuery

EMP_DEPT = ForeignKey("Employee", "Department", "Department", "Name")

JOIN_QUERY = ProjectJoinQuery(
    (ColumnRef("Department", "City"), ColumnRef("Employee", "Name")),
    (EMP_DEPT,),
)


class TestPlanCacheKeyedByPlanHash:
    def test_same_structure_shares_one_physical_plan(self, company_db):
        executor = Executor(company_db)
        executor.execute(JOIN_QUERY)
        other = ProjectJoinQuery(
            (ColumnRef("Department", "Budget"), ColumnRef("Employee", "Salary")),
            (EMP_DEPT,),
        )
        executor.execute(other)
        # Different projections, same join structure: one plan build.
        assert executor.stats.plan_cache_builds == 1
        assert executor.stats.plan_cache_hits == 1
        assert executor.plan_cache_size == 1

    def test_edge_order_does_not_duplicate_plans(self, company_db):
        assign_emp = ForeignKey("Assignment", "EmployeeId", "Employee", "Id")
        assign_proj = ForeignKey("Assignment", "ProjectCode", "Project", "Code")
        forward = ProjectJoinQuery(
            (ColumnRef("Department", "Name"), ColumnRef("Project", "Title")),
            (EMP_DEPT, assign_emp, assign_proj),
        )
        backward = ProjectJoinQuery(
            (ColumnRef("Department", "Name"), ColumnRef("Project", "Title")),
            (assign_proj, assign_emp, EMP_DEPT),
        )
        executor = Executor(company_db)
        executor.execute(forward)
        executor.execute(backward)
        assert executor.stats.plan_cache_builds == 1
        assert executor.stats.plan_cache_hits == 1

    def test_schema_version_change_invalidates_plans(self, company_db):
        executor = Executor(company_db)
        executor.execute(JOIN_QUERY)
        assert executor.plan_cache_size == 1
        # Adding a table bumps the schema version; cached plans (which
        # bake in column positions) must be rebuilt.
        company_db.create_table("Extra", [Column("x", DataType.INT)])
        executor.execute(JOIN_QUERY)
        assert executor.stats.plan_cache_builds == 2

    def test_data_growth_keeps_plans(self, company_db):
        executor = Executor(company_db)
        executor.execute(JOIN_QUERY)
        company_db.table("Employee").insert(
            (7, "Grace Ito", "Sales", 88_000.0, 31)
        )
        executor.execute(JOIN_QUERY)
        # Appends change data, not structure: the plan survives.
        assert executor.stats.plan_cache_builds == 1
        assert executor.stats.plan_cache_hits == 1


class TestMemoInvalidationThroughBatches:
    def test_batched_outcomes_invalidate_on_data_change(self, company_db):
        executor = Executor(company_db)
        predicates = {1: ExactValue("Grace Ito")}
        key = ("probe", "grace")
        assert executor.exists_batch(
            [BatchProbe(JOIN_QUERY, predicates, key)]
        ) == [False]
        company_db.table("Employee").insert(
            (7, "Grace Ito", "Sales", 88_000.0, 31)
        )
        assert executor.exists_batch(
            [BatchProbe(JOIN_QUERY, predicates, key)]
        ) == [True]
        assert executor.stats.exists_cache_misses == 2
        assert executor.stats.exists_cache_hits == 0


class TestArtifactRefreshInvalidation:
    def _spec(self):
        from repro.constraints.spec import MappingSpec
        from repro.constraints.values import ExactValue

        # Both cells exist up front (so discovery reaches validation),
        # but Eve works in Research (Ann Arbor), not Chicago: the join
        # filter fails and no query is confirmed.
        spec = MappingSpec(2)
        spec.add_sample_cells([ExactValue("Chicago"), ExactValue("Eve Gupta")])
        return spec

    def test_refresh_lifecycle_drops_stale_outcomes(self, company_db):
        from repro.discovery.engine import Prism
        from repro.service.artifacts import ArtifactStore

        store = ArtifactStore()
        bundle = store.get(company_db)
        engine = Prism.from_artifacts(bundle, time_limit=30.0)
        before = engine.discover(self._spec())
        assert before.num_queries == 0
        assert engine.executor.exists_memo_size > 0

        # A second Eve Gupta joins Sales (Chicago): the appended row
        # flips outcomes the executor memo decided above.
        company_db.table("Employee").insert(
            (7, "Eve Gupta", "Sales", 88_000.0, 31)
        )
        refreshed = store.refresh(company_db)
        assert refreshed.key != bundle.key
        assert store.stats.refreshes >= 1

        # A fresh engine over the refreshed bundle sees the new row ...
        fresh = Prism.from_artifacts(refreshed, time_limit=30.0)
        after = fresh.discover(self._spec())
        assert after.num_queries >= 1
        # ... and so does the *old* engine: its executor memo is keyed
        # on the data version and self-invalidates.
        stale = engine.discover(self._spec())
        assert stale.sql() == after.sql()

    def test_refreshed_catalog_feeds_the_new_planner(self, company_db):
        from repro.discovery.engine import Prism
        from repro.service.artifacts import ArtifactStore

        store = ArtifactStore()
        bundle = store.get(company_db)
        assert bundle.catalog.table_row_count("Employee") == 6
        company_db.table("Employee").insert(
            (7, "Grace Ito", "Sales", 88_000.0, 31)
        )
        refreshed = store.refresh(company_db)
        assert refreshed.catalog.table_row_count("Employee") == 7
        engine = Prism.from_artifacts(refreshed, time_limit=30.0)
        # The engine's planner estimates with the refreshed statistics.
        from repro.query.plan import Scan

        assert engine.executor.planner.estimated_rows(Scan("Employee")) == 7
