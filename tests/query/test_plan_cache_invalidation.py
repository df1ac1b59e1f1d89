"""Plan and outcome cache invalidation across schema changes, data
changes and ``ArtifactStore.refresh()``.

The executor keys its physical-plan cache by canonical plan hash (join
structure) and holds it, with the validator's outcome cache, for one
artifact key.  These tests prove both caches are shared while the key
stands and dropped when it moves: on a schema change, on an append, and
through the append-and-refresh lifecycle of the service layer's artifact
store.
"""

from __future__ import annotations

from repro.constraints.spec import MappingSpec
from repro.constraints.values import ExactValue
from repro.dataset import Column, DataType
from repro.dataset.schema import ColumnRef, ForeignKey
from repro.discovery.candidates import CandidateQuery
from repro.discovery.filters import build_filters
from repro.discovery.validation import FilterValidator
from repro.query.executor import Executor
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
        assert len(executor.cache.plans) == 1

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
        assert len(executor.cache.plans) == 1
        # Adding a table bumps the schema version; cached plans (which
        # bake in column positions) must be rebuilt.
        company_db.create_table("Extra", [Column("x", DataType.INT)])
        executor.execute(JOIN_QUERY)
        assert executor.stats.plan_cache_builds == 2
        assert len(executor.cache.plans) == 1

    def test_data_growth_rebuilds_plans(self, company_db):
        executor = Executor(company_db)
        executor.execute(JOIN_QUERY)
        company_db.table("Employee").insert(
            (7, "Grace Ito", "Sales", 88_000.0, 31)
        )
        executor.execute(JOIN_QUERY)
        # An append moves the artifact key: the plan is lowered again.
        assert executor.stats.plan_cache_builds == 2
        assert executor.stats.plan_cache_hits == 0


class TestOutcomeInvalidation:
    def test_outcomes_invalidate_on_data_change(self, company_db):
        spec = MappingSpec(2)
        spec.add_sample_cells([ExactValue("Chicago"), ExactValue("Grace Ito")])
        spec.add_sample_cells([ExactValue("Chicago"), ExactValue("Frank Hill")])
        filter_set = build_filters(spec, [CandidateQuery(0, JOIN_QUERY)])
        first, second = (
            filter_set.filter(filter_id)
            for filter_id in filter_set.candidate_tops[0].values()
        )
        executor = Executor(company_db)
        validator = FilterValidator(executor, spec)
        assert not validator.validate(first)
        assert validator.validate(second)
        assert validator.validate(second)
        assert validator.stats.cache_hits == 1
        assert validator.stats.cache_misses == 2
        company_db.table("Employee").insert(
            (7, "Grace Ito", "Sales", 88_000.0, 31)
        )
        # The append dropped both outcomes.
        assert validator.validate(first)
        assert validator.validate(second)
        assert validator.stats.cache_hits == 1
        assert validator.stats.cache_misses == 4


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
        assert engine.executor.outcomes

        # A second Eve Gupta joins Sales (Chicago): the appended row
        # flips outcomes the outcome cache holds from above.
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
        # ... and so does the *old* engine: its executor's caches hold
        # for one artifact key and were dropped when the key moved.
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
