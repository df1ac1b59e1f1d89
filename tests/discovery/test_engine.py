"""End-to-end tests for the Prism engine facade."""

from __future__ import annotations

import math
from collections import Counter

import pytest

from repro.constraints.metadata import MetadataField, MetadataPredicate
from repro.constraints.parser import parse_metadata_constraint, parse_value_constraint
from repro.constraints.spec import MappingSpec
from repro.constraints.values import ExactValue, OneOf, Range
from repro.dataset import Table
from repro.dataset.schema import ColumnRef
from repro.discovery.engine import Prism
from repro.errors import DiscoveryError, DiscoveryTimeout, SpecError
from repro.query.sql import to_sql
from repro.workloads.degrade import ResolutionLevel, spec_for_level
from repro.workloads.generator import WorkloadGenerator


class TestCompanyDiscovery:
    def test_exact_single_table_mapping(self, company_prism):
        spec = MappingSpec(2)
        spec.add_sample_cells([ExactValue("Alice Chen"), ExactValue(120000)])
        result = company_prism.discover(spec)
        assert result.num_queries >= 1
        sqls = result.sql()
        assert any(
            "Employee.Name" in sql and "Employee.Salary" in sql for sql in sqls
        )

    def test_cross_table_mapping_requires_correct_join(self, company_prism):
        spec = MappingSpec(2)
        spec.add_sample_cells([ExactValue("Engineering"), ExactValue("Query Optimizer")])
        result = company_prism.discover(spec)
        assert result.num_queries >= 1
        # Every returned mapping must join up to the Project table (the only
        # place 'Query Optimizer' lives), and at least one mapping must route
        # through the Department relation itself.
        assert all("Project" in query.tables for query in result.queries)
        assert any(
            {"Department", "Project"} <= set(query.tables) for query in result.queries
        )

    def test_results_satisfy_all_samples(self, company_prism):
        spec = MappingSpec(2)
        spec.add_sample_cells([ExactValue("Engineering"), ExactValue("Alice Chen")])
        spec.add_sample_cells([ExactValue("Research"), ExactValue("Eve Gupta")])
        result = company_prism.discover(spec)
        assert result.num_queries >= 1
        executor = company_prism.executor
        for query in result.queries:
            rows = executor.execute(query)
            for sample in spec.samples:
                assert sample.satisfied_by_result(rows)

    def test_impossible_spec_returns_empty_result(self, company_prism):
        spec = MappingSpec(2)
        spec.add_sample_cells([ExactValue("Engineering"), ExactValue("Nonexistent")])
        result = company_prism.discover(spec)
        assert result.is_empty
        assert result.best() is None

    def test_metadata_only_spec(self, company_prism):
        spec = MappingSpec(1)
        spec.set_metadata(
            0, MetadataPredicate(MetadataField.COLUMN_NAME, "==", "Budget")
        )
        result = company_prism.discover(spec)
        projected = {query.projections[0] for query in result.queries}
        assert ColumnRef("Department", "Budget") in projected
        assert ColumnRef("Project", "Budget") in projected

    def test_medium_resolution_constraints(self, company_prism):
        spec = MappingSpec(2)
        spec.add_sample_cells(
            [OneOf(["Detroit", "Chicago"]), Range(60_000, 80_000)]
        )
        result = company_prism.discover(spec)
        assert result.num_queries >= 1
        executor = company_prism.executor
        for query in result.queries:
            rows = executor.execute(query)
            assert spec.samples[0].satisfied_by_result(rows)

    def test_results_sorted_by_join_size(self, company_prism):
        spec = MappingSpec(1)
        spec.add_sample_cells([ExactValue("Engineering")])
        result = company_prism.discover(spec)
        sizes = [query.join_size for query in result.queries]
        assert sizes == sorted(sizes)

    def test_stats_are_populated(self, company_prism):
        spec = MappingSpec(2)
        spec.add_sample_cells([ExactValue("Engineering"), ExactValue("Query Optimizer")])
        result = company_prism.discover(spec)
        stats = result.stats
        assert stats.num_candidates >= result.num_queries
        assert stats.num_filters > 0
        assert stats.validations > 0
        assert stats.elapsed_seconds > 0
        assert stats.scheduler_name == "bayesian"
        assert stats.as_dict()["candidates"] == stats.num_candidates

    def test_describe_lists_queries(self, company_prism):
        spec = MappingSpec(1)
        spec.add_sample_cells([ExactValue("Engineering")])
        result = company_prism.discover(spec)
        text = result.describe()
        assert "satisfying schema mapping" in text
        assert "SELECT" in text


class TestSchedulersThroughEngine:
    @pytest.mark.parametrize("scheduler", ["naive", "filter", "bayesian", "optimal"])
    def test_every_scheduler_finds_the_same_queries(self, company_prism, scheduler):
        spec = MappingSpec(2)
        spec.add_sample_cells([ExactValue("Engineering"), ExactValue("Query Optimizer")])
        result = company_prism.discover(spec, scheduler=scheduler)
        sqls = sorted(to_sql(query) for query in result.queries)
        baseline = sorted(
            to_sql(query) for query in company_prism.discover(spec, scheduler="naive").queries
        )
        assert sqls == baseline
        assert result.stats.scheduler_name in (scheduler, "filter", "bayesian",
                                               "naive", "optimal")

    @pytest.mark.parametrize("scheduler", [5, None, "bogus", "prism"])
    def test_an_unknown_scheduler_is_rejected(self, company_db_session, scheduler):
        with pytest.raises(DiscoveryError, match="unknown scheduler"):
            Prism(company_db_session, scheduler=scheduler, train_bayesian=False)
        engine = Prism(company_db_session, train_bayesian=False)
        spec = MappingSpec(1).add_sample_cells([ExactValue("Engineering")])
        if scheduler is not None:  # None picks the engine's default
            with pytest.raises(DiscoveryError, match="unknown scheduler"):
                engine.discover(spec, scheduler=scheduler)

    def test_bayesian_without_models_raises(self, company_db_session):
        engine = Prism(company_db_session, train_bayesian=False)
        spec = MappingSpec(1).add_sample_cells([ExactValue("Engineering")])
        with pytest.raises(DiscoveryError):
            engine.discover(spec, scheduler="bayesian")
        # But the other schedulers still work.
        assert engine.discover(spec, scheduler="filter").num_queries >= 1


class TestValidationAndTimeouts:
    def test_empty_spec_rejected(self, company_prism):
        with pytest.raises(SpecError):
            company_prism.discover(MappingSpec(2))

    @pytest.mark.parametrize("time_limit", [0, -1.0, math.nan])
    def test_invalid_time_limit_rejected(self, company_db_session, time_limit):
        with pytest.raises(DiscoveryError):
            Prism(company_db_session, time_limit=time_limit)
        engine = Prism(company_db_session, train_bayesian=False)
        spec = MappingSpec(1).add_sample_cells([ExactValue("Engineering")])
        with pytest.raises(DiscoveryError):
            engine.discover(spec, scheduler="filter", time_limit=time_limit)

    @pytest.mark.parametrize("time_limit", ["5", True, math.nan])
    def test_a_time_limit_that_is_not_a_number_is_rejected(
        self, company_db_session, time_limit
    ):
        """A string is not read as its number, a bool not as 1 s, and
        NaN never expires; an infinite limit sets none."""
        with pytest.raises(DiscoveryError, match="time_limit"):
            Prism(company_db_session, time_limit=time_limit)
        engine = Prism(
            company_db_session, time_limit=math.inf, train_bayesian=False
        )
        spec = MappingSpec(1).add_sample_cells([ExactValue("Engineering")])
        with pytest.raises(DiscoveryError, match="time_limit"):
            engine.discover(spec, scheduler="filter", time_limit=time_limit)
        assert engine.discover(spec, scheduler="filter").num_queries >= 1

    def test_tiny_time_limit_reports_timeout(self, company_db_session):
        engine = Prism(company_db_session, train_bayesian=False)
        spec = MappingSpec(2)
        spec.add_sample_cells([ExactValue("Engineering"), None])
        result = engine.discover(spec, scheduler="filter", time_limit=1e-9)
        assert result.timed_out

    def test_raise_on_timeout(self, company_db_session):
        engine = Prism(company_db_session, train_bayesian=False)
        spec = MappingSpec(2)
        spec.add_sample_cells([ExactValue("Engineering"), None])
        with pytest.raises(DiscoveryTimeout):
            engine.discover(
                spec, scheduler="filter", time_limit=1e-9, raise_on_timeout=True
            )


class TestIntrospectionHelpers:
    def test_related_columns_helper(self, company_prism):
        spec = MappingSpec(1).add_sample_cells([ExactValue("Engineering")])
        related = company_prism.related_columns(spec)
        assert related.columns_for(0)

    def test_candidate_queries_helper(self, company_prism):
        spec = MappingSpec(1).add_sample_cells([ExactValue("Engineering")])
        candidates = company_prism.candidate_queries(spec)
        assert candidates
        assert all(candidate.query.width == 1 for candidate in candidates)


class TestMondialMotivatingExample:
    def test_lake_tahoe_walkthrough_recovers_paper_query(self, mondial_prism):
        spec = MappingSpec(3)
        spec.add_sample_cells(
            [
                parse_value_constraint("California || Nevada"),
                parse_value_constraint("Lake Tahoe"),
                None,
            ]
        )
        spec.set_metadata(
            2, parse_metadata_constraint("DataType=='decimal' AND MinValue>=0")
        )
        result = mondial_prism.discover(spec)
        assert result.num_queries >= 1
        target = (
            "SELECT geo_lake.Province, Lake.Name, Lake.Area "
            "FROM Lake, geo_lake WHERE geo_lake.Lake = Lake.Name"
        )
        assert target in result.sql()

    def test_lake_tahoe_exact_area_also_works(self, mondial_prism):
        spec = MappingSpec(3)
        spec.add_sample_cells(
            [
                ExactValue("California"),
                ExactValue("Lake Tahoe"),
                ExactValue(497.0),
            ]
        )
        result = mondial_prism.discover(spec)
        assert any(
            "Lake.Area" in sql and "geo_lake.Province" in sql for sql in result.sql()
        )


class TestHugeIntegerSamples:
    """A sample number beyond float range compares exactly (it equals
    no float) or bounds a range as an infinity; it raises nowhere."""

    HUGE = "1" + "0" * 400
    SAMPLES = [
        f"!= {HUGE}", f"== {HUGE}", f"> {HUGE}", f"< -{HUGE}", f"> -{HUGE}",
        f"[0, {HUGE}]", f"[-{HUGE}, 5]",
    ]
    #: Specs each huge range must answer like.
    EQUIVALENT = {f"[0, {HUGE}]": ">= 0", f"[-{HUGE}, 5]": "<= 5"}

    @staticmethod
    def _sql(engine, text, scheduler):
        spec = MappingSpec(1).add_sample_cells([parse_value_constraint(text)])
        return engine.discover(spec, scheduler=scheduler).sql()

    @pytest.mark.parametrize(
        "text", SAMPLES, ids=["!=", "==", ">", "<-", ">-", "[0,N]", "[-N,5]"]
    )
    def test_every_scheduler_answers(self, mondial_prism, text):
        answers = {
            scheduler: self._sql(mondial_prism, text, scheduler)
            for scheduler in ("naive", "filter", "bayesian", "optimal")
        }
        assert len({tuple(sql) for sql in answers.values()}) == 1
        if text in self.EQUIVALENT:
            expected = self._sql(mondial_prism, self.EQUIVALENT[text], "naive")
            assert answers["naive"] == expected and expected
        if text.startswith(("==", f"> {self.HUGE}", "<")):
            assert answers["naive"] == []


class TestCacheObservability:
    def test_as_dict_exports_stage_timings(self, company_db):
        spec = MappingSpec(2)
        spec.add_sample_cells(
            [ExactValue("Engineering"), ExactValue("Query Optimizer")]
        )
        stats = Prism(company_db).discover(spec).stats.as_dict()
        stages = (
            "related_column_seconds", "candidate_seconds", "validation_seconds"
        )
        assert all(stats[stage] >= 0 for stage in stages)
        assert sum(stats[stage] for stage in stages) <= stats["elapsed_seconds"]

    def test_discovery_stats_surface_executor_cache_counters(self, company_db):
        engine = Prism(company_db)
        spec = MappingSpec(2)
        spec.add_sample_cells(
            [ExactValue("Engineering"), ExactValue("Query Optimizer")]
        )
        first = engine.discover(spec)
        stats = first.stats.as_dict()
        for key in (
            "exists_cache_hits",
            "exists_cache_misses",
            "join_index_hits",
            "join_index_builds",
        ):
            assert key in stats
        # The validation stage runs real probes on a cold cache.
        assert first.stats.exists_cache_misses > 0
        # Kept for the v1 wire format; nothing counts them any more.
        assert stats["bloom_rejections"] == stats["sketch_estimates_used"] == 0

        # A repeated discovery on the same engine answers its probes from
        # the executor's existence memo; the join-index counters stay 0.
        second = engine.discover(spec)
        assert second.stats.exists_cache_hits > 0
        assert second.stats.exists_cache_misses == 0
        assert second.stats.join_index_builds == 0
        assert second.queries == first.queries


def _fresh_engine(base: Prism) -> Prism:
    """A new engine, with an empty executor, over ``base``'s artifacts."""
    return Prism(
        base.database,
        limits=base.limits,
        train_bayesian=False,
        index=base.index,
        catalog=base.catalog,
        schema_graph=base.schema_graph,
        models=base.models,
    )


class TestOnlyChosenProbesRun:
    """Every probe a run executes is one the scheduler chose: on a fresh
    engine each validation is an outcome-cache hit or one executed
    probe, and nothing else runs (the optimal oracle, which peeks at
    outcomes, aside)."""

    @staticmethod
    def _specs(database, catalog) -> list[MappingSpec]:
        generator = WorkloadGenerator(database, seed=3)
        specs = []
        for shape in ((3, 2), (2, 2), (3, 3)):
            case = generator.generate_case(*shape, num_samples=2)
            for level in (ResolutionLevel.EXACT, ResolutionLevel.MIXED):
                specs.append(spec_for_level(case, level, database, catalog, seed=1))
        lake_tahoe = MappingSpec(3)
        lake_tahoe.add_sample_cells([
            parse_value_constraint("California || Nevada"),
            parse_value_constraint("Lake Tahoe"),
            None,
        ])
        specs.append(lake_tahoe)
        return specs

    @pytest.mark.parametrize("scheduler", ["naive", "filter", "bayesian"])
    def test_each_validation_is_a_hit_or_one_probe(self, mondial_prism, scheduler):
        executed = 0
        for spec in self._specs(mondial_prism.database, mondial_prism.catalog):
            stats = _fresh_engine(mondial_prism).discover(
                spec, scheduler=scheduler, time_limit=math.inf
            ).stats
            assert (
                stats.exists_cache_hits + stats.exists_cache_misses
                == stats.validations
            )
            assert stats.validation_batches == stats.batched_outcomes == 0
            executed += stats.exists_cache_misses
        assert executed


class TestRoundSharing:
    def test_a_discover_scans_each_column_constraint_once(
        self, mondial_prism, monkeypatch
    ):
        """``discover()`` validates inside one executor round: however
        many probes constrain a column, each (table, column, constraint)
        is scanned once."""
        scans: Counter = Counter()
        select_rows = Table.select_rows

        def counting(table, name, constraint):
            scans[table.name, name, constraint] += 1
            return select_rows(table, name, constraint)

        monkeypatch.setattr(Table, "select_rows", counting)
        spec = MappingSpec(3)
        spec.add_sample_cells([
            parse_value_constraint("California || Nevada"),
            parse_value_constraint("Lake Tahoe"),
            None,
        ])
        stats = _fresh_engine(mondial_prism).discover(
            spec, time_limit=math.inf
        ).stats
        assert stats.exists_cache_misses > len(scans) > 0
        assert max(scans.values()) == 1


class TestInjectedArtifacts:
    def _spec(self):
        spec = MappingSpec(2)
        spec.add_sample_cells(
            [ExactValue("Engineering"), ExactValue("Query Optimizer")]
        )
        return spec

    def test_from_artifacts_skips_preprocessing_and_matches(self, company_db):
        from repro.api import ArtifactStore

        bundle = ArtifactStore().get(company_db)
        engine = Prism.from_artifacts(bundle)
        # No artifact was rebuilt: the engine aliases the bundle's objects.
        assert engine.index is bundle.index
        assert engine.catalog is bundle.catalog
        assert engine.schema_graph is bundle.schema_graph
        assert engine.models is bundle.models
        baseline = Prism(company_db).discover(self._spec())
        shared = engine.discover(self._spec())
        assert shared.sql() == baseline.sql()

    def test_engines_over_one_bundle_have_private_executors(self, company_db):
        from repro.api import ArtifactStore

        bundle = ArtifactStore().get(company_db)
        first = Prism.from_artifacts(bundle)
        second = Prism.from_artifacts(bundle)
        assert first.executor is not second.executor
        first.discover(self._spec())
        assert first.executor.stats.rows_scanned > 0
        # The sibling engine's executor stats and outcomes are untouched.
        assert second.executor.stats.rows_scanned == 0
        assert not second.executor.outcomes

    def test_partial_injection_builds_only_whats_missing(self, company_db):
        from repro.dataset.index import InvertedIndex

        index = InvertedIndex.build(company_db)
        engine = Prism(company_db, index=index, train_bayesian=False)
        assert engine.index is index
        # The catalog was built: it describes every column.
        assert len(engine.catalog) == sum(
            len(table.columns) for table in company_db
        )
