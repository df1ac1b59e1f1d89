"""Unit tests for filter-validation scheduling policies and the driver."""

from __future__ import annotations

import math

import pytest

from repro.bayesian.training import train_models
from repro.constraints.spec import MappingSpec
from repro.constraints.values import ExactValue, OneOf
from repro.dataset.schema import ColumnRef, ForeignKey
from repro.discovery.candidates import CandidateQuery
from repro.discovery.filters import build_filters
from repro.discovery.scheduler import (
    BayesianPolicy,
    NaivePolicy,
    OptimalPolicy,
    PathLengthPolicy,
    ValidationDriver,
    make_policy,
)
from repro.dataset.catalog import MetadataCatalog
from repro.discovery.scheduler import _DriverContext
from repro.discovery.validation import FilterValidator
from repro.errors import DiscoveryError, QueryError, SchemaError
from repro.query.executor import Executor
from repro.query.pj_query import ProjectJoinQuery
from repro.query.plan import join_prefix_key
from repro.query.planner import Planner


EMP_DEPT = ForeignKey("Employee", "Department", "Department", "Name")
ASSIGN_EMP = ForeignKey("Assignment", "EmployeeId", "Employee", "Id")
ASSIGN_PROJ = ForeignKey("Assignment", "ProjectCode", "Project", "Code")


def build_candidates() -> list[CandidateQuery]:
    """Three candidates of growing join size for (department, project-ish) pairs."""
    queries = [
        ProjectJoinQuery(
            (ColumnRef("Department", "Name"), ColumnRef("Department", "City"))
        ),
        ProjectJoinQuery(
            (ColumnRef("Department", "Name"), ColumnRef("Employee", "Name")),
            (EMP_DEPT,),
        ),
        ProjectJoinQuery(
            (ColumnRef("Department", "Name"), ColumnRef("Project", "Title")),
            (EMP_DEPT, ASSIGN_EMP, ASSIGN_PROJ),
        ),
    ]
    return [CandidateQuery(i, q) for i, q in enumerate(queries)]


def build_spec() -> MappingSpec:
    spec = MappingSpec(2)
    spec.add_sample_cells(
        [ExactValue("Engineering"), ExactValue("Query Optimizer")]
    )
    return spec


@pytest.fixture()
def estimator(company_db):
    return train_models(company_db).estimator()


def run_with(policy, company_db, estimator=None, spec=None, candidates=None):
    spec = spec or build_spec()
    candidates = candidates or build_candidates()
    filter_set = build_filters(spec, candidates)
    validator = FilterValidator(Executor(company_db), spec)
    driver = ValidationDriver(filter_set, validator, policy, estimator=estimator)
    return driver.run()


class TestPolicyFactory:
    def test_known_names(self):
        assert isinstance(make_policy("naive"), NaivePolicy)
        assert isinstance(make_policy("filter"), PathLengthPolicy)
        assert isinstance(make_policy("path_length"), PathLengthPolicy)
        assert isinstance(make_policy("bayesian"), BayesianPolicy)
        assert isinstance(make_policy("prism"), BayesianPolicy)
        assert isinstance(make_policy("optimal"), OptimalPolicy)
        assert isinstance(make_policy("ORACLE"), OptimalPolicy)

    def test_unknown_name_raises(self):
        with pytest.raises(DiscoveryError):
            make_policy("quantum")


class TestDriverCorrectness:
    def test_all_policies_agree_on_confirmed_candidates(self, company_db, estimator):
        results = {
            "naive": run_with(NaivePolicy(), company_db),
            "filter": run_with(PathLengthPolicy(), company_db),
            "bayesian": run_with(BayesianPolicy(), company_db, estimator),
            "optimal": run_with(OptimalPolicy(), company_db),
        }
        confirmed_sets = {
            name: tuple(result.confirmed_candidate_ids)
            for name, result in results.items()
        }
        assert len(set(confirmed_sets.values())) == 1

    def test_confirmed_candidates_truly_contain_the_sample(self, company_db):
        result = run_with(NaivePolicy(), company_db)
        # Candidate 2 (Department -> ... -> Project) is the only mapping whose
        # result contains ('Engineering', 'Query Optimizer').
        assert result.confirmed_candidate_ids == [2]
        assert set(result.pruned_candidate_ids) == {0, 1}

    def test_every_candidate_is_decided(self, company_db):
        result = run_with(PathLengthPolicy(), company_db)
        assert len(result.confirmed_candidate_ids) + len(
            result.pruned_candidate_ids
        ) == len(build_candidates())

    def test_metadata_only_spec_confirms_all_candidates(self, company_db):
        spec = MappingSpec(2)  # no samples at all
        filter_set = build_filters(spec, build_candidates())
        validator = FilterValidator(Executor(company_db), spec)
        result = ValidationDriver(filter_set, validator, NaivePolicy()).run()
        assert result.confirmed_candidate_ids == [0, 1, 2]
        assert result.validations == 0

    def test_expired_deadline_reports_timeout(self, company_db):
        spec = build_spec()
        filter_set = build_filters(spec, build_candidates())
        validator = FilterValidator(Executor(company_db), spec)
        driver = ValidationDriver(
            filter_set, validator, NaivePolicy(), deadline=0.0
        )
        result = driver.run()
        assert result.timed_out
        assert result.validations == 0


class TestValidationCounts:
    def test_naive_validates_at_least_one_filter_per_candidate(self, company_db):
        result = run_with(NaivePolicy(), company_db)
        assert result.validations >= 3

    def test_optimal_never_needs_more_than_naive(self, company_db):
        naive = run_with(NaivePolicy(), company_db)
        optimal = run_with(OptimalPolicy(), company_db)
        assert optimal.validations <= naive.validations

    def test_optimal_is_lower_bound_for_heuristics(self, company_db, estimator):
        optimal = run_with(OptimalPolicy(), company_db)
        for policy in (PathLengthPolicy(), BayesianPolicy()):
            heuristic = run_with(policy, company_db, estimator)
            assert heuristic.validations >= optimal.validations

    def test_implied_outcomes_are_reported(self, company_db):
        # A failing shared probe implies failures of larger filters.
        spec = MappingSpec(2)
        spec.add_sample_cells(
            [ExactValue("Engineering"), ExactValue("No Such Project")]
        )
        result_filter = None
        filter_set = build_filters(spec, build_candidates())
        validator = FilterValidator(Executor(company_db), spec)
        result_filter = ValidationDriver(
            filter_set, validator, PathLengthPolicy()
        ).run()
        assert result_filter.confirmed_candidate_ids == []
        assert result_filter.validations + result_filter.implied_outcomes >= 3

    def test_bayesian_policy_requires_estimator(self, company_db):
        with pytest.raises(DiscoveryError):
            run_with(BayesianPolicy(), company_db, estimator=None)

    def test_scheduling_result_reports_num_confirmed(self, company_db):
        result = run_with(NaivePolicy(), company_db)
        assert result.num_confirmed == len(result.confirmed_candidate_ids)
        assert result.elapsed_seconds >= 0.0

    def test_disjunctive_cells_are_handled_by_all_policies(self, company_db, estimator):
        spec = MappingSpec(2)
        spec.add_sample_cells(
            [OneOf(["Engineering", "Research"]), ExactValue("Schema Mapping")]
        )
        for policy in (NaivePolicy(), PathLengthPolicy(), OptimalPolicy()):
            result = run_with(policy, company_db, spec=spec)
            assert result.confirmed_candidate_ids == [2]
        bayes = run_with(BayesianPolicy(), company_db, estimator, spec=spec)
        assert bayes.confirmed_candidate_ids == [2]


class _RowsPlanner:
    """A planner stub whose join-cardinality estimate is ``rows``."""

    def __init__(self, rows: float):
        self.rows = rows

    def structure_rows(self, query) -> float:
        return self.rows


class _CountingEstimator:
    """Wraps an estimator, counting ``failure_probability`` calls and
    passing the run's memo through."""

    def __init__(self, estimator):
        self._estimator = estimator
        self.calls = 0

    def failure_probability(self, query, cell_constraints, *memo):
        self.calls += 1
        return self._estimator.failure_probability(query, cell_constraints, *memo)


class TestIncrementalSelection:
    @pytest.mark.parametrize("rows", [math.nan, math.inf, -math.inf, 1e308])
    def test_any_cost_estimate_ends_the_run(self, company_db, estimator, rows):
        spec = build_spec()
        filter_set = build_filters(spec, build_candidates())
        validator = FilterValidator(Executor(company_db), spec)
        result = ValidationDriver(
            filter_set,
            validator,
            BayesianPolicy(),
            estimator=estimator,
            planner=_RowsPlanner(rows),
        ).run()
        assert result.confirmed_candidate_ids == [2]
        assert result.pruned_candidate_ids == [0, 1]

    def test_each_filter_is_scored_once(self, company_db, estimator):
        spec = build_spec()
        filter_set = build_filters(spec, build_candidates())
        counting = _CountingEstimator(estimator)
        result = run_with(BayesianPolicy(), company_db, counting, spec=spec)
        assert result.validations > 1
        assert counting.calls == filter_set.num_filters

    @pytest.mark.parametrize("stop", [{"max_validations": 0}, {"deadline": 0.0}])
    def test_a_run_that_stops_first_calls_no_policy(self, company_db, estimator, stop):
        """No filter is scored, and a missing estimator raises nothing."""
        spec = build_spec()
        counting = _CountingEstimator(estimator)
        for model in (counting, None):
            filter_set = build_filters(spec, build_candidates())
            validator = FilterValidator(Executor(company_db), spec)
            result = ValidationDriver(
                filter_set, validator, BayesianPolicy(), estimator=model, **stop
            ).run()
            assert result.timed_out and result.validations == 0
        assert counting.calls == 0


class _BatchRecordingValidator(FilterValidator):
    """Records each batched validation: the chosen filter and its peers."""

    def __init__(self, executor, spec):
        super().__init__(executor, spec)
        self.batches: list[tuple[int, tuple[int, ...]]] = []

    def validate_batch(self, filter_, peers=()):
        self.batches.append((filter_.id, tuple(peer.id for peer in peers)))
        return super().validate_batch(filter_, peers)


class TestPrefixGrouping:
    def test_batch_mates_share_a_prefix_key_not_a_shape(self, company_db):
        """A foreign key and its reverse name one equi-join: filters over
        them share a join prefix key but not a shape, and are batched."""
        reverse = ForeignKey("Department", "Name", "Employee", "Department")
        spec = MappingSpec(2)
        spec.add_sample_cells([ExactValue("Engineering"), ExactValue("Alice Chen")])
        candidates = [
            CandidateQuery(
                0,
                ProjectJoinQuery(
                    (ColumnRef("Department", "Name"), ColumnRef("Employee", "Name")),
                    (EMP_DEPT,),
                ),
            ),
            CandidateQuery(
                1,
                ProjectJoinQuery(
                    (ColumnRef("Department", "City"), ColumnRef("Employee", "Name")),
                    (reverse,),
                ),
            ),
        ]
        filter_set = build_filters(spec, candidates)
        forward, backward = (
            filter_set.filter(filter_set.candidate_tops[candidate.id][0])
            for candidate in candidates
        )
        assert forward.shape != backward.shape
        assert join_prefix_key(forward.query) == join_prefix_key(backward.query)

        outcomes = {}
        for batch in (True, False):
            validator = _BatchRecordingValidator(Executor(company_db), spec)
            result = ValidationDriver(
                filter_set, validator, NaivePolicy(), batch=batch
            ).run()
            outcomes[batch] = (
                result.confirmed_candidate_ids, result.pruned_candidate_ids
            )
            if batch:
                assert validator.batches[0] == (forward.id, (backward.id,))
        assert outcomes[True] == outcomes[False] == ([0], [1])


class TestCostFallback:
    """A filter whose structure the planner cannot order costs the
    structural unit; an unexpected planner error propagates."""

    def _context(self, company_db, planner):
        spec = build_spec()
        filter_set = build_filters(spec, build_candidates())
        validator = FilterValidator(Executor(company_db), spec)
        context = _DriverContext(filter_set, spec, None, validator, planner)
        joined = max(filter_set.filters, key=lambda filter_: filter_.join_size)
        assert joined.join_size >= 1
        return context, joined

    @pytest.mark.parametrize("error", [QueryError, SchemaError])
    def test_an_unordered_structure_costs_the_structural_unit(
        self, company_db, monkeypatch, error
    ):
        planner = Planner(company_db, MetadataCatalog.build(company_db))
        context, joined = self._context(company_db, planner)
        assert context.cost(joined) > context.structural_cost(joined)

        def unordered(query):
            raise error("the planner cannot order this structure")

        monkeypatch.setattr(planner, "structure_rows", unordered)
        assert context.cost(joined) == context.structural_cost(joined)

    def test_a_broken_catalog_propagates(self, company_db, monkeypatch):
        catalog = MetadataCatalog.build(company_db)
        context, joined = self._context(company_db, Planner(company_db, catalog))

        def broken(table):
            raise TypeError("broken catalog")

        monkeypatch.setattr(catalog, "table_row_count", broken)
        with pytest.raises(TypeError):
            context.cost(joined)
