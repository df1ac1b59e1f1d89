"""Unit tests for filter validation."""

from __future__ import annotations

import pytest

from repro.constraints.spec import MappingSpec
from repro.constraints.values import ExactValue, OneOf, Range
from repro.dataset.schema import ColumnRef, ForeignKey
from repro.discovery.candidates import CandidateQuery
from repro.discovery.filters import build_filters
from repro.discovery.validation import FilterValidator
from repro.query.executor import Executor
from repro.query.pj_query import ProjectJoinQuery


EMP_DEPT = ForeignKey("Employee", "Department", "Department", "Name")


@pytest.fixture()
def validator_factory(company_db):
    def make(spec: MappingSpec) -> FilterValidator:
        return FilterValidator(Executor(company_db), spec)

    return make


def candidate() -> CandidateQuery:
    query = ProjectJoinQuery(
        (ColumnRef("Department", "City"), ColumnRef("Employee", "Name")),
        (EMP_DEPT,),
    )
    return CandidateQuery(id=0, query=query)


class TestValidate:
    def test_matching_sample_passes(self, validator_factory):
        spec = MappingSpec(2)
        spec.add_sample_cells([ExactValue("Ann Arbor"), ExactValue("Alice Chen")])
        filter_set = build_filters(spec, [candidate()])
        validator = validator_factory(spec)
        top = filter_set.filter(filter_set.candidate_tops[0][0])
        assert validator.validate(top) is True

    def test_cross_table_mismatch_fails_even_if_cells_exist_separately(
        self, validator_factory
    ):
        # 'Chicago' and 'Alice Chen' both exist, but Alice is not in Chicago.
        spec = MappingSpec(2)
        spec.add_sample_cells([ExactValue("Chicago"), ExactValue("Alice Chen")])
        filter_set = build_filters(spec, [candidate()])
        validator = validator_factory(spec)
        top = filter_set.filter(filter_set.candidate_tops[0][0])
        assert validator.validate(top) is False
        single_table = [f for f in filter_set.filters if f.num_tables == 1]
        assert all(validator.validate(f) for f in single_table)

    def test_disjunction_and_range_cells(self, validator_factory):
        spec = MappingSpec(2)
        spec.add_sample_cells(
            [OneOf(["Detroit", "Chicago"]), ExactValue("Carol Evans")]
        )
        filter_set = build_filters(spec, [candidate()])
        validator = validator_factory(spec)
        top = filter_set.filter(filter_set.candidate_tops[0][0])
        assert validator.validate(top) is True

    def test_unconstrained_cells_are_ignored(self, validator_factory):
        spec = MappingSpec(2)
        spec.add_sample_cells([ExactValue("Ann Arbor"), None])
        filter_set = build_filters(spec, [candidate()])
        validator = validator_factory(spec)
        top = filter_set.filter(filter_set.candidate_tops[0][0])
        assert validator.validate(top) is True


class TestCachingAndCounting:
    def test_validations_are_counted_once_per_filter(self, validator_factory):
        spec = MappingSpec(2)
        spec.add_sample_cells([ExactValue("Ann Arbor"), ExactValue("Alice Chen")])
        filter_set = build_filters(spec, [candidate()])
        validator = validator_factory(spec)
        top = filter_set.filter(filter_set.candidate_tops[0][0])
        validator.validate(top)
        validator.validate(top)
        assert validator.validations_performed == 1
        assert validator.stats.cache_hits == 1

    def test_peek_does_not_count(self, validator_factory):
        spec = MappingSpec(2)
        spec.add_sample_cells([ExactValue("Ann Arbor"), ExactValue("Alice Chen")])
        filter_set = build_filters(spec, [candidate()])
        validator = validator_factory(spec)
        top = filter_set.filter(filter_set.candidate_tops[0][0])
        assert validator.peek(top) is True
        assert validator.validations_performed == 0
        # A later counted validation reuses the cached outcome.
        assert validator.validate(top) is True
        assert validator.validations_performed == 0
        assert validator.stats.cache_hits == 1

    def test_pass_fail_counters(self, validator_factory):
        spec = MappingSpec(2)
        spec.add_sample_cells([ExactValue("Chicago"), ExactValue("Alice Chen")])
        filter_set = build_filters(spec, [candidate()])
        validator = validator_factory(spec)
        for filter_ in filter_set.filters:
            validator.validate(filter_)
        assert validator.stats.passed + validator.stats.failed == (
            validator.stats.validations
        )
        assert validator.stats.failed >= 1

    def test_range_cell_on_numeric_column(self, company_db):
        spec = MappingSpec(1)
        spec.add_sample_cells([Range(100_000, 130_000)])
        query = ProjectJoinQuery((ColumnRef("Employee", "Salary"),))
        filter_set = build_filters(spec, [CandidateQuery(0, query)])
        validator = FilterValidator(Executor(company_db), spec)
        assert validator.validate(filter_set.filters[0]) is True


class TestOutcomeCache:
    """The validator's outcomes live in the executor, keyed by content."""

    def _tops(self, spec):
        filter_set = build_filters(spec, [candidate()])
        return [
            filter_set.filter(filter_id)
            for filter_id in filter_set.candidate_tops[0].values()
        ]

    def test_identical_probes_share_one_outcome(self, company_db):
        spec = MappingSpec(2)
        for __ in range(2):
            spec.add_sample_cells(
                [ExactValue("Ann Arbor"), ExactValue("Alice Chen")]
            )
        first, second = self._tops(spec)
        executor = Executor(company_db)
        validator = FilterValidator(executor, spec)
        assert validator.validate(first) and validator.validate(second)
        assert validator.stats.cache_misses == 1
        assert validator.stats.cache_hits == 1
        # A later run's validator on the same executor executes nothing.
        scanned = executor.stats.rows_scanned
        again = FilterValidator(executor, spec)
        assert again.validate(second)
        assert again.stats.cache_hits == 1
        assert again.stats.cache_misses == 0
        assert executor.stats.rows_scanned == scanned
