"""The incremental validation driver against the reference driver.

:class:`repro.discovery.scheduler.ValidationDriver` keeps impact and
confirmations as counts and selects with a lazy-greedy heap; the
reference (:mod:`tests.discovery.reference_scheduler`) rebuilds the
pending list and re-scores every filter for every decision.  Over
seeded specs on the bundled databases and on two synthetic ones, every
policy, with and without batching and under a validation budget, must
make the same validator calls in the same order (each chosen filter
with its batch peers, and each probe that reached the executor, which
pins the oracle's peek order), reach the same confirmed and pruned
candidates and the same counters, and leave the executor with the same
statistics, ``sketch_estimates_used`` included.

Each filter's rank constants (a failure probability and a cost, for
the ``filter`` and ``bayesian`` policies) must equal, with ``==``, what
the reference policies compute for that filter on its own, although the
driver builds the Bayesian ones from factors memoized once per run:
each cell's match probability and each sub-query's expected result
size are computed once per distinct cell and sub-query, and again in
the next run.

The containment DAG, found through the subtree-shape index, must equal
the all-pairs :meth:`~repro.discovery.filters.Filter.contains`
definition on the same filter sets.
"""

from __future__ import annotations

import dataclasses
from collections import Counter

import pytest

from repro import (
    GenerationLimits,
    Prism,
    generate_synthetic_database,
    load_imdb,
    load_mondial,
    load_nba,
)
from repro.bayesian.distributions import ColumnDistribution
from repro.bayesian.estimator import SelectivityEstimator
from repro.discovery import scheduler
from repro.discovery.filters import build_filters
from repro.discovery.validation import FilterValidator
from repro.query.executor import Executor
from repro.workloads.degrade import ResolutionLevel, spec_for_level
from repro.workloads.generator import WorkloadGenerator
from tests.discovery import reference_scheduler as reference

_LIMITS = GenerationLimits(
    max_candidates=200, max_assignments=400, max_trees_per_assignment=6
)
_DATABASES = {
    "mondial": load_mondial,
    "imdb": load_imdb,
    "nba": load_nba,
    "star": lambda: generate_synthetic_database(
        5, 300, topology="star", seed=3, skew=1.1, dangling_fk_fraction=0.3
    ),
    "random": lambda: generate_synthetic_database(
        6, 300, topology="random", seed=5, skew=0.8, dangling_fk_fraction=0.2
    ),
}
#: (database, (columns, tables) of the ground truth, resolution level).
#: Every case has two sample rows, so a candidate is confirmed only
#: once both of its top filters pass.
_CASES = [
    ("mondial", (3, 2), ResolutionLevel.EXACT),
    ("mondial", (2, 1), ResolutionLevel.MIXED),
    ("mondial", (3, 3), ResolutionLevel.SPARSE),
    ("imdb", (3, 2), ResolutionLevel.EXACT),
    ("imdb", (3, 3), ResolutionLevel.SPARSE),
    ("nba", (2, 1), ResolutionLevel.MIXED),
    ("nba", (3, 3), ResolutionLevel.SPARSE),
    ("star", (2, 1), ResolutionLevel.EXACT),
    ("star", (3, 3), ResolutionLevel.SPARSE),
    ("random", (2, 1), ResolutionLevel.MIXED),
    ("random", (3, 2), ResolutionLevel.SPARSE),
]
#: Cases whose runs confirm candidates, under every policy.
_CONFIRMING = [_CASES[0], _CASES[1], _CASES[5], _CASES[7]]


def _ids(cases) -> list[str]:
    return [f"{db}-{c}x{t}-{level.value}" for db, (c, t), level in cases]


@pytest.fixture(scope="module")
def engines():
    built = {}

    def engine(name: str) -> Prism:
        if name not in built:
            built[name] = Prism(_DATABASES[name](), limits=_LIMITS)
        return built[name]

    return engine


def _case(engine: Prism, shape, level):
    """A seeded spec over ``engine``'s database and its filter set."""
    generator = WorkloadGenerator(engine.database, seed=7)
    case = generator.generate_case(*shape, num_samples=2)
    spec = spec_for_level(case, level, engine.database, engine.catalog, seed=1)
    candidates = engine.candidate_queries(spec)
    assert candidates
    return spec, build_filters(spec, candidates)


class _RecordingValidator(FilterValidator):
    """Records each validation request and each executor probe."""

    def __init__(self, executor, spec):
        super().__init__(executor, spec)
        self.calls: list[tuple] = []

    def validate(self, filter_):
        self.calls.append(("validate", filter_.id))
        return super().validate(filter_)

    def validate_batch(self, filter_, peers=()):
        self.calls.append(
            ("validate_batch", filter_.id, tuple(peer.id for peer in peers))
        )
        return super().validate_batch(filter_, peers)

    def _execute(self, filter_):
        self.calls.append(("execute", filter_.id))
        return super()._execute(filter_)


def _run(module, policy, engine, spec, filter_set, batch, budget) -> dict:
    """Everything one driver run decides and counts, on a fresh executor."""
    executor = Executor(engine.database, catalog=engine.catalog, use_sketches=True)
    validator = _RecordingValidator(executor, spec)
    result = module.ValidationDriver(
        filter_set,
        validator,
        module.make_policy(policy),
        estimator=engine.estimator,
        batch=batch,
        max_validations=budget,
        planner=executor.planner,
    ).run()
    return {
        "calls": validator.calls,
        "confirmed": result.confirmed_candidate_ids,
        "pruned": result.pruned_candidate_ids,
        "validations": result.validations,
        "implied_outcomes": result.implied_outcomes,
        "timed_out": result.timed_out,
        "validator": dataclasses.asdict(validator.stats),
        "executor": dataclasses.asdict(executor.stats),
    }


@pytest.mark.parametrize("database, shape, level", _CASES, ids=_ids(_CASES))
def test_driver_matches_the_reference(engines, database, shape, level):
    engine = engines(database)
    spec, filter_set = _case(engine, shape, level)
    decided = 0
    for policy in scheduler.POLICY_NAMES:
        for batch in (True, False):
            for budget in (None, 3):
                expected = _run(
                    reference, policy, engine, spec, filter_set, batch, budget
                )
                actual = _run(
                    scheduler, policy, engine, spec, filter_set, batch, budget
                )
                assert actual == expected, (policy, batch, budget)
                decided += len(actual["confirmed"]) + len(actual["pruned"])
    assert decided


def _driver_constants(policy, engine, spec, filter_set) -> list[tuple]:
    """Each filter's rank constants as one driver run computes them."""
    contexts = []

    class Capturing(type(scheduler.make_policy(policy))):
        def select(self, context):
            contexts.append(context)
            return super().select(context)

    executor = Executor(engine.database, catalog=engine.catalog, use_sketches=True)
    scheduler.ValidationDriver(
        filter_set,
        FilterValidator(executor, spec),
        Capturing(),
        estimator=engine.estimator,
        planner=executor.planner,
    ).run()
    return contexts[0].constants


def _reference_constants(policy, engine, spec, filter_set) -> list[tuple]:
    """Each filter's rank constants, each computed on its own from the
    reference driver's context, as its policies score a filter."""
    executor = Executor(engine.database, catalog=engine.catalog, use_sketches=True)
    validator = FilterValidator(executor, spec)
    context = reference._DriverContext(
        filter_set, spec, engine.estimator, validator, executor.planner
    )

    def constants(filter_) -> tuple:
        if policy == "naive":
            return (filter_.id not in context.top_filter_ids,)
        if policy == "filter":
            failure_probability = (filter_.join_size + 1.0) / (
                context.max_join_size + 2.0
            )
            return (failure_probability, context.structural_cost(filter_))
        if policy == "bayesian":
            failure_probability = context.estimator.failure_probability(
                filter_.query, context.cell_constraints(filter_)
            )
            return (failure_probability, context.cost(filter_))
        return (
            not validator.peek(filter_),
            filter_.id in context.top_filter_ids,
            context.structural_cost(filter_),
        )

    return [constants(filter_) for filter_ in filter_set.filters]


@pytest.mark.parametrize("database, shape, level", _CASES, ids=_ids(_CASES))
def test_policy_constants_match_the_reference(engines, database, shape, level):
    """Bit for bit: the memoized factors multiply in the same order."""
    engine = engines(database)
    spec, filter_set = _case(engine, shape, level)
    for policy in scheduler.POLICY_NAMES:
        actual = _driver_constants(policy, engine, spec, filter_set)
        expected = _reference_constants(policy, engine, spec, filter_set)
        assert len(actual) == filter_set.num_filters
        assert actual == expected, policy


@pytest.mark.parametrize("database, shape, level", _CASES, ids=_ids(_CASES))
def test_each_factor_is_computed_once_per_run(
    engines, database, shape, level, monkeypatch
):
    """One ``match_probability`` per distinct (sample, position, projected
    column) cell and one ``expected_result_size`` per distinct (tables,
    joins in order) sub-query, in every run."""
    engine = engines(database)
    spec, filter_set = _case(engine, shape, level)
    samples = spec.samples
    cells = {
        (filter_.sample_index, position, ref)
        for filter_ in filter_set.filters
        for position, ref in zip(filter_.positions, filter_.query.projections)
    }
    # The call each cell needs: its column's distribution and its
    # constraint object.  Parts of compound constraints are not cells.
    expected_cells = Counter(
        (
            id(engine.estimator.relation_model(ref.table).distribution(ref.column)),
            id(samples[sample_index].cell(position)),
        )
        for sample_index, position, ref in cells
    )
    structures = {
        (tuple(filter_.query.tables), filter_.query.joins)
        for filter_ in filter_set.filters
    }
    cell_ids = {id(cell) for sample in samples for cell in sample.cells}
    matched: Counter = Counter()
    sized: Counter = Counter()
    match_probability = ColumnDistribution.match_probability
    expected_result_size = SelectivityEstimator.expected_result_size

    def counting_match(distribution, constraint):
        if id(constraint) in cell_ids:
            matched[id(distribution), id(constraint)] += 1
        return match_probability(distribution, constraint)

    def counting_size(estimator, query):
        sized[tuple(query.tables), query.joins] += 1
        return expected_result_size(estimator, query)

    monkeypatch.setattr(ColumnDistribution, "match_probability", counting_match)
    monkeypatch.setattr(SelectivityEstimator, "expected_result_size", counting_size)
    for run in (1, 2):
        executor = Executor(
            engine.database, catalog=engine.catalog, use_sketches=True
        )
        scheduler.ValidationDriver(
            filter_set,
            FilterValidator(executor, spec),
            scheduler.make_policy("bayesian"),
            estimator=engine.estimator,
            planner=executor.planner,
        ).run()
        assert matched == Counter(
            {key: count * run for key, count in expected_cells.items()}
        )
        assert sized == Counter(dict.fromkeys(structures, run))
    # Filters share cells and sub-queries: the memo has work to save.
    assert sum(len(filter_.positions) for filter_ in filter_set.filters) > len(cells)
    assert filter_set.num_filters > len(structures)


@pytest.mark.parametrize("database, shape, level", _CASES, ids=_ids(_CASES))
def test_containment_matches_all_pairs(engines, database, shape, level):
    __, filter_set = _case(engines(database), shape, level)
    ancestors, descendants = reference.all_pairs_containment(filter_set)
    ids = [filter_.id for filter_ in filter_set.filters]
    assert {i: filter_set.ancestors(i) for i in ids} == ancestors
    assert {i: filter_set.descendants(i) for i in ids} == descendants
    assert any(descendants.values())


def _checked_policy(name: str) -> scheduler.SchedulingPolicy:
    """``name``'s policy, checking the validation driver's counts before
    each decision against their definitions over the candidate states."""

    class Checked(type(scheduler.make_policy(name))):
        def select(self, context):
            undecided = {
                candidate_id
                for candidate_id, state in context.candidate_state.items()
                if state == "undecided"
            }
            assert context.num_undecided == len(undecided)
            pending = 0
            for filter_ in context.filter_set.filters:
                impact = len(filter_.candidate_ids & undecided)
                assert context.impact(filter_) == impact, filter_.id
                pending += context.outcomes[filter_.id] is None and impact > 0
            assert context.num_pending == pending
            return super().select(context)

    return Checked()


@pytest.mark.parametrize(
    "database, shape, level", _CONFIRMING, ids=_ids(_CONFIRMING)
)
def test_driver_counts_match_their_definitions(engines, database, shape, level):
    """Impact is the number of a filter's undecided candidates, however
    they were decided, whether or not any choice depends on it."""
    engine = engines(database)
    spec, filter_set = _case(engine, shape, level)
    for policy in scheduler.POLICY_NAMES:
        executor = Executor(
            engine.database, catalog=engine.catalog, use_sketches=True
        )
        result = scheduler.ValidationDriver(
            filter_set,
            FilterValidator(executor, spec),
            _checked_policy(policy),
            estimator=engine.estimator,
            planner=executor.planner,
        ).run()
        assert result.confirmed_candidate_ids and result.validations > 1
