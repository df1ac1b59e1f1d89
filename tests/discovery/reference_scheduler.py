"""Reference validation driver and policies for the differential tests.

This is the scheduler as it stood before the validation driver became
incremental, kept verbatim below this docstring except that it groups
batch-mates with :func:`group_by_prefix`, a copy of the planner's
``Planner.group_by_prefix`` it called then: every decision rebuilds
the list of pending filters, every policy re-scores all of them, with
no memo, impact is a set intersection and confirmation rescans every
undecided candidate.  It is the oracle
:mod:`tests.discovery.test_driver_differential` holds
:class:`repro.discovery.scheduler.ValidationDriver` to: the same
filters chosen in the same order, the same batch peers, the same
counters and the same rank constants.  :func:`all_pairs_containment`
is the containment DAG as it was computed, by testing every pair of
filters of one sample with
:meth:`~repro.discovery.filters.Filter.contains`.

Nothing under ``src/`` imports this module.
"""

from __future__ import annotations

import math
import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.bayesian.estimator import SelectivityEstimator
from repro.constraints.spec import MappingSpec
from repro.discovery.filters import Filter, FilterSet
from repro.discovery.validation import FilterValidator
from repro.errors import DiscoveryError
from repro.query.plan import join_prefix_key
from repro.query.planner import Planner

__all__ = [
    "SchedulingPolicy",
    "NaivePolicy",
    "PathLengthPolicy",
    "BayesianPolicy",
    "OptimalPolicy",
    "ValidationDriver",
    "SchedulingResult",
    "make_policy",
    "POLICY_NAMES",
    "all_pairs_containment",
    "group_by_prefix",
]


@dataclass
class SchedulingResult:
    """Outcome of one validation-scheduling run."""

    scheduler_name: str
    confirmed_candidate_ids: list[int] = field(default_factory=list)
    pruned_candidate_ids: list[int] = field(default_factory=list)
    validations: int = 0
    implied_outcomes: int = 0
    elapsed_seconds: float = 0.0
    timed_out: bool = False

    @property
    def num_confirmed(self) -> int:
        """Number of candidates confirmed as satisfying every constraint."""
        return len(self.confirmed_candidate_ids)


class _DriverContext:
    """Read-only view of the driver's state handed to policies."""

    def __init__(
        self,
        filter_set: FilterSet,
        spec: MappingSpec,
        estimator: Optional[SelectivityEstimator],
        validator: FilterValidator,
        planner: Optional[Planner] = None,
    ):
        self.filter_set = filter_set
        self.spec = spec
        self.estimator = estimator
        self.validator = validator
        self.planner = planner
        self.undecided_candidates: set[int] = set()
        self.top_filter_ids: set[int] = filter_set.top_filter_ids()
        self._max_join_size = max(
            (filter_.join_size for filter_ in filter_set.filters), default=0
        )

    def impact(self, filter_: Filter) -> int:
        """Number of still-undecided candidates this filter could prune."""
        return len(filter_.candidate_ids & self.undecided_candidates)

    def cost(self, filter_: Filter) -> float:
        """Estimated validation cost of one filter.

        Without a planner this is the classic structural unit
        ``1 + join_size``.  With one (the engine passes its executor's
        planner when sketches are on), the filter's estimated join
        cardinality — memoized per join structure, HLL-informed when
        sketches exist — is added on a log scale: probing a join whose
        sketched key overlap is near-empty dies almost immediately
        (early-terminating semijoins), while a high-overlap join streams
        a large intermediate result.  The log damping reflects that
        early termination makes probe cost sublinear in result size.
        """
        base = self.structural_cost(filter_)
        planner = self.planner
        if planner is None:
            return base
        try:
            rows = planner.structure_rows(filter_.query)
        except Exception:
            return base
        return base + math.log2(1.0 + max(rows, 0.0))

    @staticmethod
    def structural_cost(filter_: Filter) -> float:
        """The classic structural validation-cost unit, ``1 + join_size``.

        The oracle policy ranks by this regardless of sketches: the
        "optimum" is the paper's fixed reference point, so its choices
        must not move when the estimator changes.
        """
        return 1.0 + filter_.join_size

    def cell_constraints(self, filter_: Filter) -> dict[int, object]:
        """Cell constraints keyed by projection index within the filter."""
        sample = self.spec.samples[filter_.sample_index]
        constraints = {}
        for projection_index, position in enumerate(filter_.positions):
            cell = sample.cell(position)
            if cell is not None:
                constraints[projection_index] = cell
        return constraints

    @property
    def max_join_size(self) -> int:
        """Largest join size among all filters (for normalisation)."""
        return self._max_join_size


class SchedulingPolicy(ABC):
    """Chooses which pending filter to validate next."""

    name: str = "abstract"

    @abstractmethod
    def select(self, pending: Sequence[Filter], context: _DriverContext) -> Filter:
        """Pick one filter from ``pending`` (guaranteed non-empty)."""

    def _cost(self, filter_: Filter) -> float:
        """Structural validation-cost unit (no statistics)."""
        return 1.0 + filter_.join_size


class NaivePolicy(SchedulingPolicy):
    """Validate full candidate queries directly, one at a time."""

    name = "naive"

    def select(self, pending: Sequence[Filter], context: _DriverContext) -> Filter:
        tops = [f for f in pending if f.id in context.top_filter_ids]
        pool = tops or list(pending)
        return min(pool, key=lambda f: (f.id,))


class PathLengthPolicy(SchedulingPolicy):
    """The "Filter" baseline: failure probability ∝ join-path length.

    As the prior-work reference point it ranks by the structural cost
    unit only — the sketch-informed cost is Prism's improvement and
    feeding it to the baseline would blur the comparison the paper
    makes (and can even push the baseline past the greedy oracle).
    """

    name = "filter"

    def select(self, pending: Sequence[Filter], context: _DriverContext) -> Filter:
        denominator = context.max_join_size + 2.0

        def score(filter_: Filter) -> float:
            failure_probability = (filter_.join_size + 1.0) / denominator
            return (
                failure_probability
                * context.impact(filter_)
                / context.structural_cost(filter_)
            )

        return max(pending, key=lambda f: (score(f), -f.id))


class BayesianPolicy(SchedulingPolicy):
    """Prism: failure probability from the Bayesian selectivity models."""

    name = "bayesian"

    def select(self, pending: Sequence[Filter], context: _DriverContext) -> Filter:
        if context.estimator is None:
            raise DiscoveryError("BayesianPolicy requires a trained estimator")

        def score(filter_: Filter) -> float:
            failure_probability = context.estimator.failure_probability(
                filter_.query, context.cell_constraints(filter_)
            )
            return failure_probability * context.impact(filter_) / context.cost(filter_)

        return max(pending, key=lambda f: (score(f), -f.id))


class OptimalPolicy(SchedulingPolicy):
    """Oracle scheduler: knows each filter's true outcome in advance.

    Greedy strategy: if some truly-failing filter can still prune undecided
    candidates, validate the one pruning the most (cheapest on ties);
    otherwise validate the top filter of an undecided candidate (which will
    pass and confirm it).  This is the reference "optimum" of §2.4.
    """

    name = "optimal"

    def select(self, pending: Sequence[Filter], context: _DriverContext) -> Filter:
        failing = [
            filter_
            for filter_ in pending
            if context.impact(filter_) > 0 and not context.validator.peek(filter_)
        ]
        if failing:
            return max(
                failing,
                key=lambda f: (
                    context.impact(f), -context.structural_cost(f), -f.id,
                ),
            )
        tops = [
            filter_
            for filter_ in pending
            if filter_.id in context.top_filter_ids and context.impact(filter_) > 0
        ]
        pool = tops or list(pending)
        return min(pool, key=lambda f: (context.structural_cost(f), f.id))


POLICY_NAMES = ("naive", "filter", "bayesian", "optimal")


def make_policy(name: str) -> SchedulingPolicy:
    """Create a scheduling policy by name.

    Accepted names: ``naive``, ``filter`` (alias ``path_length``),
    ``bayesian`` (alias ``prism``), ``optimal`` (alias ``oracle``).
    """
    normalized = name.strip().lower()
    policies = {
        "naive": NaivePolicy,
        "filter": PathLengthPolicy,
        "path_length": PathLengthPolicy,
        "path-length": PathLengthPolicy,
        "bayesian": BayesianPolicy,
        "prism": BayesianPolicy,
        "optimal": OptimalPolicy,
        "oracle": OptimalPolicy,
    }
    if normalized not in policies:
        raise DiscoveryError(
            f"unknown scheduler {name!r}; expected one of {sorted(set(policies))}"
        )
    return policies[normalized]()


class ValidationDriver:
    """Validates filters under a policy until every candidate is decided.

    When ``batch`` is enabled (the default), each time the policy picks a
    filter with at least one join, every other pending filter sharing the
    chosen filter's join structure (its *join prefix*,
    :func:`~repro.query.plan.join_prefix_key`) is handed to the validator
    as a batch-mate: one streamed pass over the shared join decides all
    of them (:meth:`FilterValidator.validate_batch`), and batch-mates the
    policy picks later resolve from the validator cache.  Scheduling
    order, validation counts and discovery results are bit-for-bit
    identical to the unbatched path — only the executor work is shared.
    """

    #: Bound on how many filters one batched pass may decide.
    DEFAULT_BATCH_SIZE = 32

    def __init__(
        self,
        filter_set: FilterSet,
        validator: FilterValidator,
        policy: SchedulingPolicy,
        estimator: Optional[SelectivityEstimator] = None,
        deadline: Optional[float] = None,
        batch: bool = True,
        batch_size: Optional[int] = None,
        max_validations: Optional[int] = None,
        planner: Optional[Planner] = None,
    ):
        self._filter_set = filter_set
        self._validator = validator
        self._policy = policy
        self._estimator = estimator
        self._deadline = deadline
        self._batch = batch
        self._batch_size = (
            batch_size if batch_size is not None else self.DEFAULT_BATCH_SIZE
        )
        # Deterministic alternative to the wall-clock deadline: stop after
        # this many scheduling decisions (reported as timed_out).
        self._max_validations = max_validations
        # Optional cost oracle: policies fold the planner's (sketch-backed)
        # join-cardinality estimates into their cost denominators.
        self._planner = planner

    def run(self) -> SchedulingResult:
        """Run validation to completion (or until the deadline)."""
        started = time.monotonic()
        filter_set = self._filter_set
        spec = filter_set.spec
        num_samples = len(spec.samples)

        result = SchedulingResult(scheduler_name=self._policy.name)
        filter_state: dict[int, Optional[bool]] = {
            filter_.id: None for filter_ in filter_set.filters
        }
        candidate_state: dict[int, str] = {
            candidate.id: "undecided" for candidate in filter_set.candidates
        }

        context = _DriverContext(
            filter_set, spec, self._estimator, self._validator, self._planner
        )
        # Filters sharing one join structure, grouped once up front —
        # the candidates for each batched validation pass.
        prefix_groups = (
            group_by_prefix(filter_set.filters) if self._batch else {}
        )

        if num_samples == 0:
            # Metadata-only specs have nothing to validate: every candidate
            # already satisfies the (column-level) constraints by construction.
            result.confirmed_candidate_ids = sorted(candidate_state)
            result.elapsed_seconds = time.monotonic() - started
            return result

        def undecided() -> set[int]:
            return {
                candidate_id
                for candidate_id, state in candidate_state.items()
                if state == "undecided"
            }

        def refresh_confirmations() -> None:
            for candidate_id in list(undecided()):
                tops = filter_set.candidate_tops.get(candidate_id, {})
                if len(tops) < num_samples:
                    continue
                if all(
                    filter_state[top_id] is True for top_id in tops.values()
                ):
                    candidate_state[candidate_id] = "confirmed"

        while True:
            remaining = undecided()
            context.undecided_candidates = remaining
            if not remaining:
                break
            if self._deadline is not None and time.monotonic() > self._deadline:
                result.timed_out = True
                break
            if (
                self._max_validations is not None
                and result.validations >= self._max_validations
            ):
                result.timed_out = True
                break
            pending = [
                filter_
                for filter_ in filter_set.filters
                if filter_state[filter_.id] is None
                and filter_.candidate_ids & remaining
            ]
            if not pending:
                break
            chosen = self._policy.select(pending, context)
            if self._batch and chosen.join_size >= 1:
                # Batch-mates: still-pending filters over the chosen
                # filter's join structure, except its containment
                # relatives — if the chosen filter fails its ancestors
                # fail for free, and if it passes its descendants pass
                # for free, so computing those eagerly would waste the
                # very outcomes implication is about to hand us.
                related = filter_set.ancestors(chosen.id) | filter_set.descendants(
                    chosen.id
                )
                peers = [
                    filter_
                    for filter_ in prefix_groups.get(
                        join_prefix_key(chosen.query), ()
                    )
                    if filter_.id != chosen.id
                    and filter_.id not in related
                    and filter_state[filter_.id] is None
                    and filter_.candidate_ids & remaining
                ]
                outcome = self._validator.validate_batch(
                    chosen, peers[: self._batch_size - 1]
                )
            else:
                outcome = self._validator.validate(chosen)
            filter_state[chosen.id] = outcome
            # Count scheduling decisions, not executor work: the oracle's
            # free peeks and validator cache hits must not distort the
            # number of validations a policy is charged for.
            result.validations += 1

            if outcome:
                for descendant_id in filter_set.descendants(chosen.id):
                    if filter_state[descendant_id] is None:
                        filter_state[descendant_id] = True
                        result.implied_outcomes += 1
                refresh_confirmations()
            else:
                for ancestor_id in filter_set.ancestors(chosen.id):
                    if filter_state[ancestor_id] is None:
                        filter_state[ancestor_id] = False
                        result.implied_outcomes += 1
                for candidate_id in chosen.candidate_ids:
                    if candidate_state.get(candidate_id) == "undecided":
                        candidate_state[candidate_id] = "pruned"

        result.confirmed_candidate_ids = sorted(
            candidate_id
            for candidate_id, state in candidate_state.items()
            if state == "confirmed"
        )
        result.pruned_candidate_ids = sorted(
            candidate_id
            for candidate_id, state in candidate_state.items()
            if state == "pruned"
        )
        result.elapsed_seconds = time.monotonic() - started
        return result


def group_by_prefix(queries) -> dict[tuple, list]:
    """Group queries (or filters exposing ``.query``) by join prefix."""
    groups: dict[tuple, list] = {}
    for item in queries:
        query = getattr(item, "query", item)
        groups.setdefault(join_prefix_key(query), []).append(item)
    return groups


def all_pairs_containment(
    filter_set: FilterSet,
) -> tuple[dict[int, set[int]], dict[int, set[int]]]:
    """``(ancestors, descendants)`` by testing every pair of filters of
    one sample with :meth:`Filter.contains`."""
    ancestors: dict[int, set[int]] = {f.id: set() for f in filter_set.filters}
    descendants: dict[int, set[int]] = {f.id: set() for f in filter_set.filters}
    by_sample: dict[int, list[Filter]] = {}
    for filter_ in filter_set.filters:
        by_sample.setdefault(filter_.sample_index, []).append(filter_)
    for group in by_sample.values():
        for outer in group:
            for inner in group:
                if outer.id == inner.id:
                    continue
                if outer.contains(inner):
                    ancestors[inner.id].add(outer.id)
                    descendants[outer.id].add(inner.id)
    return ancestors, descendants
