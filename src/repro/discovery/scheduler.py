"""Filter-validation scheduling (step 2, part 2).

"A new important issue becomes the filter validation scheduling: in what
order the filters are validated so that the most number of filters are
pruned, as well as overall filter validation time is minimized" (§2.3).

This module provides the shared :class:`ValidationDriver` (which validates
filters, propagates implied outcomes through the containment DAG and
decides candidates) plus four scheduling policies:

* :class:`NaivePolicy` — validate full candidate queries one by one (the
  strawman the paper calls "very expensive");
* :class:`PathLengthPolicy` — the "Filter" baseline (after Shen et al.):
  failure probability proportional to join-path length;
* :class:`BayesianPolicy` — Prism: failure probability from the Bayesian
  selectivity models;
* :class:`OptimalPolicy` — an oracle that knows every filter's true outcome
  and greedily maximises pruning; it provides the "optimum" reference the
  paper measures the gap against.

Every policy scores pending filters by ``pruning power / cost`` where
pruning power combines the failure-probability estimate with the
filter's *impact*, the number of still-undecided candidates it would
prune.  Within one run a filter's failure probability and cost are
constants, computed once per filter at the first selection; only impact
changes, and it only falls.  So no waiting filter's score ever rises,
and the validation driver selects lazily: one heap holds every pending
filter's last score, and only the popped filter is scored again — kept
if its score held, pushed back if it fell.  Impact, confirmations and
the pending filters are counts, updated as outcomes arrive.

Many filters share sample cells and join shapes, so the Bayesian
failure probabilities are built from factors memoized for the run
(:class:`~repro.bayesian.estimator.EstimateMemo`): each cell's match
probability once per (sample, position, projected column), and each
sub-query's expected result size once per tables and joins in order.
Batch-mates are grouped by the join prefix key each filter's sub-query
was built with (:func:`~repro.discovery.filters.build_filters`).
"""

from __future__ import annotations

import heapq
import math
import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Optional

from repro.bayesian.estimator import EstimateMemo, SelectivityEstimator
from repro.constraints.spec import MappingSpec
from repro.constraints.values import ValueConstraint
from repro.discovery.filters import Filter, FilterSet
from repro.discovery.validation import FilterValidator
from repro.errors import DiscoveryError, QueryError, SchemaError
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
]

#: Bound on how many filters one batched validation pass may decide.
BATCH_SIZE = 32


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
    """The validation driver's per-run state, as policies read it.

    Filter ids are positions in ``filter_set.filters``.  ``outcomes``
    holds each filter's outcome (``None`` until it is validated or
    implied) and ``impacts`` the number of its candidates still
    undecided.  A filter is *pending* while its outcome is unknown and
    its impact is positive.  The numbers of pending filters and of
    undecided candidates are kept as counts, updated as outcomes arrive.
    ``estimates`` memoizes the Bayesian estimator's factors for the run.
    """

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
        self.top_filter_ids: set[int] = filter_set.top_filter_ids()
        self._max_join_size = max(
            (filter_.join_size for filter_ in filter_set.filters), default=0
        )
        self.candidate_state: dict[int, str] = {
            candidate.id: "undecided" for candidate in filter_set.candidates
        }
        self.num_undecided = len(self.candidate_state)
        self.outcomes: list[Optional[bool]] = [None] * filter_set.num_filters
        self.impacts = [0] * filter_set.num_filters
        for candidate_id in self.candidate_state:
            for filter_id in filter_set.candidate_filters.get(candidate_id, ()):
                self.impacts[filter_id] += 1
        self.num_pending = sum(1 for impact in self.impacts if impact > 0)
        # Top filter id -> the candidates it is the top filter of, and
        # candidate id -> how many of its top filters have passed.
        self._topped: dict[int, list[int]] = {}
        for candidate_id, tops in filter_set.candidate_tops.items():
            for filter_id in tops.values():
                self._topped.setdefault(filter_id, []).append(candidate_id)
        self._tops_passed = dict.fromkeys(filter_set.candidate_tops, 0)
        self._samples = spec.samples
        self._num_samples = len(self._samples)
        self.estimates = EstimateMemo()
        # The policy's per-filter constants and its selection heap of
        # (rank, filter id) entries, both built at the first selection.
        self.constants: list[tuple] = []
        self.queue: Optional[list[tuple[tuple, int]]] = None

    def impact(self, filter_: Filter) -> int:
        """Number of still-undecided candidates this filter could prune."""
        return self.impacts[filter_.id]

    def is_pending(self, filter_id: int) -> bool:
        """Whether the filter is undecided and could still decide a
        candidate."""
        return self.outcomes[filter_id] is None and self.impacts[filter_id] > 0

    def settle(self, filter_id: int, outcome: bool) -> None:
        """Record a filter's outcome.  A pass confirms every undecided
        candidate whose top filters, one per sample, have now all
        passed."""
        self.outcomes[filter_id] = outcome
        if self.impacts[filter_id] > 0:
            self.num_pending -= 1
        if not outcome:
            return
        for candidate_id in self._topped.get(filter_id, ()):
            self._tops_passed[candidate_id] += 1
            if (
                self._tops_passed[candidate_id] == self._num_samples
                and self.candidate_state.get(candidate_id) == "undecided"
            ):
                self.decide(candidate_id, "confirmed")

    def decide(self, candidate_id: int, state: str) -> None:
        """Confirm or prune an undecided candidate: each of its filters
        loses one unit of impact."""
        self.candidate_state[candidate_id] = state
        self.num_undecided -= 1
        impacts, outcomes = self.impacts, self.outcomes
        for filter_id in self.filter_set.candidate_filters.get(candidate_id, ()):
            impacts[filter_id] -= 1
            if impacts[filter_id] == 0 and outcomes[filter_id] is None:
                self.num_pending -= 1

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
        A structure the planner cannot order (a ``QueryError``) or whose
        tables it cannot find (a ``SchemaError``) costs the structural
        unit; any other error propagates.
        """
        base = self.structural_cost(filter_)
        planner = self.planner
        if planner is None:
            return base
        try:
            rows = planner.structure_rows(filter_.query)
        except (QueryError, SchemaError):
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

    def cells(
        self, filter_: Filter
    ) -> tuple[dict[int, ValueConstraint], list[tuple]]:
        """The filter's cell constraints by projection index, and each
        projection's cell key in :attr:`estimates`: its (sample index,
        position, projected column)."""
        sample_index = filter_.sample_index
        sample = self._samples[sample_index]
        constraints = {}
        keys = []
        for projection_index, (position, ref) in enumerate(
            zip(filter_.positions, filter_.query.projections)
        ):
            keys.append((sample_index, position, ref))
            cell = sample.cell(position)
            if cell is not None:
                constraints[projection_index] = cell
        return constraints, keys

    @property
    def max_join_size(self) -> int:
        """Largest join size among all filters (for normalisation)."""
        return self._max_join_size


class SchedulingPolicy(ABC):
    """Chooses which pending filter to validate next.

    A policy *ranks* filters: the pending filter with the smallest
    ``(rank, id)`` is validated next.  A rank is computed from the
    filter's :meth:`constants`, which are fixed for the run and computed
    once per filter (in id order, at the first selection), and from its
    current impact.  Impact only falls, and a rank must never fall with
    it; that is what lets :meth:`select` re-rank only the filter it pops.

    The default rank is ``pruning power / cost``, largest first, from
    constants ``(failure probability, cost)``.
    """

    name: str = "abstract"

    @abstractmethod
    def constants(self, filter_: Filter, context: _DriverContext) -> tuple:
        """The inputs of the filter's rank that stay fixed for the run."""

    def rank(self, constants: tuple, impact: int) -> tuple:
        """Where a filter with ``constants`` and ``impact`` stands in line;
        the smallest rank goes first."""
        failure_probability, cost = constants
        return (-(failure_probability * impact / cost),)

    def select(self, context: _DriverContext) -> Filter:
        """Pop the pending filter with the smallest ``(rank, id)``.

        Lazy greedy: a stored rank is never above the filter's current
        one, so a popped filter whose rank has not risen beats every
        other pending filter, and one whose rank rose goes back on the
        heap.  Only a rank that compares larger is pushed back, so ranks
        that do not compare (NaN) end the loop too.
        """
        if context.queue is None:
            filters = context.filter_set.filters
            context.constants = [self.constants(f, context) for f in filters]
            context.queue = [
                (self.rank(context.constants[f.id], context.impacts[f.id]), f.id)
                for f in filters
                if context.is_pending(f.id)
            ]
            heapq.heapify(context.queue)
        queue, constants, impacts = context.queue, context.constants, context.impacts
        while True:
            stored, filter_id = heapq.heappop(queue)
            if not context.is_pending(filter_id):
                continue
            rank = self.rank(constants[filter_id], impacts[filter_id])
            if rank > stored:
                heapq.heappush(queue, (rank, filter_id))
                continue
            return context.filter_set.filters[filter_id]


class NaivePolicy(SchedulingPolicy):
    """Validate full candidate queries directly, one at a time."""

    name = "naive"

    def constants(self, filter_: Filter, context: _DriverContext) -> tuple:
        return (filter_.id not in context.top_filter_ids,)

    def rank(self, constants: tuple, impact: int) -> tuple:
        # Top filters first, lowest id first.
        return constants


class PathLengthPolicy(SchedulingPolicy):
    """The "Filter" baseline: failure probability ∝ join-path length.

    As the prior-work reference point it ranks by the structural cost
    unit only — the sketch-informed cost is Prism's improvement and
    feeding it to the baseline would blur the comparison the paper
    makes (and can even push the baseline past the greedy oracle).
    """

    name = "filter"

    def constants(self, filter_: Filter, context: _DriverContext) -> tuple:
        denominator = context.max_join_size + 2.0
        failure_probability = (filter_.join_size + 1.0) / denominator
        return (failure_probability, context.structural_cost(filter_))


class BayesianPolicy(SchedulingPolicy):
    """Prism: failure probability from the Bayesian selectivity models."""

    name = "bayesian"

    def select(self, context: _DriverContext) -> Filter:
        if context.estimator is None:
            raise DiscoveryError("BayesianPolicy requires a trained estimator")
        return super().select(context)

    def constants(self, filter_: Filter, context: _DriverContext) -> tuple:
        constraints, keys = context.cells(filter_)
        failure_probability = context.estimator.failure_probability(
            filter_.query, constraints, context.estimates, keys
        )
        return (failure_probability, context.cost(filter_))


class OptimalPolicy(SchedulingPolicy):
    """Oracle scheduler: knows each filter's true outcome in advance.

    Greedy strategy: if some truly-failing filter can still prune undecided
    candidates, validate the one pruning the most (cheapest on ties);
    otherwise validate the top filter of an undecided candidate (which will
    pass and confirm it).  This is the reference "optimum" of §2.4.
    """

    name = "optimal"

    def constants(self, filter_: Filter, context: _DriverContext) -> tuple:
        return (
            not context.validator.peek(filter_),
            filter_.id in context.top_filter_ids,
            context.structural_cost(filter_),
        )

    def rank(self, constants: tuple, impact: int) -> tuple:
        fails, is_top, cost = constants
        if fails:
            return (0, -impact, cost)
        return (1 if is_top else 2, cost)


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

    Each decision pops one filter from the policy's lazy-greedy heap
    (:meth:`SchedulingPolicy.select`), validates it, and settles the
    outcomes it implies: a pass passes the filter's containment
    descendants and confirms the candidates whose top filters have all
    passed; a failure fails its ancestors and prunes its candidates.
    Impact, pending filters and undecided candidates are counts updated
    along the way, so a decision costs the outcomes it settles plus
    heap work, not a pass over every filter and candidate.

    When ``batch`` is enabled (the default), each time the policy picks a
    filter with at least one join, every other pending filter sharing the
    chosen filter's join structure (its *join prefix*,
    :func:`~repro.query.plan.join_prefix_key`, set on each filter's
    sub-query when it was built) is handed to the validator as a
    batch-mate: one streamed pass over the shared join decides all of
    them (:meth:`FilterValidator.validate_batch`), and batch-mates the
    policy picks later resolve from the validator cache.  Filters are
    grouped by that key rather than by :attr:`Filter.shape`: two foreign
    keys naming one edge in opposite directions share a key, not a
    shape.  Scheduling order, validation counts and discovery results
    are bit-for-bit identical to the unbatched path — only the executor
    work is shared.
    """

    def __init__(
        self,
        filter_set: FilterSet,
        validator: FilterValidator,
        policy: SchedulingPolicy,
        estimator: Optional[SelectivityEstimator] = None,
        deadline: Optional[float] = None,
        batch: bool = True,
        max_validations: Optional[int] = None,
        planner: Optional[Planner] = None,
    ):
        self._filter_set = filter_set
        self._validator = validator
        self._policy = policy
        self._estimator = estimator
        self._deadline = deadline
        self._batch = batch
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

        result = SchedulingResult(scheduler_name=self._policy.name)
        context = _DriverContext(
            filter_set, spec, self._estimator, self._validator, self._planner
        )
        # Filters sharing one join structure, grouped once up front —
        # the candidates for each batched validation pass.
        prefix_groups: dict[tuple, list[Filter]] = {}
        if self._batch:
            for filter_ in filter_set.filters:
                prefix_groups.setdefault(join_prefix_key(filter_.query), []).append(
                    filter_
                )

        if not spec.samples:
            # Metadata-only specs have nothing to validate: every candidate
            # already satisfies the (column-level) constraints by construction.
            result.confirmed_candidate_ids = sorted(context.candidate_state)
            result.elapsed_seconds = time.monotonic() - started
            return result

        while context.num_undecided:
            if self._deadline is not None and time.monotonic() > self._deadline:
                result.timed_out = True
                break
            if (
                self._max_validations is not None
                and result.validations >= self._max_validations
            ):
                result.timed_out = True
                break
            if not context.num_pending:
                break
            chosen = self._policy.select(context)
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
                    and context.is_pending(filter_.id)
                ]
                outcome = self._validator.validate_batch(
                    chosen, peers[: BATCH_SIZE - 1]
                )
            else:
                outcome = self._validator.validate(chosen)
            context.settle(chosen.id, outcome)
            # Count scheduling decisions, not executor work: the oracle's
            # free peeks and validator cache hits must not distort the
            # number of validations a policy is charged for.
            result.validations += 1

            # A pass passes every filter the chosen one contains; a
            # failure fails every filter containing it.
            implied = (
                filter_set.descendants(chosen.id)
                if outcome
                else filter_set.ancestors(chosen.id)
            )
            for filter_id in implied:
                if context.outcomes[filter_id] is None:
                    context.settle(filter_id, outcome)
                    result.implied_outcomes += 1
            if not outcome:
                for candidate_id in chosen.candidate_ids:
                    if context.candidate_state.get(candidate_id) == "undecided":
                        context.decide(candidate_id, "pruned")

        states = context.candidate_state
        result.confirmed_candidate_ids = sorted(
            candidate_id for candidate_id, state in states.items()
            if state == "confirmed"
        )
        result.pruned_candidate_ids = sorted(
            candidate_id for candidate_id, state in states.items()
            if state == "pruned"
        )
        result.elapsed_seconds = time.monotonic() - started
        return result
