"""Filter validation against the source database.

A filter passes when the result of its sub-PJ-query contains at least one
row satisfying the sample constraint's cells at the filter's positions.
The validator hands those cell constraints to the executor (which pushes
them down as column masks before deciding the join with a semijoin
sweep) and caches outcomes so a probe is never executed twice.  The
cache is keyed by probe content (sub-query signature and constraints,
not the sample they came from) and lives in the executor's
:attr:`~repro.query.executor.Executor.outcomes`, so identical probes are
shared across samples, validators and ``discover()`` runs on one
executor until the database's artifact key moves.  A sub-query computes
its signature once, and a constraint its hash once, however many probes
key on them.

Each filter is validated on its own, when the scheduling layer
(:class:`~repro.discovery.scheduler.ValidationDriver`) chooses it, so
the executor runs exactly the probes the policy asks for.  Inside one
``discover()`` call the probes still share work: the call runs in
:meth:`~repro.query.executor.Executor.round`, which scans each (table,
column, constraint) once, and probes over one join structure share its
cached plan and edge kernels.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.constraints.spec import MappingSpec
from repro.constraints.values import ValueConstraint
from repro.discovery.filters import Filter
from repro.query.executor import Executor

__all__ = ["FilterValidator", "ValidationStats"]

#: Bound on the outcome cache, so a long-lived engine over a static
#: database cannot grow it without bound; oldest entries are evicted first.
MAX_CACHED_OUTCOMES = 100_000


@dataclass
class ValidationStats:
    """Counters kept by a :class:`FilterValidator`."""

    validations: int = 0
    #: Validations the outcome cache answered without executing.
    cache_hits: int = 0
    #: Probes executed because the cache lacked their outcome:
    #: validations and peeks alike.
    cache_misses: int = 0
    passed: int = 0
    failed: int = 0

    def record(self, outcome: bool) -> None:
        """Record one (uncached) validation outcome."""
        self.validations += 1
        if outcome:
            self.passed += 1
        else:
            self.failed += 1


class FilterValidator:
    """Executes filters and caches their pass/fail outcomes in the
    executor's :attr:`~repro.query.executor.Executor.outcomes`."""

    def __init__(self, executor: Executor, spec: MappingSpec):
        self._executor = executor
        self._spec = spec
        self.stats = ValidationStats()

    def validate(self, filter_: Filter) -> bool:
        """Validate ``filter_`` (counted; cached)."""
        key, constraints = self._probe(filter_)
        outcomes = self._executor.outcomes
        if key in outcomes:
            self.stats.cache_hits += 1
            return outcomes[key]
        outcome = self._execute(filter_, constraints)
        self._store(outcomes, key, outcome)
        self.stats.record(outcome)
        return outcome

    def peek(self, filter_: Filter) -> bool:
        """Validate without counting (used by the optimal oracle)."""
        key, constraints = self._probe(filter_)
        outcomes = self._executor.outcomes
        if key not in outcomes:
            self._store(outcomes, key, self._execute(filter_, constraints))
        return outcomes[key]

    def _probe(
        self, filter_: Filter
    ) -> tuple[tuple, dict[int, ValueConstraint]]:
        """The executor probe deciding ``filter_`` — the sample's cell
        constraints, keyed by projection position — and its cache key:
        the probe's content, whichever sample it came from."""
        sample = self._spec.samples[filter_.sample_index]
        constraints = {
            projection_index: constraint
            for projection_index, position in enumerate(filter_.positions)
            if (constraint := sample.cell(position)) is not None
        }
        key = (filter_.query.signature(), tuple(constraints.items()))
        return key, constraints

    def _store(self, outcomes: dict, key: tuple, outcome: bool) -> None:
        """Cache one executed outcome, evicting the oldest beyond the
        bound."""
        if len(outcomes) >= MAX_CACHED_OUTCOMES:
            del outcomes[next(iter(outcomes))]
        outcomes[key] = outcome
        self.stats.cache_misses += 1

    def _execute(
        self, filter_: Filter, constraints: dict[int, ValueConstraint]
    ) -> bool:
        return self._executor.exists(filter_.query, constraints)

    @property
    def validations_performed(self) -> int:
        """Number of counted (non-cached) validations performed so far."""
        return self.stats.validations
