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

Validation can be **batched across candidates**: filters whose sub-queries
share one join structure (same tables, same edges —
:func:`~repro.query.plan.join_prefix_key`, which every filter's
sub-query carries from :func:`~repro.discovery.filters.build_filters`)
are decided together by
:meth:`~repro.query.executor.Executor.exists_batch`, which plans the
shared structure once and shares pushdown scans, Bloom checks and edge
kernels across the filters' probes.  Outcomes are bit-for-bit identical
to the per-candidate path; only the join work is shared.  The scheduling layer
(:class:`~repro.discovery.scheduler.ValidationDriver`) still chooses and
counts filters one at a time, so validation counts are unaffected —
batch-mates decided early simply become cache hits when the policy later
picks them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.constraints.spec import MappingSpec
from repro.discovery.filters import Filter
from repro.query.executor import BatchProbe, Executor
from repro.query.plan import join_prefix_key

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
    #: validations, batch-mates and peeks alike.
    cache_misses: int = 0
    passed: int = 0
    failed: int = 0
    #: Batched executor passes issued (each decided >= 2 filters at once).
    batches: int = 0
    #: Outcomes computed for batch-mates beyond the requested filter.
    batched_outcomes: int = 0

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
        return self._validate(filter_, ())

    def validate_batch(
        self, filter_: Filter, peers: Sequence[Filter] = ()
    ) -> bool:
        """Validate ``filter_``, deciding same-structure peers on the side.

        ``peers`` are other filters the caller expects to need soon
        (typically every pending filter sharing ``filter_``'s join
        prefix).  Peers whose sub-query does not actually share the join
        structure, or whose outcome is already cached, are skipped.  All
        computed outcomes — the requested filter's and every batched
        peer's — land in the outcome cache, so a later :meth:`validate`
        of a peer is a cache hit.

        Only the requested filter is recorded in
        :attr:`ValidationStats.validations`; peers are counted under
        :attr:`ValidationStats.batched_outcomes`.
        """
        return self._validate(filter_, peers)

    def peek(self, filter_: Filter) -> bool:
        """Validate without counting (used by the optimal oracle)."""
        key, __ = self._probe(filter_)
        outcomes = self._executor.outcomes
        if key not in outcomes:
            self._store(outcomes, key, self._execute(filter_))
        return outcomes[key]

    def _validate(self, filter_: Filter, peers: Sequence[Filter]) -> bool:
        key, probe = self._probe(filter_)
        outcomes = self._executor.outcomes
        if key in outcomes:
            self.stats.cache_hits += 1
            return outcomes[key]
        prefix = join_prefix_key(filter_.query)
        batch = {key: probe}
        for peer in peers:
            peer_key, peer_probe = self._probe(peer)
            if (
                peer_key not in batch
                and peer_key not in outcomes
                and join_prefix_key(peer.query) == prefix
            ):
                batch[peer_key] = peer_probe
        if len(batch) == 1:
            decided = [self._execute(filter_)]
        else:
            # Constraints hash and compare by content, so the executor
            # scans each column once per distinct constraint across the
            # batch.
            decided = self._executor.exists_batch(list(batch.values()))
            self.stats.batches += 1
            self.stats.batched_outcomes += len(batch) - 1
        for member_key, outcome in zip(batch, decided):
            self._store(outcomes, member_key, outcome)
        self.stats.record(decided[0])
        return decided[0]

    def _probe(self, filter_: Filter) -> tuple[tuple, BatchProbe]:
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
        return key, BatchProbe(filter_.query, constraints)

    def _store(self, outcomes: dict, key: tuple, outcome: bool) -> None:
        """Cache one executed outcome, evicting the oldest beyond the
        bound."""
        if len(outcomes) >= MAX_CACHED_OUTCOMES:
            del outcomes[next(iter(outcomes))]
        outcomes[key] = outcome
        self.stats.cache_misses += 1

    def _execute(self, filter_: Filter) -> bool:
        __, probe = self._probe(filter_)
        return self._executor.exists(probe.query, probe.cell_predicates)

    @property
    def validations_performed(self) -> int:
        """Number of counted (non-cached) validations performed so far."""
        return self.stats.validations
