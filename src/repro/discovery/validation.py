"""Filter validation against the source database.

A filter passes when the result of its sub-PJ-query contains at least one
row satisfying the sample constraint's cells at the filter's positions.
The validator hands those cell constraints to the executor (which pushes
them down as column masks before deciding the join with a semijoin
sweep) and caches outcomes so a filter is never executed twice.

Validation can be **batched across candidates**: filters whose sub-queries
share one join structure (same tables, same edges —
:func:`~repro.query.plan.join_prefix_key`) are decided together by
:meth:`~repro.query.executor.Executor.exists_batch`, which plans the
shared structure once and shares pushdown scans, Bloom checks and edge
kernels across the filters' probes.  Outcomes are bit-for-bit identical
to the per-candidate path; only the join work is shared.  The scheduling layer
(:class:`~repro.discovery.scheduler.ValidationDriver`) still chooses and
counts filters one at a time, so validation counts are unaffected —
batch-mates decided early simply become validator cache hits when the
policy later picks them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.constraints.spec import MappingSpec
from repro.discovery.filters import Filter
from repro.query.executor import BatchProbe, Executor
from repro.query.plan import join_prefix_key

__all__ = ["FilterValidator", "ValidationStats"]


@dataclass
class ValidationStats:
    """Counters kept by a :class:`FilterValidator`."""

    validations: int = 0
    cache_hits: int = 0
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
    """Executes filters and caches their pass/fail outcomes."""

    def __init__(self, executor: Executor, spec: MappingSpec):
        self._executor = executor
        self._spec = spec
        self._cache: dict[tuple, bool] = {}
        self.stats = ValidationStats()

    def _cache_key(self, filter_: Filter) -> tuple:
        return (
            filter_.sample_index,
            filter_.positions,
            filter_.query.signature(),
        )

    def _probe(self, filter_: Filter) -> BatchProbe:
        """The executor probe deciding ``filter_``.

        Its cell constraints are the sample's, keyed by projection
        position.  Its memo key is the canonical (query, constraints)
        signature: unlike :meth:`_cache_key`, it keys on the *constraint
        contents* rather than the sample index, so identical probes are
        shared across samples, validators and discovery runs on one
        executor.
        """
        sample = self._spec.samples[filter_.sample_index]
        constraints = {
            projection_index: constraint
            for projection_index, position in enumerate(filter_.positions)
            if (constraint := sample.cell(position)) is not None
        }
        return BatchProbe(
            query=filter_.query,
            cell_predicates=constraints,
            cache_key=(filter_.query.signature(), tuple(constraints.items())),
        )

    def validate(self, filter_: Filter) -> bool:
        """Validate ``filter_`` (counted; cached)."""
        key = self._cache_key(filter_)
        if key in self._cache:
            self.stats.cache_hits += 1
            return self._cache[key]
        outcome = self._execute(filter_)
        self._cache[key] = outcome
        self.stats.record(outcome)
        return outcome

    def validate_batch(
        self, filter_: Filter, peers: Sequence[Filter] = ()
    ) -> bool:
        """Validate ``filter_``, deciding same-structure peers on the side.

        ``peers`` are other filters the caller expects to need soon
        (typically every pending filter sharing ``filter_``'s join
        prefix).  Peers whose sub-query does not actually share the join
        structure, or whose outcome is already cached, are skipped.  All
        computed outcomes — the requested filter's and every batched
        peer's — land in the validator cache and the executor memo, so a
        later :meth:`validate` of a peer is a cache hit.

        Only the requested filter is recorded in
        :attr:`ValidationStats.validations`; peers are counted under
        :attr:`ValidationStats.batched_outcomes`.
        """
        key = self._cache_key(filter_)
        if key in self._cache:
            self.stats.cache_hits += 1
            return self._cache[key]
        prefix = join_prefix_key(filter_.query)
        batch = [filter_]
        seen = {key}
        for peer in peers:
            peer_key = self._cache_key(peer)
            if peer_key in seen or peer_key in self._cache:
                continue
            if join_prefix_key(peer.query) != prefix:
                continue
            seen.add(peer_key)
            batch.append(peer)
        if len(batch) == 1:
            outcome = self._execute(filter_)
            self._cache[key] = outcome
            self.stats.record(outcome)
            return outcome
        # Constraints hash and compare by content, so the executor scans
        # each column once per distinct constraint across the batch.
        outcomes = self._executor.exists_batch(
            [self._probe(member) for member in batch]
        )
        self.stats.batches += 1
        self.stats.batched_outcomes += len(batch) - 1
        for member, outcome in zip(batch, outcomes):
            self._cache[self._cache_key(member)] = outcome
        self.stats.record(outcomes[0])
        return outcomes[0]

    def peek(self, filter_: Filter) -> bool:
        """Validate without counting (used by the optimal oracle)."""
        key = self._cache_key(filter_)
        if key in self._cache:
            return self._cache[key]
        outcome = self._execute(filter_)
        self._cache[key] = outcome
        return outcome

    def _execute(self, filter_: Filter) -> bool:
        probe = self._probe(filter_)
        return self._executor.exists(
            probe.query,
            cell_predicates=probe.cell_predicates,
            cache_key=probe.cache_key,
        )

    @property
    def validations_performed(self) -> int:
        """Number of counted (non-cached) validations performed so far."""
        return self.stats.validations
