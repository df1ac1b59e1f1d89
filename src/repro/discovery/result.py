"""Discovery results and statistics."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.discovery.candidates import CandidateQuery
from repro.query.pj_query import ProjectJoinQuery
from repro.query.sql import to_sql

__all__ = ["DiscoveryStats", "DiscoveryResult"]


@dataclass
class DiscoveryStats:
    """Quantitative record of one discovery run.

    These are the numbers the evaluation harness aggregates: related-column
    counts, candidate/filter counts, the number of filter validations the
    scheduler actually paid for, implied (free) outcomes, and wall-clock
    time split by pipeline stage.

    ``exists_cache_hits`` counts the validations the validator's outcome
    cache answered without executing, and ``exists_cache_misses`` the
    probes executed because it lacked them (batch-mates and the optimal
    policy's peeks included).  The cache is keyed by probe content and
    kept by the engine's executor for one artifact key, so a repeated
    ``discover()`` on one engine executes nothing it already decided.

    No counter depends on how warm the engine's artifact bundle is.
    ``plan_cache_builds`` counts the engine's first plan of each join
    structure, ``plan_cache_hits`` its later plan lookups, and
    ``sketch_estimates_used`` the sketched joins of those structures'
    ordering passes, whether the bundle's shared executor cache already
    held a plan and pass or the round built them.  So one spec gives the
    same counters on a cold and a warm bundle, and on every shard.

    ``join_index_hits`` and ``join_index_builds`` are always 0: the
    executor no longer builds join indexes.  They stay because the v1
    wire format checks its stats fields strictly and the end-to-end
    benchmark runner still reads them.
    """

    scheduler_name: str = "bayesian"
    num_related_columns: int = 0
    num_candidates: int = 0
    num_filters: int = 0
    validations: int = 0
    implied_outcomes: int = 0
    num_confirmed: int = 0
    num_pruned: int = 0
    exists_cache_hits: int = 0
    exists_cache_misses: int = 0
    join_index_hits: int = 0
    join_index_builds: int = 0
    joins_performed: int = 0
    plan_cache_hits: int = 0
    plan_cache_builds: int = 0
    bloom_rejections: int = 0
    sketch_estimates_used: int = 0
    validation_batches: int = 0
    batched_outcomes: int = 0
    elapsed_seconds: float = 0.0
    related_column_seconds: float = 0.0
    candidate_seconds: float = 0.0
    validation_seconds: float = 0.0
    timed_out: bool = False

    def as_dict(self) -> dict:
        """Plain-dict view used by reports and benchmarks."""
        return {
            "scheduler": self.scheduler_name,
            "related_columns": self.num_related_columns,
            "candidates": self.num_candidates,
            "filters": self.num_filters,
            "validations": self.validations,
            "implied_outcomes": self.implied_outcomes,
            "confirmed": self.num_confirmed,
            "pruned": self.num_pruned,
            "exists_cache_hits": self.exists_cache_hits,
            "exists_cache_misses": self.exists_cache_misses,
            "join_index_hits": self.join_index_hits,
            "join_index_builds": self.join_index_builds,
            "joins_performed": self.joins_performed,
            "plan_cache_hits": self.plan_cache_hits,
            "plan_cache_builds": self.plan_cache_builds,
            "bloom_rejections": self.bloom_rejections,
            "sketch_estimates_used": self.sketch_estimates_used,
            "validation_batches": self.validation_batches,
            "batched_outcomes": self.batched_outcomes,
            "elapsed_seconds": self.elapsed_seconds,
            "related_column_seconds": self.related_column_seconds,
            "candidate_seconds": self.candidate_seconds,
            "validation_seconds": self.validation_seconds,
            "timed_out": self.timed_out,
        }


@dataclass
class DiscoveryResult:
    """The queries Prism returns, plus how it found them."""

    queries: list[ProjectJoinQuery] = field(default_factory=list)
    candidates: list[CandidateQuery] = field(default_factory=list)
    stats: DiscoveryStats = field(default_factory=DiscoveryStats)

    @property
    def num_queries(self) -> int:
        """Number of satisfying schema mapping queries discovered."""
        return len(self.queries)

    @property
    def is_empty(self) -> bool:
        """Whether no satisfying query was found."""
        return not self.queries

    @property
    def timed_out(self) -> bool:
        """Whether the run hit its interactive time limit."""
        return self.stats.timed_out

    def best(self) -> Optional[ProjectJoinQuery]:
        """The first (smallest-join) satisfying query, if any."""
        return self.queries[0] if self.queries else None

    def sql(self) -> list[str]:
        """All satisfying queries rendered as SQL strings."""
        return [to_sql(query) for query in self.queries]

    def describe(self) -> str:
        """Human-readable summary used by the CLI and examples."""
        lines = [
            f"{self.num_queries} satisfying schema mapping "
            f"quer{'y' if self.num_queries == 1 else 'ies'} "
            f"({self.stats.validations} filter validations, "
            f"{self.stats.elapsed_seconds:.2f}s"
            f"{', TIMED OUT' if self.timed_out else ''})",
        ]
        for index, query in enumerate(self.queries, start=1):
            lines.append(f"  [{index}] {to_sql(query)}")
        return "\n".join(lines)
