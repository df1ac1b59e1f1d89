"""Join-indicator models across relations.

Learning a model that captures correlations *across* relations is harder
than learning one per relation; the paper solves it "using the join
indicator introduced by Getoor et al." (§2.3, citing SIGMOD 2001).  The
join indicator J for a foreign-key edge is a binary variable that is true
when a pair of rows (one from each relation) actually joins.  We estimate
``P(J = 1)`` from the key-value frequency distributions of both sides,
along with the expected fan-out used to size join results.
"""

from __future__ import annotations

from collections import Counter

from repro.dataset.database import Database
from repro.dataset.index import normalize_term
from repro.dataset.schema import ForeignKey
from repro.errors import TrainingError

__all__ = ["JoinIndicatorModel"]


class JoinIndicatorModel:
    """Selectivity statistics for one foreign-key join edge.

    Fitted models retain their sufficient statistics — the normalized
    key-value frequency counters of both sides plus the two row counts —
    so appended rows can be folded in incrementally
    (:meth:`apply_delta`) with the derived probabilities recomputed
    through exactly the same arithmetic as a from-scratch fit.
    """

    def __init__(
        self,
        foreign_key: ForeignKey,
        join_probability: float,
        expected_join_size: float,
        child_match_fraction: float,
        parent_match_fraction: float,
    ):
        self.foreign_key = foreign_key
        self.join_probability = join_probability
        self.expected_join_size = expected_join_size
        self.child_match_fraction = child_match_fraction
        self.parent_match_fraction = parent_match_fraction
        # Sufficient statistics; populated by fit(), absent on
        # hand-constructed models (which then cannot apply deltas).
        self._child_counts: Counter | None = None
        self._parent_counts: Counter | None = None
        self._child_rows = 0
        self._parent_rows = 0

    @classmethod
    def fit(cls, database: Database, foreign_key: ForeignKey) -> "JoinIndicatorModel":
        """Estimate the join-indicator statistics for one edge."""
        child = database.table(foreign_key.child_table)
        parent = database.table(foreign_key.parent_table)
        # Aggregate over the backend's distinct-value counts so each value
        # is normalized once, not once per row.
        child_counts: Counter = Counter()
        for value, count in child.value_counts(foreign_key.child_column).items():
            child_counts[normalize_term(value)] += count
        parent_counts: Counter = Counter()
        for value, count in parent.value_counts(foreign_key.parent_column).items():
            parent_counts[normalize_term(value)] += count
        return cls._from_statistics(
            foreign_key, child_counts, parent_counts,
            child.num_rows, parent.num_rows,
        )

    @classmethod
    def _from_statistics(
        cls,
        foreign_key: ForeignKey,
        child_counts: Counter,
        parent_counts: Counter,
        child_rows: int,
        parent_rows: int,
    ) -> "JoinIndicatorModel":
        """Build a model from sufficient statistics (the single place the
        derived probabilities are computed, shared by fit and refresh)."""
        model = cls(foreign_key, 0.0, 0.0, 0.0, 0.0)
        model._child_counts = child_counts
        model._parent_counts = parent_counts
        model._child_rows = child_rows
        model._parent_rows = parent_rows
        model._recompute()
        return model

    def _recompute(self) -> None:
        """Derive the probabilities from the sufficient statistics."""
        child_counts = self._child_counts
        parent_counts = self._parent_counts
        total_pairs = self._child_rows * self._parent_rows
        if total_pairs == 0:
            self.join_probability = 0.0
            self.expected_join_size = 0.0
            self.child_match_fraction = 0.0
            self.parent_match_fraction = 0.0
            return

        join_size = 0
        matched_child_rows = 0
        matched_parent_rows = 0
        for value, child_count in child_counts.items():
            parent_count = parent_counts.get(value, 0)
            if parent_count:
                join_size += child_count * parent_count
                matched_child_rows += child_count
        for value, parent_count in parent_counts.items():
            if value in child_counts:
                matched_parent_rows += parent_count

        self.join_probability = join_size / total_pairs
        self.expected_join_size = float(join_size)
        self.child_match_fraction = (
            matched_child_rows / self._child_rows if self._child_rows else 0.0
        )
        self.parent_match_fraction = (
            matched_parent_rows / self._parent_rows if self._parent_rows else 0.0
        )

    # ------------------------------------------------------------------
    # Incremental maintenance
    # ------------------------------------------------------------------
    def apply_delta(
        self,
        child_values,
        parent_values,
        child_rows: "int | None" = None,
        parent_rows: "int | None" = None,
    ) -> None:
        """Fold appended key values of either side into the model.

        ``child_values``/``parent_values`` are the non-NULL key cells
        appended to each side (empty when that side did not change);
        ``child_rows``/``parent_rows`` are the post-delta row counts
        (``None`` keeps the side's current count).  The counters are
        exact, so the recomputed probabilities equal a from-scratch fit
        bit-for-bit.  Raises :class:`~repro.errors.TrainingError` when
        the model lacks its sufficient statistics (hand-built models).
        """
        if self._child_counts is None or self._parent_counts is None:
            raise TrainingError(
                f"join model for {self.foreign_key} carries no sufficient "
                "statistics; refit it"
            )
        for value, count in Counter(child_values).items():
            self._child_counts[normalize_term(value)] += count
        for value, count in Counter(parent_values).items():
            self._parent_counts[normalize_term(value)] += count
        if child_rows is not None:
            self._child_rows = child_rows
        if parent_rows is not None:
            self._parent_rows = parent_rows
        self._recompute()

    @staticmethod
    def key(foreign_key: ForeignKey) -> tuple[str, str, str, str]:
        """Canonical dictionary key for an edge (direction preserved)."""
        return (
            foreign_key.child_table,
            foreign_key.child_column,
            foreign_key.parent_table,
            foreign_key.parent_column,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"JoinIndicatorModel({self.foreign_key}, "
            f"p_join={self.join_probability:.3g}, "
            f"size={self.expected_join_size:.1f})"
        )
