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
from typing import Any, Mapping

from repro.dataset.database import Database
from repro.dataset.index import normalize_term
from repro.dataset.schema import ForeignKey
from repro.errors import TrainingError

__all__ = ["JoinIndicatorModel"]


class JoinIndicatorModel:
    """Selectivity statistics for one foreign-key join edge.

    A fitted model keeps its sufficient statistics: the normalized
    key-value counts of both sides, the two row counts, and three
    integer sums over the keys — the join size ``Σ c·p``, the matched
    child rows ``Σ c·[p>0]`` and the matched parent rows ``Σ p·[c>0]``,
    where ``c`` and ``p`` are one key's child and parent counts.  The
    four probabilities are derived from those integers alone.

    In a trained model set the two count maps are not the model's own:
    they are the ``frequencies`` of the key columns' relation-model
    distributions, which hold the same normalized counts, so each count
    has one owner.  :meth:`apply_delta` then reads the counts after the
    relation models folded an append and updates the sums for the keys
    the append touched.
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
        # Sufficient statistics; populated by from_counts(), absent on
        # hand-constructed models (which then cannot apply deltas).
        self._child_counts: Mapping[str, int] | None = None
        self._parent_counts: Mapping[str, int] | None = None
        self._child_rows = 0
        self._parent_rows = 0
        self._join_size = 0
        self._matched_child_rows = 0
        self._matched_parent_rows = 0

    @classmethod
    def fit(cls, database: Database, foreign_key: ForeignKey) -> "JoinIndicatorModel":
        """Estimate the join-indicator statistics for one edge from the
        tables' own key counts (a cold fit)."""
        child = database.table(foreign_key.child_table)
        parent = database.table(foreign_key.parent_table)
        return cls.from_counts(
            foreign_key,
            _normalized_counts(child.value_counts(foreign_key.child_column)),
            _normalized_counts(parent.value_counts(foreign_key.parent_column)),
            child.num_rows, parent.num_rows,
        )

    @classmethod
    def from_counts(
        cls,
        foreign_key: ForeignKey,
        child_counts: Mapping[str, int],
        parent_counts: Mapping[str, int],
        child_rows: int,
        parent_rows: int,
    ) -> "JoinIndicatorModel":
        """Build a model over normalized key counts, kept by reference.

        The one place the three sums are computed over every key; later
        appends update them key by key (:meth:`apply_delta`).
        """
        model = cls(foreign_key, 0.0, 0.0, 0.0, 0.0)
        model._child_counts = child_counts
        model._parent_counts = parent_counts
        model._child_rows = child_rows
        model._parent_rows = parent_rows
        for value, child_count in child_counts.items():
            parent_count = parent_counts.get(value, 0)
            if parent_count:
                model._join_size += child_count * parent_count
                model._matched_child_rows += child_count
                model._matched_parent_rows += parent_count
        model._derive()
        return model

    def _derive(self) -> None:
        """Derive the probabilities from the integer sums."""
        total_pairs = self._child_rows * self._parent_rows
        if total_pairs == 0:
            self.join_probability = 0.0
            self.expected_join_size = 0.0
            self.child_match_fraction = 0.0
            self.parent_match_fraction = 0.0
            return
        self.join_probability = self._join_size / total_pairs
        self.expected_join_size = float(self._join_size)
        self.child_match_fraction = self._matched_child_rows / self._child_rows
        self.parent_match_fraction = (
            self._matched_parent_rows / self._parent_rows
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
        """Update the sums for the keys an append touched.

        The count maps must already hold the appended keys: in a model
        set they are the relation models' distributions, which
        :meth:`BayesianModelSet.apply_delta` folds first.
        ``child_values``/``parent_values`` are the non-NULL key cells
        appended to each side (empty when that side did not change);
        ``child_rows``/``parent_rows`` are the post-delta row counts
        (``None`` keeps the side's current count).  Each touched key's
        old terms, from its counts minus the appended ones, are
        replaced by its new terms, so the work is O(delta) and the sums
        equal a cold fit's exactly.  Raises
        :class:`~repro.errors.TrainingError` when the model lacks its
        sufficient statistics (hand-built models).
        """
        child_counts = self._child_counts
        parent_counts = self._parent_counts
        if child_counts is None or parent_counts is None:
            raise TrainingError(
                f"join model for {self.foreign_key} carries no sufficient "
                "statistics; refit it"
            )
        child_added = Counter(map(normalize_term, child_values))
        parent_added = Counter(map(normalize_term, parent_values))
        for value in child_added.keys() | parent_added.keys():
            child_count = child_counts.get(value, 0)
            parent_count = parent_counts.get(value, 0)
            old_child = child_count - child_added.get(value, 0)
            old_parent = parent_count - parent_added.get(value, 0)
            self._join_size += (
                child_count * parent_count - old_child * old_parent
            )
            if parent_count:
                self._matched_child_rows += child_count
            if old_parent:
                self._matched_child_rows -= old_child
            if child_count:
                self._matched_parent_rows += parent_count
            if old_child:
                self._matched_parent_rows -= old_parent
        if child_rows is not None:
            self._child_rows = child_rows
        if parent_rows is not None:
            self._parent_rows = parent_rows
        self._derive()

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


def _normalized_counts(value_counts: Mapping[Any, int]) -> Counter:
    """Counts per normalized key, as a distribution keeps them: each
    distinct value is normalized once."""
    counts: Counter = Counter()
    for value, count in value_counts.items():
        counts[normalize_term(value)] += count
    return counts
