"""Per-column value distributions.

A :class:`ColumnDistribution` summarises one column of one relation:
frequencies of (case-folded) values plus the multiset of values of a
numeric column.  It answers the question the Bayesian scheduler keeps asking:
*what is the probability that a uniformly random row of this relation
satisfies a given value constraint on this column?*
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Optional, Sequence

import numpy as np

from repro.constraints.values import (
    AnyValue,
    Conjunction,
    Disjunction,
    ExactValue,
    OneOf,
    Predicate,
    Range,
    ValueConstraint,
)
from repro.dataset.index import normalize_term
from repro.dataset.types import DataType, to_float

__all__ = ["ColumnDistribution"]

_UNSEEN_PROBABILITY = 0.5  # chance assigned to a keyword never seen in the column


class ColumnDistribution:
    """Value statistics of a single column used for selectivity estimation."""

    def __init__(
        self,
        column_name: str,
        data_type: DataType,
        values: Sequence[Any],
    ):
        # One pair per row: no hashing of raw values, so cross-type-equal
        # values (True == 1 == 1.0) and unhashable values behave exactly as
        # in a row-wise fit.
        self._init_from_pairs(
            column_name,
            data_type,
            len(values),
            [(value, 1) for value in values if value is not None],
        )

    @classmethod
    def from_counts(
        cls,
        column_name: str,
        data_type: DataType,
        row_count: int,
        value_counts: dict[Any, int],
    ) -> "ColumnDistribution":
        """Build a distribution from per-distinct-value counts.

        This is the columnar fast path used by model training: per-value
        work (normalizing, tokenizing) runs once per distinct value, with
        counts supplying the multiplicities.  The result is equivalent to
        fitting on the expanded value sequence.
        """
        self = cls.__new__(cls)
        self._init_from_pairs(
            column_name, data_type, row_count, list(value_counts.items())
        )
        return self

    def _init_from_pairs(
        self,
        column_name: str,
        data_type: DataType,
        row_count: int,
        pairs: list[tuple[Any, int]],
    ) -> None:
        """The single fit implementation: (non-NULL value, count) pairs."""
        self.column_name = column_name
        self.data_type = data_type
        self.row_count = row_count
        self.non_null_count = sum(count for __, count in pairs)
        self.null_fraction = (
            1.0 - self.non_null_count / row_count if row_count else 0.0
        )
        self._frequencies: Counter = Counter()
        self._token_frequencies: Counter = Counter()
        # _numeric is a multiset (order is never observed): values expanded
        # by their counts.
        self._numeric: Optional[np.ndarray] = None
        self._fold_pairs(pairs)

    def _fold_pairs(self, pairs: list[tuple[Any, int]]) -> None:
        """Accumulate (non-NULL value, count) pairs into the frequency
        counters and the numeric multiset.

        Both the cold fit and :meth:`apply_delta` run this one fold, so a
        refreshed distribution cannot diverge from a rebuilt one.
        """
        for value, count in pairs:
            key = normalize_term(value)
            self._frequencies[key] += count
            if self.data_type is DataType.TEXT:
                for token in str(value).casefold().split():
                    token_key = normalize_term(token)
                    if token_key != key:
                        self._token_frequencies[token_key] += count
        if self.data_type.is_numeric and pairs:
            appended = np.repeat(
                np.asarray([to_float(value) for value, __ in pairs]),
                np.asarray([count for __, count in pairs], dtype=np.int64),
            )
            self._numeric = (
                appended if self._numeric is None
                else np.concatenate([self._numeric, appended])
            )

    @property
    def frequencies(self) -> Counter:
        """Row count per normalized whole value (NULLs excluded).

        The live counter, shared with the join models over this column:
        treat it as read-only.
        """
        return self._frequencies

    # ------------------------------------------------------------------
    # Incremental maintenance
    # ------------------------------------------------------------------
    def apply_delta(
        self, pairs: list[tuple[Any, int]], added_rows: int
    ) -> None:
        """Fold appended rows into the distribution in place.

        ``pairs`` are (non-NULL value, count) pairs covering the appended
        rows; ``added_rows`` is the total number of appended rows
        including NULLs.  Frequencies and counts come out identical to a
        from-scratch fit over the grown column (Counter addition is
        exact), and the numeric multiset grows by the appended values, so
        range probabilities match a cold fit bit-for-bit.
        """
        self.row_count += added_rows
        self.non_null_count += sum(count for __, count in pairs)
        self.null_fraction = (
            1.0 - self.non_null_count / self.row_count if self.row_count else 0.0
        )
        self._fold_pairs(pairs)

    # ------------------------------------------------------------------
    # Elementary probabilities
    # ------------------------------------------------------------------
    def value_probability(self, value: Any) -> float:
        """P(a random row's cell matches ``value``), keyword semantics."""
        if self.row_count == 0:
            return 0.0
        key = normalize_term(value)
        count = self._frequencies.get(key, 0) + self._token_frequencies.get(key, 0)
        if count == 0:
            # The value was never observed — smooth rather than declare
            # impossible, because the index may still match through word
            # tokens of multi-word cells (and the model is only a prior).
            return min(_UNSEEN_PROBABILITY, 0.5 / (self.non_null_count + 1.0))
        return min(1.0, count / self.row_count)

    def range_probability(
        self,
        low: Optional[float],
        high: Optional[float],
        low_inclusive: bool = True,
        high_inclusive: bool = True,
    ) -> float:
        """P(a random row's numeric cell falls inside the range)."""
        if self._numeric is None or self.row_count == 0:
            return 0.0
        values = self._numeric
        mask = np.ones(len(values), dtype=bool)
        if low is not None:
            mask &= values >= low if low_inclusive else values > low
        if high is not None:
            mask &= values <= high if high_inclusive else values < high
        return float(mask.sum()) / self.row_count

    # ------------------------------------------------------------------
    # Constraint-level probability
    # ------------------------------------------------------------------
    def match_probability(self, constraint: ValueConstraint) -> float:
        """P(a random row of the relation satisfies ``constraint`` here)."""
        if isinstance(constraint, AnyValue):
            return 1.0 - self.null_fraction
        if isinstance(constraint, ExactValue):
            return self.value_probability(constraint.value)
        if isinstance(constraint, OneOf):
            probability = 0.0
            for value in constraint.values:
                probability += self.value_probability(value)
            return min(1.0, probability)
        if isinstance(constraint, Range):
            low = _as_float(constraint.low)
            high = _as_float(constraint.high)
            if self.data_type.is_numeric:
                return self.range_probability(
                    low, high, constraint.low_inclusive, constraint.high_inclusive
                )
            return self._scan_probability(constraint)
        if isinstance(constraint, Predicate):
            return self._predicate_probability(constraint)
        if isinstance(constraint, Conjunction):
            probability = 1.0
            for part in constraint.parts:
                probability *= self.match_probability(part)
            return probability
        if isinstance(constraint, Disjunction):
            miss = 1.0
            for part in constraint.parts:
                miss *= 1.0 - self.match_probability(part)
            return 1.0 - miss
        return self._scan_probability(constraint)

    def _predicate_probability(self, constraint: Predicate) -> float:
        if constraint.op in ("==",):
            return self.value_probability(constraint.constant)
        if constraint.op == "!=":
            return max(0.0, 1.0 - self.value_probability(constraint.constant))
        constant = _as_float(constraint.constant)
        if constant is None or self._numeric is None:
            return self._scan_probability(constraint)
        if constraint.op == ">":
            return self.range_probability(constant, None, low_inclusive=False)
        if constraint.op == ">=":
            return self.range_probability(constant, None, low_inclusive=True)
        if constraint.op == "<":
            return self.range_probability(None, constant, high_inclusive=False)
        if constraint.op == "<=":
            return self.range_probability(None, constant, high_inclusive=True)
        return self._scan_probability(constraint)

    def _scan_probability(self, constraint: ValueConstraint) -> float:
        """Fallback: estimate from the distinct-value frequency table."""
        if self.row_count == 0:
            return 0.0
        matched = 0
        for key, count in self._frequencies.items():
            if constraint.matches(key):
                matched += count
        if matched == 0:
            return min(_UNSEEN_PROBABILITY, 0.5 / (self.non_null_count + 1.0))
        return matched / self.row_count


def _as_float(value: Any) -> Optional[float]:
    if value is None:
        return None
    try:
        return to_float(value)
    except (TypeError, ValueError):
        return None
