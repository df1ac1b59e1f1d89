"""Selectivity / failure-probability estimation for filters.

This is the signal Prism's filter scheduler consumes: for a candidate
filter (a sub-PJ query plus the sample cells it must contain), estimate the
probability that *no* result row satisfies the cells, i.e. the probability
the filter fails and prunes its candidates.

The estimate combines the single-relation Bayesian models (per-row match
probability, assuming column independence) with the join-indicator models
(expected join cardinality), then applies a Poisson-style approximation
``P(fail) = exp(-expected number of matching result rows)``.

A scheduler scores many filters that share cells and join structures;
an :class:`EstimateMemo` lets one run compute each factor once.
"""

from __future__ import annotations

import math
from typing import Hashable, Mapping, Optional, Sequence

from repro.bayesian.join_indicator import JoinIndicatorModel
from repro.bayesian.single_relation import SingleRelationModel
from repro.constraints.values import ValueConstraint
from repro.dataset.schema import ColumnRef
from repro.errors import TrainingError
from repro.query.pj_query import ProjectJoinQuery

__all__ = ["EstimateMemo", "SelectivityEstimator"]


class EstimateMemo:
    """The factors of :meth:`SelectivityEstimator.failure_probability`,
    kept for one scheduling run.

    ``cells`` maps a cell's key, as its caller names the cell, to its
    match probability.  ``sizes`` maps a sub-query's tables and joins,
    each in the order they multiply, to its expected result size: a
    product taken in another order may differ in the last bit.  A memo
    is valid while the estimator's models and the cells its keys name
    stay unchanged, so it lives no longer than one run.
    """

    __slots__ = ("cells", "sizes")

    def __init__(self) -> None:
        self.cells: dict[Hashable, float] = {}
        self.sizes: dict[tuple, float] = {}


class SelectivityEstimator:
    """Estimates result sizes and failure probabilities of PJ queries."""

    def __init__(
        self,
        relation_models: Mapping[str, SingleRelationModel],
        join_models: Mapping[tuple, JoinIndicatorModel],
    ):
        self._relation_models = dict(relation_models)
        self._join_models = dict(join_models)

    # ------------------------------------------------------------------
    # Model access
    # ------------------------------------------------------------------
    def relation_model(self, table_name: str) -> SingleRelationModel:
        """The single-relation model for ``table_name``."""
        try:
            return self._relation_models[table_name]
        except KeyError as exc:
            raise TrainingError(f"no Bayesian model for table {table_name!r}") from exc

    def join_model(self, key: tuple) -> Optional[JoinIndicatorModel]:
        """The join-indicator model for a foreign-key edge key (or None)."""
        return self._join_models.get(key)

    # ------------------------------------------------------------------
    # Estimates
    # ------------------------------------------------------------------
    def expected_result_size(self, query: ProjectJoinQuery) -> float:
        """Expected number of rows the (unconstrained) PJ query returns."""
        size = 1.0
        for table_name in query.tables:
            size *= max(self.relation_model(table_name).row_count, 0)
        for edge in query.joins:
            model = self._join_models.get(JoinIndicatorModel.key(edge))
            if model is None:
                # Unknown edge: assume a key/foreign-key join with fan-out 1
                # from the child side.
                parent_rows = self.relation_model(edge.parent_table).row_count
                size *= 1.0 / parent_rows if parent_rows else 0.0
            else:
                size *= model.join_probability
        return size

    def row_match_probability(
        self,
        query: ProjectJoinQuery,
        cell_constraints: Mapping[int, ValueConstraint],
    ) -> float:
        """P(a random result row satisfies every projected cell constraint)."""
        probability = 1.0
        for position, constraint in cell_constraints.items():
            probability *= self._cell_probability(
                query.projections[position], constraint
            )
        return probability

    def _cell_probability(self, ref: ColumnRef, constraint: ValueConstraint) -> float:
        """P(a random row of ``ref``'s table satisfies ``constraint`` in
        that column)."""
        model = self.relation_model(ref.table)
        if not model.has_column(ref.column):
            raise TrainingError(f"model for {ref.table!r} has no column {ref.column!r}")
        return model.distribution(ref.column).match_probability(constraint)

    def expected_matches(
        self,
        query: ProjectJoinQuery,
        cell_constraints: Mapping[int, ValueConstraint],
    ) -> float:
        """Expected number of result rows satisfying the cell constraints."""
        return self.expected_result_size(query) * self.row_match_probability(
            query, cell_constraints
        )

    def failure_probability(
        self,
        query: ProjectJoinQuery,
        cell_constraints: Mapping[int, ValueConstraint],
        memo: Optional[EstimateMemo] = None,
        cell_keys: Sequence[Hashable] = (),
    ) -> float:
        """P(no result row satisfies the cell constraints).

        Uses the Poisson approximation ``exp(-lambda)`` where ``lambda`` is
        the expected number of matching rows, clipped into [0, 1].

        With a ``memo``, the query's expected result size and each cell's
        match probability come from it, or are computed once and kept
        there; ``cell_keys[position]`` names the cell at projection
        ``position``.  The same factors multiply in the same order, so
        the result equals the unmemoized one bit for bit.
        """
        if memo is None:
            expected = self.expected_matches(query, cell_constraints)
        else:
            sizes = memo.sizes
            size_key = (tuple(query.tables), query.joins)
            size = sizes.get(size_key)
            if size is None:
                size = sizes[size_key] = self.expected_result_size(query)
            cells = memo.cells
            probability = 1.0
            for position, constraint in cell_constraints.items():
                key = cell_keys[position]
                cell = cells.get(key)
                if cell is None:
                    cell = cells[key] = self._cell_probability(
                        query.projections[position], constraint
                    )
                probability *= cell
            expected = size * probability
        if expected <= 0.0:
            return 1.0
        return max(0.0, min(1.0, math.exp(-expected)))

    def estimated_cost(self, query: ProjectJoinQuery) -> float:
        """A crude validation-cost estimate used by schedulers.

        The paper leaves cost estimation out of scope; we use the sum of the
        participating relation sizes plus the expected intermediate join
        size, which is enough to prefer small filters over large ones.
        """
        base = sum(
            max(self.relation_model(table).row_count, 1) for table in query.tables
        )
        return base + self.expected_result_size(query)
