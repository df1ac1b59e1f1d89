"""Training entry point for the Bayesian model set.

The paper trains its Bayesian models "a priori for the source database"
(§2.3) — i.e. once, offline, as part of preprocessing.  :func:`train_models`
fits one :class:`SingleRelationModel` per table and one
:class:`JoinIndicatorModel` per foreign-key edge and returns them bundled
in a :class:`BayesianModelSet` together with the selectivity estimator the
scheduler consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping

from repro.bayesian.estimator import SelectivityEstimator
from repro.bayesian.join_indicator import JoinIndicatorModel
from repro.bayesian.single_relation import SingleRelationModel
from repro.dataset.database import Database
from repro.errors import TrainingError

__all__ = ["BayesianModelSet", "train_models"]


@dataclass
class BayesianModelSet:
    """All trained models for one source database."""

    database_name: str
    relation_models: Dict[str, SingleRelationModel] = field(default_factory=dict)
    join_models: Dict[tuple, JoinIndicatorModel] = field(default_factory=dict)

    def estimator(self) -> SelectivityEstimator:
        """Build the selectivity estimator backed by these models."""
        return SelectivityEstimator(self.relation_models, self.join_models)

    # ------------------------------------------------------------------
    # Incremental maintenance
    # ------------------------------------------------------------------
    def apply_delta(
        self,
        database: Database,
        deltas: Mapping[str, "TableDelta"],
    ) -> None:
        """Fold appended rows into every affected model in place.

        Relation models of changed tables absorb their table's delta
        first; join models share their key counts with those models'
        distributions, so they then only update their sums for the keys
        either endpoint's key column gained.  Raises
        :class:`TrainingError` when a changed table has no fitted model
        or a join model lacks its sufficient statistics.
        """
        for table_name, delta in deltas.items():
            model = self.relation_models.get(table_name)
            if model is None:
                raise TrainingError(
                    f"no relation model for table {table_name!r}; retrain"
                )
            model.apply_delta(delta, database.table(table_name).columns)
        for join_model in self.join_models.values():
            foreign_key = join_model.foreign_key
            child_delta = deltas.get(foreign_key.child_table)
            parent_delta = deltas.get(foreign_key.parent_table)
            if child_delta is None and parent_delta is None:
                continue
            join_model.apply_delta(
                child_values=self._key_values(
                    database, child_delta,
                    foreign_key.child_table, foreign_key.child_column,
                ),
                parent_values=self._key_values(
                    database, parent_delta,
                    foreign_key.parent_table, foreign_key.parent_column,
                ),
                child_rows=None if child_delta is None else child_delta.end_row,
                parent_rows=(
                    None if parent_delta is None else parent_delta.end_row
                ),
            )

    @staticmethod
    def _key_values(database, delta, table_name: str, column_name: str):
        """Non-NULL appended cells of one join-key column ([] if unchanged)."""
        if delta is None:
            return []
        position = database.table(table_name).column_position(column_name)
        return delta.columns[position].non_null_values

    @property
    def num_relation_models(self) -> int:
        """Number of per-relation models."""
        return len(self.relation_models)

    @property
    def num_join_models(self) -> int:
        """Number of join-indicator models."""
        return len(self.join_models)


def train_models(database: Database) -> BayesianModelSet:
    """Train the full Bayesian model set for ``database``.

    Each join model counts no keys of its own: it is handed the
    ``frequencies`` of its key columns' distributions, which hold the
    same normalized counts a cold :meth:`JoinIndicatorModel.fit` makes.
    Raises :class:`TrainingError` for an empty database (no tables).
    """
    if not database.table_names:
        raise TrainingError(
            f"database {database.name!r} has no tables to train on"
        )
    model_set = BayesianModelSet(database_name=database.name)
    for table in database:
        model_set.relation_models[table.name] = SingleRelationModel.fit(table)
    relation_models = model_set.relation_models
    for foreign_key in database.foreign_keys:
        child = relation_models[foreign_key.child_table].distribution(
            foreign_key.child_column
        )
        parent = relation_models[foreign_key.parent_table].distribution(
            foreign_key.parent_column
        )
        model_set.join_models[JoinIndicatorModel.key(foreign_key)] = (
            JoinIndicatorModel.from_counts(
                foreign_key, child.frequencies, parent.frequencies,
                child.row_count, parent.row_count,
            )
        )
    return model_set
