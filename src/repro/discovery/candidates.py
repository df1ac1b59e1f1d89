"""Candidate schema-mapping query generation (step 1, second half).

"With related columns found, we exhaustively search through the source
database schema graph and find all possible join paths, each connecting a
set of related columns that altogether can be mapped to all columns in the
target schema.  Every join path along with the set of related columns it
connects becomes a candidate schema mapping query" (§2.3).

The generator takes the related-column sets, enumerates column assignments
for the constrained target positions, finds every join tree connecting the
assigned tables (bounded by ``max_tables``), and — for target positions the
user left completely unconstrained — assigns any remaining column of the
join tree's tables.  Candidates are deduplicated by query signature and the
overall number is bounded to keep the search interactive.

Many assignments share one set of tables, within a round and across
rounds; the schema graph memoizes its join trees per required-table set,
so each set is searched once per graph.  A required table the graph does
not know (a graph built for another database) raises
:class:`~repro.errors.SchemaError`.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from repro.constraints.spec import MappingSpec
from repro.dataset.database import Database
from repro.dataset.schema import ColumnRef, ForeignKey
from repro.dataset.schema_graph import SchemaGraph
from repro.discovery.related_columns import RelatedColumns
from repro.errors import DiscoveryError
from repro.query.pj_query import ProjectJoinQuery

__all__ = ["CandidateQuery", "CandidateGenerator", "GenerationLimits"]


@dataclass(frozen=True)
class CandidateQuery:
    """A candidate schema mapping query awaiting validation."""

    id: int
    query: ProjectJoinQuery

    @property
    def join_size(self) -> int:
        """Number of join edges in the candidate."""
        return self.query.join_size


@dataclass(frozen=True)
class GenerationLimits:
    """Bounds keeping candidate enumeration interactive."""

    max_tables: int = 4
    max_trees_per_assignment: int = 8
    max_assignments: int = 2_000
    max_candidates: int = 1_000
    max_unconstrained_choices: int = 20


class CandidateGenerator:
    """Enumerates candidate PJ queries from related columns."""

    def __init__(
        self,
        database: Database,
        schema_graph: SchemaGraph,
        limits: Optional[GenerationLimits] = None,
    ):
        self._database = database
        self._graph = schema_graph
        self._limits = limits or GenerationLimits()

    @property
    def limits(self) -> GenerationLimits:
        """The active generation limits."""
        return self._limits

    def generate(
        self,
        spec: MappingSpec,
        related: RelatedColumns,
        deadline: Optional[float] = None,
    ) -> list[CandidateQuery]:
        """Enumerate candidate queries for ``spec``.

        Args:
            spec: the mapping specification.
            related: related columns per constrained position.
            deadline: optional ``time.monotonic()`` deadline; generation
                stops (returning what it has) once it is reached.
        """
        constrained_positions = related.constrained_positions()
        if not constrained_positions:
            raise DiscoveryError(
                "cannot generate candidates: no target position is constrained"
            )
        if not related.is_satisfiable():
            return []

        unconstrained_positions = [
            position
            for position in range(spec.num_columns)
            if position not in related.per_position
        ]

        candidates: list[CandidateQuery] = []
        seen_signatures: set[tuple] = set()
        next_id = 0

        assignment_iter = self._assignments(related, constrained_positions)
        for assignment_count, assignment in enumerate(assignment_iter):
            if assignment_count >= self._limits.max_assignments:
                break
            if deadline is not None and time.monotonic() > deadline:
                break
            required_tables = {ref.table for ref in assignment.values()}
            trees = self._graph.join_trees(
                required_tables,
                max_tables=self._limits.max_tables,
                max_trees=self._limits.max_trees_per_assignment,
            )
            for tree in trees:
                for projections in self._complete_projections(
                    spec, assignment, unconstrained_positions, tree, required_tables
                ):
                    query = ProjectJoinQuery(tuple(projections), tuple(tree))
                    signature = query.signature()
                    if signature in seen_signatures:
                        continue
                    seen_signatures.add(signature)
                    candidates.append(CandidateQuery(id=next_id, query=query))
                    next_id += 1
                    if len(candidates) >= self._limits.max_candidates:
                        return candidates
        return candidates

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _assignments(
        self,
        related: RelatedColumns,
        constrained_positions: Sequence[int],
    ) -> Iterable[dict[int, ColumnRef]]:
        """Cartesian product of related columns across constrained positions."""
        ordered_choices = [
            sorted(related.columns_for(position)) for position in constrained_positions
        ]
        for combination in itertools.product(*ordered_choices):
            assignment = dict(zip(constrained_positions, combination))
            # Two target columns cannot map to the same source column.
            if len(set(combination)) != len(combination):
                continue
            yield assignment

    def _complete_projections(
        self,
        spec: MappingSpec,
        assignment: dict[int, ColumnRef],
        unconstrained_positions: Sequence[int],
        tree: Sequence[ForeignKey],
        required_tables: set[str],
    ) -> Iterable[list[ColumnRef]]:
        """Fill unconstrained positions with columns from the join tree."""
        tree_tables = SchemaGraph.tree_tables(tree)
        tree_tables.update(required_tables)
        if not unconstrained_positions:
            yield [assignment[position] for position in range(spec.num_columns)]
            return

        used = set(assignment.values())
        available: list[ColumnRef] = []
        for table_name in sorted(tree_tables):
            table = self._database.table(table_name)
            for column in table.columns:
                ref = ColumnRef(table_name, column.name)
                if ref not in used:
                    available.append(ref)
        available = available[: self._limits.max_unconstrained_choices * max(
            1, len(unconstrained_positions)
        )]
        if len(available) < len(unconstrained_positions):
            return

        for combination in itertools.permutations(
            available, len(unconstrained_positions)
        ):
            projections: list[Optional[ColumnRef]] = [None] * spec.num_columns
            for position, ref in assignment.items():
                projections[position] = ref
            for position, ref in zip(unconstrained_positions, combination):
                projections[position] = ref
            yield [ref for ref in projections if ref is not None]
