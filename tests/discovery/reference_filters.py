"""Reference filter decomposition for the differential tests.

This is :mod:`repro.discovery.filters` as it stood before it decomposed
each join tree once, kept verbatim below this docstring: every
candidate enumerates its join tree's connected subtrees again
(``_connected_subtrees``, in the iteration order of frozensets of table
names, which the hash seed sets), every filter occurrence builds a
sub-query and a ``_FilterKey`` (:meth:`FilterSet.add`), and containment
zips and hashes the cells of both filters for every pair it compares.
It is the oracle :mod:`tests.discovery.test_filters_reference` holds
:func:`repro.discovery.filters.build_filters` to, modulo filter
numbering.

Nothing under ``src/`` imports this module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from repro.constraints.spec import MappingSpec
from repro.dataset.schema import ColumnRef, ForeignKey
from repro.discovery.candidates import CandidateQuery
from repro.errors import DiscoveryError
from repro.query.pj_query import ProjectJoinQuery

__all__ = ["Filter", "FilterSet", "build_filters"]


@dataclass(frozen=True)
class _FilterKey:
    """Structural identity of a filter (used for cross-candidate sharing)."""

    sample_index: int
    positions: tuple[int, ...]
    projections: tuple[ColumnRef, ...]
    edges: frozenset[ForeignKey]
    tables: frozenset[str]


@dataclass
class Filter:
    """One validation unit: a sub-PJ-query checked against one sample."""

    id: int
    sample_index: int
    positions: tuple[int, ...]
    query: ProjectJoinQuery
    tables: frozenset[str]
    candidate_ids: set[int] = field(default_factory=set)

    @property
    def join_size(self) -> int:
        """Number of join edges in the filter's sub-query."""
        return self.query.join_size

    @property
    def num_tables(self) -> int:
        """Number of tables the filter touches."""
        return len(self.tables)

    def contains(self, other: "Filter") -> bool:
        """Whether ``other`` is structurally contained in this filter."""
        if self.sample_index != other.sample_index:
            return False
        if not other.tables <= self.tables:
            return False
        if not set(other.query.joins) <= set(self.query.joins):
            return False
        own_cells = set(zip(self.positions, self.query.projections))
        other_cells = set(zip(other.positions, other.query.projections))
        return other_cells <= own_cells

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"Filter(id={self.id}, sample={self.sample_index}, "
            f"positions={self.positions}, tables={sorted(self.tables)})"
        )


class FilterSet:
    """All filters derived from a candidate set, with their dependencies."""

    def __init__(self, spec: MappingSpec, candidates: Sequence[CandidateQuery]):
        self.spec = spec
        self.candidates = list(candidates)
        self.filters: list[Filter] = []
        self._by_key: dict[_FilterKey, Filter] = {}
        # candidate id -> sample index -> id of the candidate's *top* filter
        self.candidate_tops: dict[int, dict[int, int]] = {}
        # candidate id -> every filter id derived from it
        self.candidate_filters: dict[int, set[int]] = {}
        self._ancestors: Optional[dict[int, set[int]]] = None
        self._descendants: Optional[dict[int, set[int]]] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add(
        self,
        candidate: CandidateQuery,
        sample_index: int,
        positions: Sequence[int],
        query: ProjectJoinQuery,
        is_top: bool,
    ) -> Filter:
        """Register one filter occurrence for ``candidate``."""
        key = _FilterKey(
            sample_index=sample_index,
            positions=tuple(positions),
            projections=query.projections,
            edges=frozenset(query.joins),
            tables=query.tables,
        )
        existing = self._by_key.get(key)
        if existing is None:
            existing = Filter(
                id=len(self.filters),
                sample_index=sample_index,
                positions=tuple(positions),
                query=query,
                tables=query.tables,
            )
            self.filters.append(existing)
            self._by_key[key] = existing
        existing.candidate_ids.add(candidate.id)
        self.candidate_filters.setdefault(candidate.id, set()).add(existing.id)
        if is_top:
            self.candidate_tops.setdefault(candidate.id, {})[sample_index] = existing.id
        self._ancestors = None
        self._descendants = None
        return existing

    # ------------------------------------------------------------------
    # Dependency structure
    # ------------------------------------------------------------------
    def _compute_containment(self) -> None:
        """Find every pair :meth:`Filter.contains` relates, by shape.

        A filter's joins form a tree over its tables, so a filter it
        contains spans a connected subtree of that tree, and in a tree
        a subtree's edges are exactly those among its tables.  Indexing
        filters by ``(sample, tables, joins)`` therefore lets each
        filter find every filter it may contain under the shapes of its
        own subtrees; only their cells remain to be compared.
        """
        ancestors: dict[int, set[int]] = {f.id: set() for f in self.filters}
        descendants: dict[int, set[int]] = {f.id: set() for f in self.filters}
        by_shape: dict[tuple, list[Filter]] = {}
        for filter_ in self.filters:
            tree = (filter_.tables, frozenset(filter_.query.joins))
            by_shape.setdefault((filter_.sample_index, *tree), []).append(filter_)
        # The subtree shapes of each join tree, enumerated once: many
        # filters share one tree.
        subtrees: dict[tuple, list[tuple]] = {}
        for outer in self.filters:
            tree = (outer.tables, frozenset(outer.query.joins))
            shapes = subtrees.get(tree)
            if shapes is None:
                shapes = subtrees[tree] = [
                    (nodes, frozenset(edges))
                    for nodes, edges in _connected_subtrees(
                        outer.tables, outer.query.joins
                    )
                ]
            own_cells = set(zip(outer.positions, outer.query.projections))
            for nodes, edges in shapes:
                for inner in by_shape.get((outer.sample_index, nodes, edges), ()):
                    if inner.id != outer.id and own_cells.issuperset(
                        zip(inner.positions, inner.query.projections)
                    ):
                        ancestors[inner.id].add(outer.id)
                        descendants[outer.id].add(inner.id)
        self._ancestors = ancestors
        self._descendants = descendants

    def ancestors(self, filter_id: int) -> set[int]:
        """Filters that contain ``filter_id`` (fail together with it)."""
        if self._ancestors is None:
            self._compute_containment()
        return self._ancestors[filter_id]

    def descendants(self, filter_id: int) -> set[int]:
        """Filters contained in ``filter_id`` (pass together with it)."""
        if self._descendants is None:
            self._compute_containment()
        return self._descendants[filter_id]

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_filters(self) -> int:
        """Total number of distinct filters."""
        return len(self.filters)

    def filter(self, filter_id: int) -> Filter:
        """Filter by id."""
        return self.filters[filter_id]

    def top_filter_ids(self) -> set[int]:
        """Filters that are the top (full) filter of some candidate."""
        tops: set[int] = set()
        for per_sample in self.candidate_tops.values():
            tops.update(per_sample.values())
        return tops


def _connected_subtrees(
    tables: frozenset[str],
    edges: Sequence[ForeignKey],
) -> list[tuple[frozenset[str], tuple[ForeignKey, ...]]]:
    """Enumerate connected subtrees (node set, induced edges) of a join tree."""
    adjacency: dict[str, list[ForeignKey]] = {table: [] for table in tables}
    for edge in edges:
        left, right = edge.tables()
        adjacency[left].append(edge)
        adjacency[right].append(edge)

    results: dict[frozenset[str], tuple[ForeignKey, ...]] = {}
    for table in tables:
        results.setdefault(frozenset({table}), ())
    frontier: list[tuple[frozenset[str], tuple[ForeignKey, ...]]] = [
        (frozenset({table}), ()) for table in tables
    ]
    while frontier:
        next_frontier = []
        for node_set, tree_edges in frontier:
            for table in node_set:
                for edge in adjacency[table]:
                    left, right = edge.tables()
                    other = right if left == table else left
                    if other in node_set:
                        continue
                    new_nodes = node_set | {other}
                    if new_nodes in results:
                        continue
                    new_edges = tree_edges + (edge,)
                    results[new_nodes] = new_edges
                    next_frontier.append((new_nodes, new_edges))
        frontier = next_frontier
    return [(nodes, results[nodes]) for nodes in results]


def build_filters(
    spec: MappingSpec, candidates: Sequence[CandidateQuery]
) -> FilterSet:
    """Decompose every candidate into filters for every sample constraint.

    Args:
        spec: the mapping specification (provides the sample constraints).
        candidates: candidate queries from the generator.
    """
    filter_set = FilterSet(spec, candidates)
    samples = spec.samples
    if not samples:
        return filter_set

    for candidate in candidates:
        query = candidate.query
        candidate_tables = query.tables
        for sample_index, sample in enumerate(samples):
            constrained = [
                position
                for position in sample.constrained_positions()
                if position < query.width
            ]
            if not constrained:
                continue
            # Sub-filters: every connected subtree containing >= 1 constrained column.
            for node_set, sub_edges in _connected_subtrees(
                candidate_tables, query.joins
            ):
                positions = [
                    position
                    for position in constrained
                    if query.projections[position].table in node_set
                ]
                if not positions:
                    continue
                projections = tuple(query.projections[p] for p in positions)
                sub_query = ProjectJoinQuery(projections, sub_edges)
                filter_set.add(
                    candidate,
                    sample_index,
                    positions,
                    sub_query,
                    is_top=False,
                )
            # The top filter spans the *entire* candidate join tree with all
            # constrained positions: passing it certifies the candidate's
            # result truly contains the sample.
            top_projections = tuple(query.projections[p] for p in constrained)
            top_query = ProjectJoinQuery(top_projections, query.joins)
            filter_set.add(
                candidate, sample_index, constrained, top_query, is_top=True
            )
        if candidate.id not in filter_set.candidate_tops and samples:
            raise DiscoveryError(
                f"candidate {candidate.id} produced no top filter; "
                "samples may not constrain any projected column"
            )
    return filter_set
