"""Filter decomposition and the filter dependency DAG (step 2, part 1).

"We divide such an expensive verification task into a set of cheap
validations of filters, i.e. sub(join)trees along with projected attributes
(shorter PJ queries) ... If a filter fails, its parent filters and entire
candidate schema mapping query, from which the filter is derived,
automatically fail, and thereby pruned" (§2.3).

A :class:`Filter` is a sub-PJ-query of one candidate (a connected subtree
of its join tree plus the projected attributes falling inside that subtree)
paired with one sample constraint.  Filters are deduplicated across
candidates — the same single-table probe is typically shared by many
candidates, which is exactly where the pruning leverage comes from.

Containment gives the dependency structure:

* if filter B is contained in filter A (same sample, B's join edges,
  tables and projections are subsets of A's) then **B failing implies A
  fails**, and **A passing implies B passes**.

The decomposition is structural work done once per join tree: a tree's
connected subtrees (its *shapes*) are enumerated once per process and
cached, in a canonical order that makes filter ids independent of the
interpreter's hash seed.  Each filter records its shape and its cells
(``(position, projected column)`` pairs) when it is first built, so
deduplication compares plain tuples and containment compares stored
sets.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.constraints.spec import MappingSpec
from repro.dataset.schema import ColumnRef, ForeignKey
from repro.discovery.candidates import CandidateQuery
from repro.errors import DiscoveryError
from repro.query.pj_query import ProjectJoinQuery
from repro.query.plan import tree_prefix_key

__all__ = ["Filter", "FilterSet", "build_filters"]

#: Join trees whose subtree shapes stay cached, least recently used
#: evicted first.  Two passes of each end-to-end benchmark workload
#: reach 156 distinct trees, sub-trees included.
SUBTREE_CACHE_SIZE = 1024

#: One connected subtree: its tables, its edge set, its edges in
#: canonical order and its join prefix key
#: (:func:`~repro.query.plan.join_prefix_key`).
Shape = tuple[frozenset[str], frozenset[ForeignKey], tuple[ForeignKey, ...], tuple]


@dataclass
class Filter:
    """One validation unit: a sub-PJ-query checked against one sample."""

    id: int
    sample_index: int
    positions: tuple[int, ...]
    query: ProjectJoinQuery
    tables: frozenset[str]
    #: ``(position, projected column)`` pairs the filter checks.
    cells: frozenset[tuple[int, ColumnRef]]
    #: The filter's join tree: ``(tables, edge set)``.
    shape: tuple[frozenset[str], frozenset[ForeignKey]]
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
        # candidate id -> sample index -> id of the candidate's *top* filter
        self.candidate_tops: dict[int, dict[int, int]] = {}
        # candidate id -> every filter id derived from it
        self.candidate_filters: dict[int, set[int]] = {}
        self._ancestors: Optional[dict[int, set[int]]] = None
        self._descendants: Optional[dict[int, set[int]]] = None

    # ------------------------------------------------------------------
    # Dependency structure
    # ------------------------------------------------------------------
    def _compute_containment(self) -> None:
        """Find every pair :meth:`Filter.contains` relates, by shape.

        A filter's joins form a tree over its tables, so a filter it
        contains spans a connected subtree of that tree, and in a tree
        a subtree's edges are exactly those among its tables.  Indexing
        filters by ``(sample, tables, edge set)`` therefore lets each
        filter find every filter it may contain under its own cached
        subtree shapes; only their stored cell sets remain to be
        compared.
        """
        ancestors: dict[int, set[int]] = {f.id: set() for f in self.filters}
        descendants: dict[int, set[int]] = {f.id: set() for f in self.filters}
        by_shape: dict[tuple, list[Filter]] = {}
        for filter_ in self.filters:
            by_shape.setdefault(
                (filter_.sample_index, *filter_.shape), []
            ).append(filter_)
        for outer in self.filters:
            for nodes, edge_set, __, __ in _subtree_shapes(*outer.shape):
                for inner in by_shape.get((outer.sample_index, nodes, edge_set), ()):
                    if inner.cells <= outer.cells and inner is not outer:
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


@functools.lru_cache(maxsize=SUBTREE_CACHE_SIZE)
def _subtree_shapes(
    tables: frozenset[str], edges: frozenset[ForeignKey]
) -> tuple[Shape, ...]:
    """Every connected subtree of the join tree ``(tables, edges)``.

    Smaller subtrees come first, so a tree's last shape is the whole
    tree.  The order is canonical: single tables in name order, and each
    larger subtree grown from the first-found smaller one, walking its
    tables in name order and their edges in text order.  Filter ids
    follow this order, so it must not depend on frozenset iteration
    order, which the hash seed sets.  Each shape carries its join prefix
    key, so filters over it share one key computed once.
    """
    adjacency: dict[str, list[ForeignKey]] = {table: [] for table in tables}
    for edge in sorted(edges, key=str):
        left, right = edge.tables()
        adjacency[left].append(edge)
        adjacency[right].append(edge)

    found: dict[frozenset[str], tuple[ForeignKey, ...]] = {
        frozenset({table}): () for table in sorted(tables)
    }
    frontier = list(found.items())
    while frontier:
        next_frontier = []
        for node_set, tree_edges in frontier:
            for table in sorted(node_set):
                for edge in adjacency[table]:
                    left, right = edge.tables()
                    other = right if left == table else left
                    if other in node_set:
                        continue
                    new_nodes = node_set | {other}
                    if new_nodes in found:
                        continue
                    new_edges = found[new_nodes] = tree_edges + (edge,)
                    next_frontier.append((new_nodes, new_edges))
        frontier = next_frontier
    return tuple(
        (nodes, frozenset(tree_edges), tree_edges, tree_prefix_key(nodes, tree_edges))
        for nodes, tree_edges in found.items()
    )


def build_filters(
    spec: MappingSpec, candidates: Sequence[CandidateQuery]
) -> FilterSet:
    """Decompose every candidate into filters for every sample constraint.

    Every connected subtree of a candidate's join tree that holds at
    least one constrained column becomes a filter; the whole tree, with
    every constrained column, is the candidate's *top* filter for that
    sample: passing it certifies the candidate's result truly contains
    the sample.  Each filter's sub-query is built with its shape's
    tables and join prefix key already set.

    Args:
        spec: the mapping specification (provides the sample constraints).
        candidates: candidate queries from the generator.
    """
    filter_set = FilterSet(spec, candidates)
    constrained_per_sample = [
        sample.constrained_positions() for sample in spec.samples
    ]
    if not constrained_per_sample:
        return filter_set

    filters = filter_set.filters
    by_key: dict[tuple, Filter] = {}
    for candidate in candidates:
        query = candidate.query
        projections = query.projections
        shapes = _subtree_shapes(query.tables, frozenset(query.joins))
        whole, whole_edges, __, __ = shapes[-1]
        if whole != query.tables or len(whole_edges) != len(query.joins):
            raise DiscoveryError(
                f"candidate {candidate.id}'s joins do not form one tree "
                "over its tables"
            )
        own_ids: set[int] = set()
        tops: dict[int, int] = {}
        for sample_index, constrained in enumerate(constrained_per_sample):
            constrained = [p for p in constrained if p < query.width]
            if not constrained:
                continue
            for nodes, edge_set, edges, prefix_key in shapes:
                positions = tuple(
                    p for p in constrained if projections[p].table in nodes
                )
                if not positions:
                    continue
                cells = tuple(projections[p] for p in positions)
                key = (sample_index, positions, cells, edge_set, nodes)
                filter_ = by_key.get(key)
                if filter_ is None:
                    filter_ = by_key[key] = Filter(
                        id=len(filters),
                        sample_index=sample_index,
                        positions=positions,
                        query=ProjectJoinQuery.over_tree(
                            cells, edges, nodes, prefix_key
                        ),
                        tables=nodes,
                        cells=frozenset(zip(positions, cells)),
                        shape=(nodes, edge_set),
                    )
                    filters.append(filter_)
                filter_.candidate_ids.add(candidate.id)
                own_ids.add(filter_.id)
            # The last shape is the whole tree, holding every constrained
            # position.
            tops[sample_index] = filter_.id
        if not tops:
            raise DiscoveryError(
                f"candidate {candidate.id} produced no top filter; "
                "samples may not constrain any projected column"
            )
        filter_set.candidate_filters[candidate.id] = own_ids
        filter_set.candidate_tops[candidate.id] = tops
    return filter_set
