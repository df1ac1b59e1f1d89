"""Schema graph and join-tree enumeration.

The paper "exhaustively search[es] through the source database schema graph
and find[s] all possible join paths, each connecting a set of related
columns" (§2.3).  This module builds that graph — nodes are tables, edges
are foreign keys — and enumerates *join trees*: acyclic sets of foreign-key
edges whose induced subgraph is connected and spans a required set of
tables, optionally passing through a bounded number of intermediate tables.

The enumeration is exhaustive up to the configured bounds (maximum number
of tables in a tree and maximum number of trees returned), which mirrors
the paper's bounded interactive search.  A graph memoizes each answer:
its structure never changes (:meth:`SchemaGraph.apply_delta` raises
first), and candidate generation asks for the same required-table sets
in every round.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional

import networkx as nx

from repro.dataset.database import Database
from repro.dataset.schema import ForeignKey
from repro.errors import SchemaError

__all__ = ["SchemaGraph"]

#: Answers :meth:`SchemaGraph.join_trees` keeps per graph.  Once full,
#: the memo stops growing: further answers are computed every time.
JOIN_TREE_MEMO_SIZE = 1024


class SchemaGraph:
    """Undirected multigraph over the tables of a database."""

    def __init__(self, database: Database):
        self._database = database
        # (required tables, max_tables, max_trees) -> join trees.  Never
        # invalidated, because the structure never changes, and never
        # evicted, so no caller reads it while another resizes it.  No
        # lock (the graph is pickled in bundles): callers racing on one
        # key store equal answers, and can pass the bound by one each.
        self._join_trees: dict[tuple, tuple[tuple[ForeignKey, ...], ...]] = {}
        self._graph = nx.MultiGraph()
        for table_name in database.table_names:
            self._graph.add_node(table_name)
        for foreign_key in database.foreign_keys:
            self._graph.add_edge(
                foreign_key.child_table,
                foreign_key.parent_table,
                fk=foreign_key,
            )

    # ------------------------------------------------------------------
    # Incremental maintenance
    # ------------------------------------------------------------------
    def apply_delta(self, database: Database) -> None:
        """Re-point the graph at a database that only grew by appends.

        The graph's structure depends exclusively on the schema (tables
        and foreign keys), which appends never change, so incremental
        maintenance reduces to re-pointing at the live database.  Raises
        :class:`~repro.errors.SchemaError` when the table set or the
        foreign-key set differs — callers must rebuild in that case.
        """
        if set(database.table_names) != set(self._graph.nodes):
            raise SchemaError(
                "the schema graph's table set no longer matches the "
                "database; rebuild the graph"
            )
        live_edges = set(database.foreign_keys)
        graph_edges = {
            data["fk"] for __, __, data in self._graph.edges(data=True)
        }
        if live_edges != graph_edges:
            raise SchemaError(
                "the schema graph's foreign-key set no longer matches the "
                "database; rebuild the graph"
            )
        self._database = database

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------
    @property
    def graph(self) -> nx.MultiGraph:
        """The underlying networkx multigraph (treat as read-only)."""
        return self._graph

    @property
    def tables(self) -> list[str]:
        """All table names (graph nodes)."""
        return list(self._graph.nodes)

    def neighbors(self, table: str) -> set[str]:
        """Tables directly joinable with ``table``."""
        if table not in self._graph:
            raise SchemaError(f"unknown table in schema graph: {table!r}")
        return set(self._graph.neighbors(table))

    def join_edges(self, left: str, right: str) -> list[ForeignKey]:
        """All foreign keys connecting ``left`` and ``right``."""
        if left not in self._graph or right not in self._graph:
            return []
        if not self._graph.has_edge(left, right):
            return []
        return [
            data["fk"] for data in self._graph.get_edge_data(left, right).values()
        ]

    def incident_foreign_keys(self, table: str) -> list[ForeignKey]:
        """All foreign keys with ``table`` as one endpoint."""
        result = []
        for __, __, data in self._graph.edges(table, data=True):
            result.append(data["fk"])
        return result

    def is_connected(self, tables: Iterable[str]) -> bool:
        """Whether the given tables lie in one connected component."""
        tables = list(tables)
        if not tables:
            return True
        components = nx.connected_components(self._graph)
        for component in components:
            if all(table in component for table in tables):
                return True
        return False

    def distance(self, left: str, right: str) -> Optional[int]:
        """Shortest join-path length between two tables (None if disconnected)."""
        try:
            return nx.shortest_path_length(self._graph, left, right)
        except (nx.NetworkXNoPath, nx.NodeNotFound):
            return None

    # ------------------------------------------------------------------
    # Join-tree enumeration
    # ------------------------------------------------------------------
    def join_trees(
        self,
        required_tables: Iterable[str],
        max_tables: Optional[int] = None,
        max_trees: Optional[int] = None,
    ) -> list[tuple[ForeignKey, ...]]:
        """Enumerate join trees spanning ``required_tables``.

        A join tree is a set of foreign-key edges whose induced graph is a
        tree containing every required table.  Intermediate tables are
        allowed as long as the total number of tables does not exceed
        ``max_tables`` (default: ``len(required) + 2``).

        Args:
            required_tables: tables that must appear in every tree.
            max_tables: cap on the total number of tables in a tree.
            max_trees: cap on the number of trees returned.

        Returns:
            A new list of edge tuples; the single-table case yields one
            empty tuple.  Trees are returned smaller-first (fewer edges
            first).
        """
        required = frozenset(required_tables)
        key = (required, max_tables, max_trees)
        trees = self._join_trees.get(key)
        if trees is None:
            trees = self._search(required, max_tables, max_trees)
            if len(self._join_trees) < JOIN_TREE_MEMO_SIZE:
                self._join_trees[key] = trees
        return list(trees)

    def _search(
        self,
        required: frozenset[str],
        max_tables: Optional[int],
        max_trees: Optional[int],
    ) -> tuple[tuple[ForeignKey, ...], ...]:
        """:meth:`join_trees`' answer, enumerated afresh."""
        for table in sorted(required):
            if table not in self._graph:
                raise SchemaError(f"unknown table in schema graph: {table!r}")
        if not required:
            return ((),)
        if max_tables is None:
            max_tables = len(required) + 2
        max_tables = max(max_tables, len(required))

        results: list[tuple[ForeignKey, ...]] = []
        seen: set[frozenset[ForeignKey]] = set()
        for tree in self._enumerate_trees(required, max_tables):
            key = frozenset(tree)
            if key in seen:
                continue
            seen.add(key)
            results.append(tree)
            if max_trees is not None and len(results) >= max_trees:
                break
        results.sort(key=lambda edges: (len(edges), [str(edge) for edge in edges]))
        return tuple(results)

    def _enumerate_trees(
        self, required: frozenset[str], max_tables: int
    ) -> Iterator[tuple[ForeignKey, ...]]:
        start = min(required)
        if len(required) == 1 and max_tables >= 1:
            yield ()
        # Breadth-first expansion over partial trees.  A state is
        # (tables in the tree, edges of the tree); we only ever attach an
        # edge to a *new* table, so every state is a tree by construction.
        initial = (frozenset({start}), ())
        frontier: list[tuple[frozenset[str], tuple[ForeignKey, ...]]] = [initial]
        emitted: set[frozenset[ForeignKey]] = set()
        while frontier:
            next_frontier: list[tuple[frozenset[str], tuple[ForeignKey, ...]]] = []
            for tables, edges in frontier:
                if len(tables) >= max_tables:
                    continue
                # Iterate tables in sorted order: frozenset iteration order
                # depends on the interpreter's hash seed, and a hash-order
                # walk would make the trees that survive a ``max_trees``
                # bound differ between processes.
                for table in sorted(tables):
                    for __, other, data in self._graph.edges(table, data=True):
                        if other in tables:
                            continue
                        foreign_key = data["fk"]
                        new_tables = tables | {other}
                        new_edges = edges + (foreign_key,)
                        edge_key = frozenset(new_edges)
                        if edge_key in emitted:
                            continue
                        emitted.add(edge_key)
                        if required <= new_tables:
                            yield new_edges
                        next_frontier.append((new_tables, new_edges))
            frontier = next_frontier

    @staticmethod
    def tree_tables(edges: Iterable[ForeignKey], default: Optional[str] = None) -> set[str]:
        """The set of tables touched by a join tree's edges."""
        tables: set[str] = set()
        for edge in edges:
            tables.update(edge.tables())
        if not tables and default is not None:
            tables.add(default)
        return tables
