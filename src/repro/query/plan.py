"""Plan trees for ``prism explain --plan``, and join-structure keys.

A :class:`~repro.query.pj_query.ProjectJoinQuery` is its own plan: the
planner orders its joins, the executor lowers that order and
:func:`~repro.query.sql.to_sql` renders it, all straight from the
query.  Only the explain tooling draws a tree
(:meth:`~repro.query.planner.Planner.plan_query`), built from the
planner's join order out of immutable nodes:

* :class:`Scan` — one base table;
* :class:`Filter` — symbolic per-column predicates applied to its child
  (predicates are *described*, not stored as callables, so plans stay
  hashable and comparable);
* :class:`Join` — one foreign-key equi-join between two sub-plans;
* :class:`Project` — the ordered output columns.

:func:`join_prefix_key` is a query's join-structure identity: two
queries joining the same tables over the same edges share it whatever
they project.  The executor caches its lowered plans under it, and the
validation driver groups filters by it for batched passes over one
shared join.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, Iterator

from repro.dataset.schema import ColumnRef, ForeignKey
from repro.errors import QueryError
from repro.query.pj_query import ProjectJoinQuery

__all__ = [
    "PlanNode",
    "Scan",
    "Filter",
    "Join",
    "Project",
    "PredicateSpec",
    "join_prefix_key",
    "tree_prefix_key",
    "edge_key",
]


def edge_key(edge: ForeignKey) -> tuple:
    """Canonical hashable identity of one join edge.

    Symmetric in the two endpoints: the same physical equi-join hashes
    equally no matter which side the foreign key calls the child.
    """
    left = (edge.child_table, edge.child_column)
    right = (edge.parent_table, edge.parent_column)
    return (left, right) if left <= right else (right, left)


@dataclass(frozen=True)
class PredicateSpec:
    """A symbolic cell predicate: column plus a hashable description.

    ``tag`` identifies the predicate's *content* — typically the value
    constraint object it was derived from (hashable, compared by typed
    content), or a human-readable description when the spec only feeds
    the explain rendering.  The default ``"?"`` marks an opaque
    predicate.
    """

    table: str
    column: str
    tag: Hashable = "?"

    def __str__(self) -> str:
        describe = getattr(self.tag, "describe", None)
        label = describe() if callable(describe) else self.tag
        return f"{self.table}.{self.column}⟨{label}⟩"


@dataclass(frozen=True)
class PlanNode:
    """Base class for plan tree nodes."""

    def children(self) -> tuple["PlanNode", ...]:
        """This node's sub-plans (empty for leaves)."""
        return ()

    @property
    def tables(self) -> frozenset[str]:
        """Every base table under this node."""
        tables: set[str] = set()
        for node in self.walk():
            if isinstance(node, Scan):
                tables.add(node.table)
        return frozenset(tables)

    def edges(self) -> tuple[ForeignKey, ...]:
        """Every join edge under this node, in plan order."""
        found: list[ForeignKey] = []
        for node in self.walk():
            if isinstance(node, Join):
                found.append(node.edge)
        return tuple(found)

    def walk(self) -> Iterator["PlanNode"]:
        """Pre-order traversal of the plan tree."""
        yield self
        for child in self.children():
            yield from child.walk()


@dataclass(frozen=True)
class Scan(PlanNode):
    """A full scan of one base table."""

    table: str

    def __str__(self) -> str:
        return f"Scan({self.table})"


@dataclass(frozen=True)
class Filter(PlanNode):
    """Symbolic predicates applied to the rows of ``child`` (in plans
    the planner builds, always a :class:`Scan`)."""

    child: PlanNode
    specs: tuple[PredicateSpec, ...]

    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)

    def __str__(self) -> str:
        specs = ", ".join(str(spec) for spec in self.specs)
        return f"Filter[{specs}]"


@dataclass(frozen=True)
class Join(PlanNode):
    """A foreign-key equi-join between two sub-plans."""

    left: PlanNode
    right: PlanNode
    edge: ForeignKey

    def children(self) -> tuple[PlanNode, ...]:
        return (self.left, self.right)

    def __str__(self) -> str:
        return (
            f"Join({self.edge.child_table}.{self.edge.child_column} = "
            f"{self.edge.parent_table}.{self.edge.parent_column})"
        )


@dataclass(frozen=True)
class Project(PlanNode):
    """The ordered output columns of the query."""

    child: PlanNode
    columns: tuple[ColumnRef, ...]

    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)

    def __str__(self) -> str:
        columns = ", ".join(str(ref) for ref in self.columns)
        return f"Project[{columns}]"


def _connected_edge_order(query: ProjectJoinQuery) -> list[ForeignKey]:
    """Order the query's edges so each touches an already-joined table."""
    remaining = list(query.joins)
    ordered: list[ForeignKey] = []
    joined = {query.projections[0].table}
    if not any(
        table in joined for edge in remaining for table in edge.tables()
    ):
        joined = {remaining[0].tables()[0]}
    while remaining:
        progressed = False
        for edge in list(remaining):
            left, right = edge.tables()
            if left in joined or right in joined:
                ordered.append(edge)
                joined.update((left, right))
                remaining.remove(edge)
                progressed = True
        if not progressed:
            raise QueryError("join edges do not form a connected tree")
    return ordered


def join_prefix_key(query: ProjectJoinQuery) -> tuple:
    """The canonical identity of a query's join structure.

    Two queries share a join prefix exactly when they join the same
    tables over the same edges — projections and predicates are
    irrelevant.  Filters grouped under one prefix key can be validated
    in a single batched pass over the shared join, and physical join
    plans cached under it are reused across all of them.

    The key is computed once per (immutable) query and cached on it,
    unless the query was built with it already
    (:meth:`ProjectJoinQuery.over_tree`, as every filter's sub-query is).
    """
    cached = query.__dict__.get("_prefix_key")
    if cached is None:
        cached = tree_prefix_key(query.tables, query.joins)
        object.__setattr__(query, "_prefix_key", cached)
    return cached


def tree_prefix_key(tables: Iterable[str], joins: Iterable[ForeignKey]) -> tuple:
    """:func:`join_prefix_key` of any query over ``tables`` joined by
    ``joins``."""
    return (
        tuple(sorted(edge_key(edge) for edge in joins)),
        tuple(sorted(tables)),
    )
