"""Reference planner and SQL renderer for the plan differential test.

This is the query path as it stood while every query lowered through a
logical-plan tree, kept verbatim below this docstring except that each
``Planner`` method became a function taking the planner whose
estimators it drives, and the ``Exists`` wrapper, which no caller
requested, is gone:

* :func:`logical_plan_for_query` builds the unoptimized tree in
  connected edge order, each predicate in a ``Filter`` above its scan;
* :func:`optimize` takes a tree apart into inputs and edges,
  :func:`order_edges` orders them greedily by estimated cost, and
  :func:`optimize` rebuilds the tree left-deep in that order;
* :func:`join_order` walks the rebuilt tree back to a start table and
  an edge tuple, and :func:`structure_rows` re-estimates the rebuilt
  tree, memoized per join prefix;
* :func:`logical_plan` is the explain tree: the structural plan with
  predicates overlaid by :func:`attach_predicates`;
* :func:`to_sql` renders the unoptimized tree through
  :func:`plan_to_sql`.

It is the oracle :mod:`tests.query.test_plan_reference` holds
:class:`repro.query.planner.Planner`, :func:`repro.query.sql.to_sql`
and :meth:`repro.query.executor.Executor.logical_plan` to.  Nothing
under ``src/`` imports this module.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.constraints.spec import MappingSpec
from repro.dataset.schema import ForeignKey
from repro.errors import QueryError
from repro.query.pj_query import ProjectJoinQuery
from repro.query.plan import (
    Filter,
    Join,
    PlanNode,
    PredicateSpec,
    Project,
    Scan,
    _connected_edge_order,
    join_prefix_key,
)
from repro.query.planner import JoinOrder, Planner
from repro.query.sql import _quote_identifier, _sample_predicates


def logical_plan_for_query(
    query: ProjectJoinQuery,
    predicates: Optional[Sequence[PredicateSpec]] = None,
) -> PlanNode:
    per_table: dict[str, list[PredicateSpec]] = {}
    for spec in predicates or ():
        per_table.setdefault(spec.table, []).append(spec)

    def leaf(table: str) -> PlanNode:
        scan: PlanNode = Scan(table)
        specs = per_table.get(table)
        if specs:
            return Filter(scan, tuple(specs))
        return scan

    if not query.joins:
        table = next(iter(query.tables))
        plan: PlanNode = leaf(table)
    else:
        ordered = _connected_edge_order(query)
        first = ordered[0]
        joined = {first.tables()[0]}
        plan = leaf(first.tables()[0])
        for edge in ordered:
            left_table, right_table = edge.tables()
            new_table = right_table if left_table in joined else left_table
            if new_table in joined:
                # Defensive: a tree never revisits a table; keep the
                # edge anyway as a redundant join for faithfulness.
                plan = Join(plan, leaf(new_table), edge)
                continue
            plan = Join(plan, leaf(new_table), edge)
            joined.add(new_table)
    plan = Project(plan, query.projections)
    return plan


def attach_predicates(
    plan: PlanNode, specs: Sequence[PredicateSpec]
) -> PlanNode:
    per_table: dict[str, list[PredicateSpec]] = {}
    for spec in specs:
        per_table.setdefault(spec.table, []).append(spec)
    if not per_table:
        return plan

    def rebuild(node: PlanNode) -> PlanNode:
        if isinstance(node, Scan):
            mine = per_table.get(node.table)
            return Filter(node, tuple(mine)) if mine else node
        if isinstance(node, Filter):
            child = node.child
            extra: tuple[PredicateSpec, ...] = ()
            if isinstance(child, Scan):
                extra = tuple(per_table.get(child.table, ()))
            else:
                child = rebuild(child)
            return Filter(child, node.specs + extra)
        if isinstance(node, Join):
            return Join(rebuild(node.left), rebuild(node.right), node.edge)
        if isinstance(node, Project):
            return Project(rebuild(node.child), node.columns)
        raise QueryError(f"cannot attach predicates to {node!r}")

    return rebuild(plan)


def optimize(planner: Planner, plan: PlanNode) -> PlanNode:
    wrappers: list[PlanNode] = []
    body = plan
    while isinstance(body, Project):
        wrappers.append(body)
        body = body.child
    if not isinstance(body, Join):
        return plan

    inputs: dict[str, PlanNode] = {}
    edges: list[ForeignKey] = []
    stack: list[PlanNode] = [body]
    while stack:
        node = stack.pop()
        if isinstance(node, Join):
            edges.append(node.edge)
            stack.extend((node.left, node.right))
        else:
            table = _input_table(node)
            inputs[table] = node
    order = order_edges(planner, inputs, edges)
    ordered_body: PlanNode = inputs[order.start_table]
    joined = {order.start_table}
    for edge in order.edges:
        left_table, right_table = edge.tables()
        new_table = right_table if left_table in joined else left_table
        ordered_body = Join(ordered_body, inputs[new_table], edge)
        joined.add(new_table)

    for wrapper in reversed(wrappers):
        ordered_body = Project(ordered_body, wrapper.columns)
    return ordered_body


def _input_table(node: PlanNode) -> str:
    if isinstance(node, Scan):
        return node.table
    if isinstance(node, Filter) and isinstance(node.child, Scan):
        return node.child.table
    raise QueryError(
        f"join input must be a (filtered) scan, got {node!r}"
    )


def order_edges(
    planner: Planner, inputs: dict[str, PlanNode], edges: list[ForeignKey]
) -> JoinOrder:
    input_rows = {
        table: planner.estimated_rows(node) for table, node in inputs.items()
    }
    start = min(input_rows, key=lambda table: (input_rows[table], table))
    joined = {start}
    current_rows = input_rows[start]
    remaining = list(edges)
    ordered: list[ForeignKey] = []
    while remaining:
        best: Optional[tuple[float, str, ForeignKey, str]] = None
        for edge in remaining:
            left, right = edge.tables()
            if left in joined and right in joined:
                new_table = left  # redundant edge; apply as a filter
                cost = current_rows
            elif left in joined:
                new_table = right
                cost = planner._join_rows(
                    current_rows, input_rows[right], edge
                )
            elif right in joined:
                new_table = left
                cost = planner._join_rows(
                    current_rows, input_rows[left], edge
                )
            else:
                continue
            candidate = (cost, new_table, edge, str(edge))
            if best is None or (candidate[0], candidate[3]) < (
                best[0], best[3]
            ):
                best = candidate
        if best is None:
            raise QueryError("join edges do not form a connected tree")
        cost, new_table, edge, __ = best
        ordered.append(edge)
        joined.add(new_table)
        current_rows = cost
        remaining.remove(edge)
    return JoinOrder(start, tuple(ordered))


def plan_query(
    planner: Planner,
    query: ProjectJoinQuery,
    predicates: Optional[tuple[PredicateSpec, ...]] = None,
) -> PlanNode:
    return optimize(planner, logical_plan_for_query(query, predicates))


def join_order(planner: Planner, query: ProjectJoinQuery) -> JoinOrder:
    if not query.joins:
        return JoinOrder(next(iter(query.tables)), ())
    plan = plan_query(planner, query)
    body: PlanNode = plan
    while isinstance(body, Project):
        body = body.child
    edges_in_order: list[ForeignKey] = []
    node = body
    while isinstance(node, Join):
        edges_in_order.append(node.edge)
        node = node.left
    edges_in_order.reverse()
    return JoinOrder(_input_table(node), tuple(edges_in_order))


def structure_rows(
    planner: Planner, query: ProjectJoinQuery, memo: dict
) -> float:
    """Memoized in ``memo`` per join prefix, as the planner memoizes."""
    key = join_prefix_key(query)
    cached = memo.get(key)
    if cached is None:
        cached = planner.estimated_rows(plan_query(planner, query))
        memo[key] = cached
    return cached


def logical_plan(
    planner: Planner,
    query: ProjectJoinQuery,
    predicates: Optional[Sequence[PredicateSpec]] = None,
) -> PlanNode:
    plan = plan_query(planner, query)
    if predicates:
        plan = attach_predicates(plan, tuple(predicates))
    return plan


def _join_conditions(node: PlanNode) -> list[str]:
    if isinstance(node, Join):
        conditions = _join_conditions(node.left)
        conditions.extend(_join_conditions(node.right))
        edge = node.edge
        conditions.append(
            f"{_quote_identifier(edge.child_table)}."
            f"{_quote_identifier(edge.child_column)} = "
            f"{_quote_identifier(edge.parent_table)}."
            f"{_quote_identifier(edge.parent_column)}"
        )
        return conditions
    conditions = []
    for child in node.children():
        conditions.extend(_join_conditions(child))
    return conditions


def plan_to_sql(
    plan: PlanNode,
    pretty: bool = False,
    spec: Optional[MappingSpec] = None,
) -> str:
    project = next(
        (node for node in plan.walk() if isinstance(node, Project)), None
    )
    if project is None:
        raise QueryError("cannot render a plan without a Project node")
    select_list = ", ".join(
        f"{_quote_identifier(ref.table)}.{_quote_identifier(ref.column)}"
        for ref in project.columns
    )
    tables = sorted(plan.tables)
    from_list = ", ".join(_quote_identifier(table) for table in tables)
    conditions = _join_conditions(plan)
    if spec is not None:
        groups = _sample_predicates(project.columns, spec)
        if groups:
            conditions.append(
                groups[0] if len(groups) == 1 else "(" + " OR ".join(groups) + ")"
            )
    separator = "\n" if pretty else " "
    parts = [f"SELECT {select_list}", f"FROM {from_list}"]
    if conditions:
        parts.append("WHERE " + " AND ".join(conditions))
    return separator.join(parts)


def to_sql(
    query: ProjectJoinQuery,
    pretty: bool = False,
    spec: Optional[MappingSpec] = None,
) -> str:
    return plan_to_sql(logical_plan_for_query(query), pretty=pretty, spec=spec)
