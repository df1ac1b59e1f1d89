"""Renderers for query-explanation graphs and plan trees.

The demo draws the graph in a browser canvas; here we provide equivalent
artefacts that work in a terminal and in downstream tooling:

* :func:`to_dot` — Graphviz DOT text (orange boxes for relations, green
  ellipses for attributes, blue boxes for constraints, exactly as the
  paper describes Figure 4c);
* :func:`to_ascii` — a plain-text rendering for CLIs and logs;
* :func:`to_dict` — a JSON-serialisable structure for web frontends;
* :func:`plan_to_ascii` — the plan tree of a query's join order
  (``prism explain --plan``), annotated with the planner's estimated
  cardinalities and with which sub-structures are shared by other
  candidates of the same discovery round.
"""

from __future__ import annotations

import json
from typing import Iterable, Mapping, Optional

from repro.explain.graph import (
    NODE_ATTRIBUTE,
    NODE_CONSTRAINT,
    NODE_RELATION,
    QueryGraph,
)
from repro.query.plan import (
    Filter as PlanFilter,
    Join as PlanJoin,
    PlanNode,
    Scan as PlanScan,
    edge_key,
)
from repro.query.sql import to_sql

__all__ = [
    "to_dot",
    "to_ascii",
    "to_dict",
    "to_json",
    "plan_to_ascii",
    "structure_key",
    "shared_structure_counts",
]

_DOT_STYLES = {
    NODE_RELATION: 'shape=box, style=filled, fillcolor="orange"',
    NODE_ATTRIBUTE: 'shape=ellipse, style=filled, fillcolor="palegreen"',
    NODE_CONSTRAINT: 'shape=box, style="filled,dashed", fillcolor="lightblue"',
}


def _dot_escape(text: str) -> str:
    return text.replace('"', '\\"')


def to_dot(query_graph: QueryGraph, name: str = "schema_mapping") -> str:
    """Render the explanation graph as Graphviz DOT text."""
    lines = [f"graph {name} {{", "  rankdir=LR;"]
    for node, data in query_graph.graph.nodes(data=True):
        style = _DOT_STYLES.get(data.get("kind"), "shape=box")
        label = _dot_escape(str(data.get("label", node)))
        lines.append(f'  "{_dot_escape(node)}" [label="{label}", {style}];')
    for left, right, data in query_graph.graph.edges(data=True):
        attributes = ""
        if data.get("label"):
            attributes = f' [label="{_dot_escape(str(data["label"]))}"]'
        lines.append(
            f'  "{_dot_escape(left)}" -- "{_dot_escape(right)}"{attributes};'
        )
    lines.append("}")
    return "\n".join(lines)


def to_ascii(query_graph: QueryGraph) -> str:
    """Render the explanation graph as indented plain text."""
    graph = query_graph.graph
    lines = [f"query: {to_sql(query_graph.query)}", "relations:"]
    for node in sorted(query_graph.relation_nodes):
        data = graph.nodes[node]
        lines.append(f"  [{data['label']}]")
        for neighbor in sorted(graph.neighbors(node)):
            neighbor_data = graph.nodes[neighbor]
            if neighbor_data.get("kind") == NODE_ATTRIBUTE:
                lines.append(f"    project -> ({neighbor_data['label']})")
    join_edges = query_graph.join_edges()
    if join_edges:
        lines.append("joins:")
        for left, right in sorted(join_edges):
            label = graph.edges[left, right].get("label", "")
            lines.append(f"  {graph.nodes[left]['label']} == {graph.nodes[right]['label']}"
                         f"  ({label})")
    constraints = query_graph.constraint_nodes
    if constraints:
        lines.append("constraints:")
        for node in sorted(constraints):
            data = graph.nodes[node]
            targets = [
                graph.nodes[neighbor]["label"]
                for neighbor in graph.neighbors(node)
            ]
            lines.append(
                f"  <{data['label']}> ({data.get('source', 'constraint')}) "
                f"satisfied at {', '.join(sorted(targets))}"
            )
    return "\n".join(lines)


def to_dict(query_graph: QueryGraph) -> dict:
    """Render the explanation graph as a JSON-serialisable dictionary."""
    graph = query_graph.graph
    return {
        "sql": to_sql(query_graph.query),
        "nodes": [
            {
                "id": node,
                "kind": data.get("kind"),
                "label": data.get("label"),
                "color": data.get("color"),
                "shape": data.get("shape"),
            }
            for node, data in graph.nodes(data=True)
        ],
        "edges": [
            {
                "source": left,
                "target": right,
                "kind": data.get("kind"),
                "label": data.get("label"),
            }
            for left, right, data in graph.edges(data=True)
        ],
    }


def to_json(query_graph: QueryGraph, indent: int = 2) -> str:
    """Render the explanation graph as a JSON string."""
    return json.dumps(to_dict(query_graph), indent=indent)


# ----------------------------------------------------------------------
# Logical-plan rendering (``prism explain --plan``)
# ----------------------------------------------------------------------
def structure_key(node: PlanNode) -> Optional[tuple]:
    """Join-structure identity of a plan node, ignoring predicates.

    ``Scan`` and ``Filter``-over-scan nodes key on their table; ``Join``
    subtrees key on their edge set over their table set (the same
    identity the executor caches physical plans under).  ``Project``
    nodes return
    ``None`` — they are never shared.
    """
    if isinstance(node, PlanScan):
        return ("scan", node.table)
    if isinstance(node, PlanFilter):
        return structure_key(node.child)
    if isinstance(node, PlanJoin):
        return (
            "join",
            tuple(sorted(edge_key(edge) for edge in node.edges())),
            tuple(sorted(node.tables)),
        )
    return None


def shared_structure_counts(plans: Iterable[PlanNode]) -> dict[tuple, int]:
    """How many of ``plans`` contain each join sub-structure.

    Feed every candidate's plan tree in.  A count above one means
    the sub-structure occurs in several candidates' plans.  Physical
    plans are cached at *whole-query* join-structure granularity, so
    for a candidate's top-level join node the count is exactly the
    number of candidates sharing its cached plan; for strict
    sub-structures it reports structural overlap only (the seam a
    future sub-plan memo would exploit).
    """
    counts: dict[tuple, int] = {}
    for plan in plans:
        seen: set[tuple] = set()
        for node in plan.walk():
            key = structure_key(node)
            if key is not None and key not in seen:
                seen.add(key)
                counts[key] = counts.get(key, 0) + 1
    return counts


def plan_to_ascii(
    plan: PlanNode,
    planner=None,
    shared: Optional[Mapping[tuple, int]] = None,
) -> str:
    """Pretty-print a plan tree, indented.

    Args:
        plan: the plan tree (from
            :meth:`~repro.query.executor.Executor.logical_plan`).
        planner: when given, each node is annotated with the planner's
            estimated output cardinality (``~N rows``).
        shared: counts from :func:`shared_structure_counts`; nodes whose
            join structure occurs in more than one candidate are
            annotated ``structure in K candidates`` (for the plan's
            top-level join this is exactly the plan-cache sharing; for
            sub-structures it is structural overlap).
    """
    lines: list[str] = []

    def render(node: PlanNode, depth: int) -> None:
        annotations: list[str] = []
        if planner is not None:
            annotations.append(f"~{planner.estimated_rows(node):.3g} rows")
        if shared is not None:
            key = structure_key(node)
            count = shared.get(key, 0) if key is not None else 0
            if count > 1:
                annotations.append(f"structure in {count} candidates")
        suffix = f"  ({'; '.join(annotations)})" if annotations else ""
        lines.append("  " * depth + str(node) + suffix)
        for child in node.children():
            render(child, depth + 1)

    render(plan, 0)
    return "\n".join(lines)
