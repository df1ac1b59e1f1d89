"""SQL rendering for Project-Join queries.

The Result section of the demo shows the synthesized queries as SQL text
(Figure 4b).  Join trees never repeat a table, so no aliases are required
and the classic ``SELECT ... FROM ... WHERE`` comma-join form used in the
paper's example is emitted.  :func:`to_sql` renders straight from the
query: its projections, its tables in sorted order and its join
conditions in connected order (each edge touching a table an earlier
edge joined), so edge tuples the discovery pipeline builds, which are
already connected, render in the order the query lists them.

Passing the user's :class:`~repro.constraints.spec.MappingSpec` renders
the sample-value constraints as WHERE predicates too.  Sample cells are
user-typed text — names like ``O'Brien`` or disjunction syntax like
``California || Nevada`` must survive the trip into SQL — so every
constant goes through :func:`render_literal`, which escapes embedded
single quotes by doubling them (the one escape mechanism standard SQL
defines).  :func:`parse_literal` is the exact inverse, used by the
escaping round-trip tests.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.constraints.spec import MappingSpec
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
from repro.errors import QueryError
from repro.query.pj_query import ProjectJoinQuery
from repro.query.plan import _connected_edge_order

__all__ = [
    "to_sql",
    "render_literal",
    "parse_literal",
    "constraint_to_sql",
]


def _quote_identifier(name: str) -> str:
    """Quote an identifier only when it would otherwise be ambiguous."""
    if name.isidentifier():
        return name
    escaped = name.replace('"', '""')
    return f'"{escaped}"'


def render_literal(value: Any) -> str:
    """Render a Python constant as a SQL literal.

    Strings are single-quoted with embedded single quotes doubled
    (``O'Brien`` → ``'O''Brien'``); other content — ``||``, semicolons,
    comment markers — needs no escaping once inside a correctly quoted
    string.  ``None`` renders as ``NULL`` and booleans as ``TRUE``/
    ``FALSE`` (before the int check: ``bool`` subclasses ``int``).
    """
    if value is None:
        return "NULL"
    if value is True:
        return "TRUE"
    if value is False:
        return "FALSE"
    if isinstance(value, (int, float)):
        return repr(value)
    text = str(value)
    return "'" + text.replace("'", "''") + "'"


def parse_literal(text: str) -> Any:
    """The inverse of :func:`render_literal` (round-trip support).

    Raises :class:`QueryError` for malformed literals, e.g. a quoted
    string with an unescaped embedded quote.
    """
    stripped = text.strip()
    upper = stripped.upper()
    if upper == "NULL":
        return None
    if upper == "TRUE":
        return True
    if upper == "FALSE":
        return False
    if stripped.startswith("'"):
        if len(stripped) < 2 or not stripped.endswith("'"):
            raise QueryError(f"unterminated string literal: {text!r}")
        body = stripped[1:-1]
        # Every remaining quote must come in escaped pairs.
        unescaped = body.replace("''", "")
        if "'" in unescaped:
            raise QueryError(f"unescaped quote inside string literal: {text!r}")
        return body.replace("''", "'")
    try:
        return int(stripped)
    except ValueError:
        pass
    try:
        return float(stripped)
    except ValueError as exc:
        raise QueryError(f"unrecognized SQL literal: {text!r}") from exc


def constraint_to_sql(column_sql: str, constraint: ValueConstraint) -> str:
    """Render one value constraint as a SQL predicate over ``column_sql``."""
    if isinstance(constraint, ExactValue):
        return f"{column_sql} = {render_literal(constraint.value)}"
    if isinstance(constraint, OneOf):
        if len(constraint.values) == 1:
            return f"{column_sql} = {render_literal(constraint.values[0])}"
        rendered = ", ".join(render_literal(value) for value in constraint.values)
        return f"{column_sql} IN ({rendered})"
    if isinstance(constraint, Range):
        parts = []
        if constraint.low is not None:
            op = ">=" if constraint.low_inclusive else ">"
            parts.append(f"{column_sql} {op} {render_literal(constraint.low)}")
        if constraint.high is not None:
            op = "<=" if constraint.high_inclusive else "<"
            parts.append(f"{column_sql} {op} {render_literal(constraint.high)}")
        return " AND ".join(parts)
    if isinstance(constraint, Predicate):
        op = {"==": "=", "!=": "<>"}.get(constraint.op, constraint.op)
        return f"{column_sql} {op} {render_literal(constraint.constant)}"
    if isinstance(constraint, Conjunction):
        joined = " AND ".join(
            constraint_to_sql(column_sql, part) for part in constraint.parts
        )
        return f"({joined})"
    if isinstance(constraint, Disjunction):
        joined = " OR ".join(
            constraint_to_sql(column_sql, part) for part in constraint.parts
        )
        return f"({joined})"
    if isinstance(constraint, AnyValue):
        return f"{column_sql} IS NOT NULL"
    # User-defined constraint classes have no SQL equivalent; the cell
    # being non-NULL is the only part expressible in the rendered query.
    return f"{column_sql} IS NOT NULL"


def _sample_predicates(projections, spec: MappingSpec) -> list[str]:
    """One parenthesized AND-group per sample row carrying constraints."""
    groups = []
    for sample in spec.samples:
        parts = []
        for position, ref in enumerate(projections):
            if position >= sample.width:
                break
            cell = sample.cell(position)
            if cell is None:
                continue
            column_sql = (
                f"{_quote_identifier(ref.table)}.{_quote_identifier(ref.column)}"
            )
            parts.append(constraint_to_sql(column_sql, cell))
        if parts:
            groups.append("(" + " AND ".join(parts) + ")")
    return groups


def to_sql(
    query: ProjectJoinQuery,
    pretty: bool = False,
    spec: Optional[MappingSpec] = None,
) -> str:
    """Render ``query`` as a SQL string.

    Args:
        query: the Project-Join query to render.
        pretty: when ``True``, place each clause on its own line.
        spec: when given, the spec's sample-value constraints are rendered
            as additional WHERE predicates (one OR-connected group per
            sample row), with all constants escaped via
            :func:`render_literal`.
    """
    select_list = ", ".join(
        f"{_quote_identifier(ref.table)}.{_quote_identifier(ref.column)}"
        for ref in query.projections
    )
    from_list = ", ".join(
        _quote_identifier(table) for table in sorted(query.tables)
    )
    conditions = [
        f"{_quote_identifier(edge.child_table)}."
        f"{_quote_identifier(edge.child_column)} = "
        f"{_quote_identifier(edge.parent_table)}."
        f"{_quote_identifier(edge.parent_column)}"
        for edge in (_connected_edge_order(query) if query.joins else ())
    ]
    if spec is not None:
        groups = _sample_predicates(query.projections, spec)
        if groups:
            conditions.append(
                groups[0] if len(groups) == 1 else "(" + " OR ".join(groups) + ")"
            )
    separator = "\n" if pretty else " "
    parts = [f"SELECT {select_list}", f"FROM {from_list}"]
    if conditions:
        parts.append("WHERE " + " AND ".join(conditions))
    return separator.join(parts)
