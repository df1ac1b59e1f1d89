"""Project-Join query model, cost-based join ordering, SQL rendering and
semijoin-kernel execution; plan trees for explain."""

from repro.query.executor import BatchProbe, ExecutionStats, Executor
from repro.query.pj_query import ProjectJoinQuery
from repro.query.plan import (
    Filter,
    Join,
    PlanNode,
    PredicateSpec,
    Project,
    Scan,
    join_prefix_key,
)
from repro.query.planner import Planner
from repro.query.sql import (
    constraint_to_sql,
    parse_literal,
    render_literal,
    to_sql,
)

__all__ = [
    "BatchProbe",
    "ExecutionStats",
    "Executor",
    "Filter",
    "Join",
    "PlanNode",
    "Planner",
    "PredicateSpec",
    "Project",
    "ProjectJoinQuery",
    "Scan",
    "constraint_to_sql",
    "join_prefix_key",
    "parse_literal",
    "render_literal",
    "to_sql",
]
