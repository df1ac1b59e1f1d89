"""Project-Join query model, logical-plan IR, cost-based planner, SQL
rendering and semijoin-kernel execution."""

from repro.query.executor import BatchProbe, ExecutionStats, Executor
from repro.query.pj_query import ProjectJoinQuery
from repro.query.plan import (
    Exists,
    Filter,
    Join,
    PlanNode,
    PredicateSpec,
    Project,
    Scan,
    join_prefix_key,
    logical_plan_for_query,
)
from repro.query.planner import Planner
from repro.query.sql import (
    constraint_to_sql,
    parse_literal,
    plan_to_sql,
    render_literal,
    to_sql,
)

__all__ = [
    "BatchProbe",
    "ExecutionStats",
    "Executor",
    "Exists",
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
    "logical_plan_for_query",
    "parse_literal",
    "plan_to_sql",
    "render_literal",
    "to_sql",
]
