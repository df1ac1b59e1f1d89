"""Command line interface for the Prism workbench.

Subcommands mirror what a demo attendee would do in the web UI:

* ``prism databases`` — list the bundled source databases;
* ``prism schema <database>`` — show tables, columns and row counts;
* ``prism search ...`` — run one round of multiresolution discovery;
* ``prism explain ...`` — run a round and explain one discovered query,
  either as the paper's explanation graph or (``--plan``) as the
  optimized logical plan with estimated cardinalities and
  cross-candidate shared-prefix annotations;
* ``prism serve-batch ...`` — drive many (mixed-database) rounds through
  the concurrent :class:`~repro.api.DiscoveryService`;
* ``prism demo`` — replay the §3 Lake Tahoe walk-through end to end.

Sample rows are given with ``--sample`` (repeatable, one per row) using
``;`` between cells, e.g. ``--sample "California || Nevada;Lake Tahoe;"``.
Metadata constraints use ``--metadata COLUMN:TEXT``.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from repro.api import (
    ArtifactStore,
    DiscoveryService,
    demo_requests,
    request_from_dict,
)
from repro.datasets import available_databases, load_database_by_name
from repro.discovery.engine import DEFAULT_TIME_LIMIT_SECONDS
from repro.discovery.result import DiscoveryResult
from repro.errors import ReproError
from repro.workbench.session import PrismSession

__all__ = ["main", "build_parser"]


def _add_deadline_arguments(sub_parser: argparse.ArgumentParser) -> None:
    """The ``--deadline-s`` per-round budget flag."""
    sub_parser.add_argument(
        "--deadline-s",
        dest="deadline_s",
        type=float,
        default=DEFAULT_TIME_LIMIT_SECONDS,
        help="per-round budget in seconds (queue wait counts against it); "
             f"default {DEFAULT_TIME_LIMIT_SECONDS:g}",
    )


def build_parser() -> argparse.ArgumentParser:
    """Build the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="prism",
        description="Multiresolution schema mapping (Prism, CIDR 2019 reproduction)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("databases", help="list the bundled source databases")

    schema_parser = subparsers.add_parser(
        "schema", help="show the schema of a bundled database"
    )
    schema_parser.add_argument("database", choices=available_databases())

    def add_spec_arguments(sub_parser: argparse.ArgumentParser) -> None:
        sub_parser.add_argument("--database", required=True,
                                choices=available_databases())
        sub_parser.add_argument("--columns", type=int, required=True,
                                help="number of columns in the target schema")
        sub_parser.add_argument(
            "--sample",
            action="append",
            default=[],
            help="one sample row; cells separated by ';' (repeatable)",
        )
        sub_parser.add_argument(
            "--metadata",
            action="append",
            default=[],
            help="metadata constraint as COLUMN:TEXT (repeatable)",
        )
        sub_parser.add_argument("--scheduler", default="bayesian",
                                choices=["naive", "filter", "bayesian", "optimal"])
        _add_deadline_arguments(sub_parser)

    search_parser = subparsers.add_parser(
        "search", help="run one round of schema mapping discovery"
    )
    add_spec_arguments(search_parser)
    search_parser.add_argument("--max-queries", type=int, default=10,
                               help="maximum number of queries to print")
    search_parser.add_argument("--explain", type=int, default=None,
                               help="print the explanation graph of query #N (1-based)")
    search_parser.add_argument(
        "--fail-on-timeout",
        action="store_true",
        help="exit with status 3 when the round hits its time limit "
             "(partial queries and stats are still printed)",
    )

    explain_parser = subparsers.add_parser(
        "explain",
        help="run one discovery round and explain one of its queries",
    )
    add_spec_arguments(explain_parser)
    explain_parser.add_argument("--query", type=int, default=1,
                                help="which discovered query to explain (1-based)")
    explain_parser.add_argument(
        "--plan",
        action="store_true",
        help="print the optimized logical plan (estimated cardinalities "
             "and cross-candidate shared-prefix annotations) instead of "
             "the explanation graph",
    )

    serve_parser = subparsers.add_parser(
        "serve-batch",
        help="run a batch of discovery requests through the concurrent service",
    )
    serve_parser.add_argument("--workers", type=int, default=1,
                              help="worker processes with --shard-mode "
                                   "process; thread mode runs exactly one")
    serve_parser.add_argument(
        "--shard-mode",
        dest="shard_mode",
        choices=["thread", "process"],
        default="thread",
        help="'thread' serves from one in-process worker; 'process' runs "
             "--workers long-lived worker processes, each holding every "
             "database, that exchange versioned JSON messages",
    )
    serve_parser.add_argument(
        "--start-method",
        dest="start_method",
        choices=["fork", "spawn", "forkserver"],
        default=None,
        help="multiprocessing start method for --shard-mode process "
             "(platform default when omitted)",
    )
    serve_parser.add_argument("--queue-size", type=int, default=64,
                              help="bound on queued requests (backpressure)")
    serve_parser.add_argument(
        "--requests",
        default=None,
        help="JSON file with a list of request objects "
             "({database, columns, samples, metadata, ...}); "
             "omit to run the built-in mixed demo workload",
    )
    serve_parser.add_argument("--rounds", type=int, default=1,
                              help="repetitions of the built-in demo workload")
    serve_parser.add_argument("--scheduler", default="bayesian",
                              choices=["naive", "filter", "bayesian", "optimal"])
    _add_deadline_arguments(serve_parser)
    serve_parser.add_argument(
        "--artifact-dir",
        default=None,
        help="persist preprocessing artifacts under this directory so "
             "later runs warm-start",
    )
    serve_parser.add_argument(
        "--refresh",
        action="store_true",
        help="maintain cached artifacts incrementally: databases that "
             "grew by appends between requests are caught up by folding "
             "the delta into the cached bundle instead of rebuilding it",
    )

    demo_parser = subparsers.add_parser(
        "demo", help="replay the paper's Lake Tahoe walk-through"
    )
    demo_parser.add_argument("--scheduler", default="bayesian",
                             choices=["naive", "filter", "bayesian", "optimal"])
    return parser


def _command_databases() -> int:
    for name in available_databases():
        print(name)
    return 0


def _command_schema(database_name: str) -> int:
    database = load_database_by_name(database_name)
    print(f"database: {database.name} ({database.total_rows} rows)")
    for table in database:
        column_list = ", ".join(
            f"{column.name}:{column.data_type.value}" for column in table.columns
        )
        print(f"  {table.name} ({table.num_rows} rows): {column_list}")
    if database.foreign_keys:
        print("foreign keys:")
        for foreign_key in database.foreign_keys:
            print(f"  {foreign_key}")
    return 0


def _describe_session(args: argparse.Namespace) -> Optional[PrismSession]:
    """Build a session from the shared spec arguments (None on bad input)."""
    session = PrismSession()
    num_samples = len(args.sample)
    session.configure(
        database=args.database,
        num_columns=args.columns,
        num_samples=num_samples,
        use_metadata=True,
        scheduler=args.scheduler,
        time_limit=args.deadline_s,
    )
    for row, sample_text in enumerate(args.sample):
        cells = sample_text.split(";")
        if len(cells) > args.columns:
            print(
                f"error: sample {row + 1} has {len(cells)} cells but the target "
                f"schema has {args.columns} columns",
                file=sys.stderr,
            )
            return None
        for column, cell_text in enumerate(cells):
            session.set_sample_cell(row, column, cell_text)
    for metadata_text in args.metadata:
        column_text, __, constraint_text = metadata_text.partition(":")
        try:
            column = int(column_text)
        except ValueError:
            print(
                f"error: --metadata expects COLUMN:TEXT, got {metadata_text!r}",
                file=sys.stderr,
            )
            return None
        session.set_metadata_constraint(column, constraint_text)
    return session


def _search(session: PrismSession) -> Optional[DiscoveryResult]:
    """Run the session's round; bad input prints one line (None)."""
    try:
        return session.search()
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None


def _command_search(args: argparse.Namespace) -> int:
    session = _describe_session(args)
    if session is None:
        return 2
    result = _search(session)
    if result is None:
        return 2
    stats = result.stats
    print(
        f"{result.num_queries} satisfying queries "
        f"({stats.num_candidates} candidates, {stats.num_filters} filters, "
        f"{stats.validations} validations, {stats.elapsed_seconds:.2f}s, "
        f"scheduler={stats.scheduler_name})"
    )
    if result.timed_out:
        # Timeouts are a structured outcome: the partial queries and the
        # per-stage stats above are still printed, never a bare error.
        print("warning: discovery hit the time limit; results are partial")
    for index, sql in enumerate(result.sql()[: args.max_queries], start=1):
        print(f"  [{index}] {sql}")
    if result.num_queries > args.max_queries:
        print(f"  ... and {result.num_queries - args.max_queries} more")
    if args.explain is not None and result.num_queries:
        index = min(max(args.explain, 1), result.num_queries) - 1
        session.select_query(index)
        print()
        print(session.explain(fmt="ascii"))
    if result.timed_out and args.fail_on_timeout:
        return 3
    return 0


def _command_explain(args: argparse.Namespace) -> int:
    session = _describe_session(args)
    if session is None:
        return 2
    result = _search(session)
    if result is None:
        return 2
    if not result.num_queries:
        print("no satisfying queries to explain", file=sys.stderr)
        return 1
    index = min(max(args.query, 1), result.num_queries) - 1
    session.select_query(index)
    print(f"query [{index + 1}]: {session.sql()}")
    if args.plan:
        print(session.explain_plan())
    else:
        print(session.explain(fmt="ascii"))
    return 0


def _command_serve_batch(args: argparse.Namespace) -> int:
    if args.requests is not None:
        try:
            with open(args.requests, "r", encoding="utf-8") as handle:
                entries = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"error: could not read {args.requests!r}: {exc}",
                  file=sys.stderr)
            return 2
        if not isinstance(entries, list):
            print("error: the requests file must hold a JSON list",
                  file=sys.stderr)
            return 2
        try:
            requests = [request_from_dict(entry) for entry in entries]
        except ReproError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    else:
        try:
            requests = demo_requests(rounds=args.rounds, scheduler=args.scheduler)
        except ReproError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    store = ArtifactStore(persist_dir=args.artifact_dir)
    try:
        service = DiscoveryService(
            store=store,
            workers=args.workers,
            queue_size=args.queue_size,
            default_scheduler=args.scheduler,
            default_deadline_s=args.deadline_s,
            refresh_artifacts=args.refresh,
            shard_mode=args.shard_mode,
            start_method=args.start_method,
        )
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    with service:
        responses = service.run_batch(requests)
        metrics = service.metrics()
    failures = 0
    for response in responses:
        line = (
            f"[{response.request_id}] {response.database}: {response.status}"
            f" — {response.num_queries} queries"
        )
        if response.result is not None:
            line += (
                f" ({response.result.stats.validations} validations, "
                f"exec {response.execution_seconds:.2f}s, "
                f"queued {response.queued_seconds:.2f}s)"
            )
        if response.status == "error":
            line += f" ({response.error})"
            failures += 1
        print(line)
    artifacts = metrics.artifacts
    worker_noun = "shard" if args.shard_mode == "process" else "worker"
    plural = "" if args.workers == 1 else "s"
    print(
        f"served {metrics.completed} requests with {args.workers} "
        f"{worker_noun}{plural} ({args.shard_mode} mode): "
        f"{metrics.ok} ok, {metrics.timeouts} timeout, {metrics.errors} error"
    )
    if metrics.shards:
        per_shard = ", ".join(
            f"shard {shard_id}: {info['served']} served"
            for shard_id, info in sorted(metrics.shards.items())
        )
        print(f"shard breakdown: {per_shard}")
    print(
        f"artifact store: {artifacts['builds']} builds, "
        f"{artifacts['hits']} cache hits, {artifacts['disk_loads']} disk loads"
    )
    if args.refresh:
        print(
            f"incremental refresh: {artifacts['refreshes']} refreshes "
            f"({artifacts['delta_rows_applied']} delta rows applied), "
            f"{artifacts['rebuild_fallbacks']} rebuild fallbacks"
        )
    print(
        f"latency: mean {metrics.latency_mean_seconds:.2f}s, "
        f"p95 {metrics.latency_p95_seconds:.2f}s, "
        f"max {metrics.latency_max_seconds:.2f}s"
    )
    return 1 if failures else 0


def _command_demo(scheduler: str) -> int:
    """The §3 walk-through: Lake Tahoe on Mondial."""
    session = PrismSession()
    print("1. Configuration: Mondial, 3 target columns, 1 sample, metadata on")
    session.configure("mondial", num_columns=3, num_samples=1,
                      use_metadata=True, scheduler=scheduler)
    print("2. Description:")
    print("   2.1 sample cell 1 <- 'California || Nevada'")
    session.set_sample_cell(0, 0, "California || Nevada")
    print("   2.2 sample cell 2 <- 'Lake Tahoe'")
    session.set_sample_cell(0, 1, "Lake Tahoe")
    print("   2.3 metadata cell 3 <- \"DataType=='decimal' AND MinValue>=0\"")
    session.set_metadata_constraint(2, "DataType=='decimal' AND MinValue>=0")
    print("3. Start Searching!")
    result = session.search()
    print(f"4. Result: {result.num_queries} satisfying queries "
          f"({result.stats.validations} filter validations, "
          f"{result.stats.elapsed_seconds:.2f}s)")
    for index, sql in enumerate(result.sql()[:5], start=1):
        print(f"   [{index}] {sql}")
    if result.num_queries:
        session.select_query(0)
        print("4.2 explanation of the first query:")
        print(session.explain(fmt="ascii"))
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "databases":
        return _command_databases()
    if args.command == "schema":
        return _command_schema(args.database)
    if args.command == "search":
        return _command_search(args)
    if args.command == "explain":
        return _command_explain(args)
    if args.command == "serve-batch":
        return _command_serve_batch(args)
    if args.command == "demo":
        return _command_demo(args.scheduler)
    parser.error(f"unknown command {args.command!r}")
    return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
