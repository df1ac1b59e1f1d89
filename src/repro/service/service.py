"""A multi-session front door for query discovery: one thread or process shards.

The demo paper pitches Prism as an *interactive, multi-user* system with a
60-second-per-round budget (§2.2).  :class:`DiscoveryService` is the
serving layer that makes the reproduction behave that way:

* an **executor** runs discovery rounds, each on a cheap per-request
  :class:`~repro.discovery.engine.Prism` engine layered over shared
  immutable artifacts from an :class:`~repro.api.ArtifactStore`.  Each
  serving mode has one shape: ``shard_mode="thread"`` runs exactly one
  in-process worker thread over the service's own store (the GIL would
  serialize a second one's pure-Python discovery work), and
  ``shard_mode="process"`` runs ``workers`` identical long-lived worker
  *processes*, each holding every database and warm-starting its
  artifacts from the store's ``persist_dir``; requests cross the process
  boundary as versioned JSON frames — see :mod:`repro.service.wire` and
  :mod:`repro.service.shards`;
* a **bounded request queue** applies backpressure — when it is full,
  :meth:`DiscoveryService.submit` raises
  :class:`~repro.errors.ServiceOverloaded` instead of buffering without
  limit;
* every request carries a **deadline** (``deadline_s``): time spent
  waiting in the queue counts against the round's interactive budget, and
  a request whose budget expired before a worker picked it up is answered
  with a timeout response instead of being run;
* tickets support **cancellation** while queued, and the service keeps
  **metrics** (in-flight/completed counts, latency statistics, artifact
  cache hits vs builds — per shard and merged, in process mode).

The front door is identical in both modes: queueing, cancellation,
deadline accounting and backpressure all happen in the submitting
process, so a request queued behind a busy shard can still be cancelled
or expire without any IPC.

Timeouts are structured results, never opaque errors: a round that hits
its budget returns ``status="timeout"`` with the partial
:class:`~repro.discovery.result.DiscoveryResult` attached.
"""

from __future__ import annotations

import itertools
import logging
import queue
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Sequence

from repro.constraints.spec import MappingSpec
from repro.dataset.database import Database
from repro.discovery.candidates import GenerationLimits
from repro.discovery.engine import DEFAULT_TIME_LIMIT_SECONDS, Prism
from repro.discovery.result import DiscoveryResult, DiscoveryStats
from repro.discovery.scheduler import make_policy
from repro.errors import (
    DiscoveryError,
    DiscoveryTimeout,
    ReproError,
    ServiceError,
    ServiceOverloaded,
)
from repro.service import wire as _wire
from repro.service.artifacts import ArtifactStore, ArtifactStoreStats

__all__ = [
    "DiscoveryRequest",
    "DiscoveryResponse",
    "DiscoveryTicket",
    "DiscoveryService",
    "ServiceMetrics",
]

_LATENCY_WINDOW = 1024

_log = logging.getLogger(__name__)

_SHARD_MODES = ("thread", "process")


def _merge_counts(target: dict, delta: Mapping) -> dict:
    """Fold one nested counter dict into another (ints add, dicts recurse)."""
    for key, value in delta.items():
        if isinstance(value, Mapping):
            _merge_counts(target.setdefault(key, {}), value)
        else:
            target[key] = target.get(key, 0) + value
    return target


@dataclass(frozen=True)
class DiscoveryRequest:
    """One discovery round as submitted to the service.

    ``deadline_s`` is the round's interactive budget in seconds — queue
    wait counts against it, so it is a *deadline*, not a pure execution
    limit.

    Requests are wire-serializable: :meth:`to_json` /
    :meth:`from_json` round-trip through the versioned v1 format of
    :mod:`repro.service.wire`, which is how they cross the process-shard
    IPC boundary.  ``prism serve-batch --requests`` files use the plain
    text form of :func:`~repro.service.workload.request_from_dict`
    instead (constraints in the textual syntax).
    """

    database: str
    spec: MappingSpec
    scheduler: Optional[str] = None
    deadline_s: Optional[float] = None
    request_id: Optional[str] = None

    def to_json(self) -> str:
        """This request as a versioned v1 wire message (JSON text)."""
        return _wire.dumps(_wire.request_to_wire(self))

    @classmethod
    def from_json(cls, text: str) -> "DiscoveryRequest":
        """Decode a request from v1 wire JSON.

        Raises:
            WireFormatError: the payload is not valid v1 — wrong
                ``api_version``, missing fields, or unknown fields.
        """
        return _wire.request_from_wire(_wire.loads(text))


@dataclass
class DiscoveryResponse:
    """The structured outcome of one request.

    ``status`` is one of ``ok``, ``timeout``, ``cancelled`` or ``error``.
    A ``timeout`` response still carries the partial result (whatever
    queries were confirmed before the budget ran out) plus its stats.

    Responses decoded from the wire (:meth:`from_json`, and everything a
    process shard returns) carry a
    :class:`~repro.service.wire.RemoteDiscoveryResult`: same ``sql()``,
    ``num_queries`` and ``stats``, but the live query objects stayed on
    the side that ran the round.
    """

    request_id: str
    database: str
    status: str
    result: Optional[DiscoveryResult] = None
    error: Optional[str] = None
    queued_seconds: float = 0.0
    execution_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        """Whether the round ran to completion within its budget."""
        return self.status == "ok"

    @property
    def num_queries(self) -> int:
        """Number of (possibly partial) discovered queries."""
        return self.result.num_queries if self.result is not None else 0

    def to_json(self) -> str:
        """This response as a versioned v1 wire message (JSON text)."""
        return _wire.dumps(_wire.response_to_wire(self))

    @classmethod
    def from_json(cls, text: str) -> "DiscoveryResponse":
        """Decode a response from v1 wire JSON.

        Raises:
            WireFormatError: the payload is not valid v1 — wrong
                ``api_version``, missing fields, or unknown fields.
        """
        return _wire.response_from_wire(_wire.loads(text))


class DiscoveryTicket:
    """Future-like handle for a submitted request."""

    def __init__(self, request: DiscoveryRequest):
        self.request = request
        self.submitted_at = time.monotonic()
        self._done = threading.Event()
        self._response: Optional[DiscoveryResponse] = None
        self._cancelled = False
        self._started = False
        self._lock = threading.Lock()

    def cancel(self) -> bool:
        """Cancel the request if no worker has started it yet.

        Returns ``True`` when the cancellation took effect.  A cancelled
        ticket resolves to a ``status="cancelled"`` response.
        """
        with self._lock:
            if self._started or self._done.is_set():
                return False
            self._cancelled = True
            return True

    def done(self) -> bool:
        """Whether a response is available."""
        return self._done.is_set()

    def result(self, timeout: Optional[float] = None) -> DiscoveryResponse:
        """Block until the response is available and return it."""
        if not self._done.is_set() and not self._done.wait(timeout):
            raise ServiceError(
                f"request {self.request.request_id or '?'} did not complete "
                f"within {timeout} seconds"
            )
        assert self._response is not None
        return self._response

    # -- worker-side hooks ---------------------------------------------
    def _try_start(self) -> bool:
        with self._lock:
            if self._cancelled:
                return False
            self._started = True
            return True

    def _resolve(self, response: DiscoveryResponse) -> None:
        self._response = response
        self._done.set()


@dataclass
class ServiceMetrics:
    """A point-in-time snapshot of service health."""

    submitted: int = 0
    completed: int = 0
    ok: int = 0
    timeouts: int = 0
    errors: int = 0
    cancelled: int = 0
    rejected: int = 0
    in_flight: int = 0
    queue_depth: int = 0
    latency_count: int = 0
    latency_mean_seconds: float = 0.0
    latency_min_seconds: float = 0.0
    latency_max_seconds: float = 0.0
    latency_p50_seconds: float = 0.0
    latency_p95_seconds: float = 0.0
    artifacts: dict = field(default_factory=dict)
    #: Process mode only: per-shard breakdown — ``{shard_id: {"served": n,
    #: "artifacts": {...}}}``.  ``artifacts`` above is then the
    #: element-wise sum of the shard counters, so totals always equal the
    #: sum over shards.  Empty in thread mode.
    shards: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        """Plain-dict view used by the CLI and reports."""
        return {
            "submitted": self.submitted,
            "completed": self.completed,
            "ok": self.ok,
            "timeouts": self.timeouts,
            "errors": self.errors,
            "cancelled": self.cancelled,
            "rejected": self.rejected,
            "in_flight": self.in_flight,
            "queue_depth": self.queue_depth,
            "latency_count": self.latency_count,
            "latency_mean_seconds": self.latency_mean_seconds,
            "latency_min_seconds": self.latency_min_seconds,
            "latency_max_seconds": self.latency_max_seconds,
            "latency_p50_seconds": self.latency_p50_seconds,
            "latency_p95_seconds": self.latency_p95_seconds,
            "artifacts": dict(self.artifacts),
            "shards": {key: dict(value) for key, value in self.shards.items()},
        }


def _execute_round(
    resolve_database: Callable[[str], Database],
    store: ArtifactStore,
    request: DiscoveryRequest,
    request_id: str,
    budget: float,
    queued_seconds: float,
    default_scheduler: str,
    limits: Optional[GenerationLimits],
    refresh_artifacts: bool,
) -> DiscoveryResponse:
    """Run one round to a structured response.

    This is the single execution path shared by the thread-mode worker,
    :meth:`DiscoveryService.execute`, and the shard worker processes
    (:mod:`repro.service.shards`) — which is what makes the golden
    thread-vs-process equality hold: both modes run exactly this code on
    the same artifacts.
    """
    started = time.monotonic()
    try:
        database = resolve_database(request.database)
        if refresh_artifacts:
            bundle = store.refresh(database)
        else:
            bundle = store.get(database)
        engine = Prism.from_artifacts(
            bundle,
            scheduler=request.scheduler or default_scheduler,
            time_limit=budget,
            limits=limits,
        )
        result = engine.discover(request.spec, raise_on_timeout=True)
    except DiscoveryTimeout as exc:
        partial = exc.partial_result
        if partial is None:
            stats = DiscoveryStats(
                scheduler_name=request.scheduler or default_scheduler
            )
            stats.timed_out = True
            partial = DiscoveryResult(stats=stats)
        return DiscoveryResponse(
            request_id=request_id,
            database=request.database,
            status="timeout",
            result=partial,
            error=str(exc),
            queued_seconds=queued_seconds,
            execution_seconds=time.monotonic() - started,
        )
    except ReproError as exc:
        return DiscoveryResponse(
            request_id=request_id,
            database=request.database,
            status="error",
            error=f"{type(exc).__name__}: {exc}",
            queued_seconds=queued_seconds,
            execution_seconds=time.monotonic() - started,
        )
    return DiscoveryResponse(
        request_id=request_id,
        database=request.database,
        status="ok",
        result=result,
        queued_seconds=queued_seconds,
        execution_seconds=time.monotonic() - started,
    )


class DiscoveryService:
    """Concurrent discovery over a fixed set of named databases.

    Example:
        >>> from repro import (Column, Database, DataType, DiscoveryRequest,
        ...                    DiscoveryService, MappingSpec,
        ...                    parse_value_constraint)
        >>> db = Database("docs")
        >>> city = db.create_table("City", [
        ...     Column("Name", DataType.TEXT),
        ...     Column("Population", DataType.INT),
        ... ])
        >>> city.insert_many([("Springfield", 117_000), ("Shelbyville", 42_000)])
        2
        >>> spec = MappingSpec(num_columns=1)
        >>> _ = spec.add_sample_cells([parse_value_constraint("Springfield")])
        >>> with DiscoveryService(databases={"docs": db}) as svc:
        ...     response = svc.submit(DiscoveryRequest("docs", spec)).result()
        >>> response.status
        'ok'
        >>> response.result.sql()
        ['SELECT City.Name FROM City']
    """

    def __init__(
        self,
        databases: Optional[Mapping[str, Database]] = None,
        loaders: Optional[Mapping[str, Callable[[], Database]]] = None,
        store: Optional[ArtifactStore] = None,
        workers: int = 1,
        queue_size: int = 64,
        default_scheduler: str = "bayesian",
        default_deadline_s: float = DEFAULT_TIME_LIMIT_SECONDS,
        limits: Optional[GenerationLimits] = None,
        refresh_artifacts: bool = False,
        shard_mode: str = "thread",
        start_method: Optional[str] = None,
    ):
        """Create a service.

        Args:
            databases: mapping of name → loaded database.
            loaders: mapping of name → zero-argument loader, called lazily
                on a database's first request.  When both ``databases``
                and ``loaders`` are omitted, the bundled demo databases
                (mondial, imdb, nba) are served.  In
                ``shard_mode="process"`` with the ``spawn`` start method,
                loaders must be picklable (module-level functions).
            store: the artifact store to share; a private one is created
                when omitted.  Passing a store with a ``persist_dir``
                makes preprocessing survive restarts — and, in process
                mode, lets every shard warm-start from the same
                directory instead of rebuilding.
            workers: how many worker *processes* (shards) process mode
                runs.  Thread mode runs exactly one worker thread, so
                any value but the default 1 raises there.
            queue_size: bound on queued (not yet running) requests; a full
                queue rejects submissions with
                :class:`~repro.errors.ServiceOverloaded`.
            default_scheduler: scheduling policy for requests that do not
                name one, one of
                :data:`~repro.discovery.scheduler.POLICY_NAMES`.
            default_deadline_s: per-round budget (seconds) for requests
                that do not carry their own: a positive int or float.
            limits: candidate-generation bounds applied to every request.
            refresh_artifacts: resolve bundles through
                :meth:`ArtifactStore.refresh` instead of
                :meth:`ArtifactStore.get`, so a database that grew by
                appends between requests is caught up by folding the
                delta into its cached bundle rather than preprocessing
                from scratch (see ``docs/incremental.md``).  The flag
                propagates to every shard process.
            shard_mode: ``"thread"`` (default) or ``"process"``.  Process
                mode runs ``workers`` long-lived worker processes that
                each hold every database and ships requests to them as
                versioned JSON frames, sidestepping the GIL for the
                pure-Python discovery work.
            start_method: multiprocessing start method for process mode
                (``"fork"``, ``"spawn"``, ``"forkserver"``; platform
                default when ``None``).  Ignored in thread mode.
        """
        if workers < 1:
            raise ServiceError("workers must be at least 1")
        if shard_mode == "thread" and workers != 1:
            raise ServiceError(
                f"shard_mode=\"thread\" runs exactly one worker, got "
                f"workers={workers}; use shard_mode=\"process\" for more"
            )
        if queue_size < 1:
            raise ServiceError("queue_size must be at least 1")
        try:
            make_policy(default_scheduler)
        except DiscoveryError as exc:
            raise ServiceError(f"default_scheduler: {exc}") from exc
        default_deadline_s = _wire.deadline_seconds(
            default_deadline_s, "the service's default"
        )
        if default_deadline_s is None or not default_deadline_s > 0:
            raise ServiceError("default_deadline_s must be positive")
        if shard_mode not in _SHARD_MODES:
            raise ServiceError(
                f"unknown shard_mode {shard_mode!r}; expected one of "
                f"{_SHARD_MODES}"
            )
        if databases is None and loaders is None:
            from repro.datasets import _LOADERS

            loaders = dict(_LOADERS)
        self._databases: dict[str, Database] = dict(databases or {})
        self._loaders: dict[str, Callable[[], Database]] = dict(loaders or {})
        self._database_lock = threading.Lock()
        self.store = store if store is not None else ArtifactStore()
        self._workers_count = workers
        self._queue: queue.Queue = queue.Queue(maxsize=queue_size)
        self._default_scheduler = default_scheduler
        self._default_deadline_s = default_deadline_s
        self._limits = limits
        self._refresh_artifacts = refresh_artifacts
        self._shard_mode = shard_mode
        self._start_method = start_method
        self._pool = None
        self._workers: list[threading.Thread] = []
        self._started = False
        self._shutdown = False
        self._state_lock = threading.Lock()
        # submit() registers itself here before enqueueing; shutdown() waits
        # for the count to hit zero before queueing the workers' stop
        # markers, so no ticket can land behind them, undrained.
        self._pending_submits = 0
        self._no_pending_submits = threading.Condition(self._state_lock)
        self._metrics_lock = threading.Lock()
        self._counters = {
            "submitted": 0,
            "completed": 0,
            "ok": 0,
            "timeout": 0,
            "error": 0,
            "cancelled": 0,
            "rejected": 0,
        }
        self._in_flight = 0
        self._latencies: deque[float] = deque(maxlen=_LATENCY_WINDOW)
        self._latency_count = 0
        self._latency_total = 0.0
        self._latency_min = float("inf")
        self._latency_max = 0.0
        self._shard_served: dict[int, int] = {}
        self._shard_artifacts: dict[int, dict] = {}
        self._request_ids = itertools.count(1)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def shard_mode(self) -> str:
        """``"thread"`` or ``"process"``."""
        return self._shard_mode

    def start(self) -> "DiscoveryService":
        """Start the executor (idempotent).

        In process mode this spawns the shard processes, each of which
        warm-starts every database's artifacts (from the store's
        ``persist_dir`` when available) before serving.
        """
        with self._state_lock:
            if self._shutdown:
                raise ServiceError("the service has been shut down")
            if self._started:
                return self
            if self._shard_mode == "process":
                from repro.service.shards import ShardProcessPool

                self._pool = ShardProcessPool(
                    num_shards=self._workers_count,
                    databases=self._databases,
                    loaders=self._loaders,
                    persist_dir=self.store.persist_dir,
                    default_scheduler=self._default_scheduler,
                    limits=self._limits,
                    refresh_artifacts=self._refresh_artifacts,
                    start_method=self._start_method,
                    on_ready=self._note_shard_artifacts,
                )
                self._pool.start()
            for worker_index in range(self._workers_count):
                worker = threading.Thread(
                    target=self._worker_loop,
                    args=(worker_index,),
                    name=f"discovery-worker-{worker_index}",
                    daemon=True,
                )
                worker.start()
                self._workers.append(worker)
            self._started = True
        return self

    def shutdown(self, wait: bool = True) -> None:
        """Stop accepting requests and (optionally) join the workers.

        Queued requests are drained and executed before the workers exit;
        shard processes are then shut down cleanly.  Each worker is
        stopped by a ``None`` queued behind the pending tickets, so with
        ``wait=False`` this returns at once unless the queue lacks a free
        slot per worker; then it waits for the workers to take enough
        queued tickets to make room.  Without waiting, the queue drains
        in the background and the shards stop after it.
        """
        with self._state_lock:
            if self._shutdown:
                return
            self._shutdown = True
            started = self._started
            while self._pending_submits:
                self._no_pending_submits.wait()
        if not started:
            return
        for _ in self._workers:
            self._queue.put(None)
        if wait:
            self._stop_executor(wait=True)
        elif self._pool is not None:
            # Stopping the shards now would fail the queued tickets and
            # make their workers respawn shards after shutdown.
            threading.Thread(
                target=self._stop_executor,
                args=(False,),
                name="discovery-shutdown",
                daemon=True,
            ).start()

    def _stop_executor(self, wait: bool) -> None:
        """Join the workers, then stop the shards they dispatch to."""
        for worker in self._workers:
            worker.join()
        if self._pool is not None:
            self._pool.shutdown(wait=wait)

    def __enter__(self) -> "DiscoveryService":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown(wait=True)

    # ------------------------------------------------------------------
    # Databases
    # ------------------------------------------------------------------
    def available_databases(self) -> list[str]:
        """Names this service can answer requests for."""
        return sorted(set(self._databases) | set(self._loaders))

    def database(self, name: str) -> Database:
        """The loaded database registered under ``name`` (loads lazily)."""
        with self._database_lock:
            loaded = self._databases.get(name)
            if loaded is not None:
                return loaded
            loader = self._loaders.get(name)
            if loader is None:
                raise ServiceError(
                    f"unknown database {name!r}; available: "
                    f"{self.available_databases()}"
                )
            loaded = loader()
            self._databases[name] = loaded
            return loaded

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(
        self,
        request: DiscoveryRequest,
        block: bool = False,
        timeout: Optional[float] = None,
    ) -> DiscoveryTicket:
        """Queue a request; returns a ticket resolving to its response.

        Args:
            request: the round to run.
            block: wait for queue space instead of rejecting immediately.
            timeout: bound on the wait when ``block`` is true.

        Raises:
            ServiceOverloaded: the queue is full (backpressure).
            ServiceError: the service is shut down, not started, or the
                request is invalid.
        """
        if self._shutdown:
            raise ServiceError("the service has been shut down")
        if not self._started:
            self.start()
        if request.database not in self._databases and (
            request.database not in self._loaders
        ):
            raise ServiceError(
                f"unknown database {request.database!r}; available: "
                f"{self.available_databases()}"
            )
        if not self._budget(request) > 0:
            raise ServiceError("a request's deadline_s must be positive")
        if request.request_id is None:
            request = DiscoveryRequest(
                database=request.database,
                spec=request.spec,
                scheduler=request.scheduler,
                deadline_s=request.deadline_s,
                request_id=f"req-{next(self._request_ids)}",
            )
        ticket = DiscoveryTicket(request)
        with self._state_lock:
            if self._shutdown:
                raise ServiceError("the service has been shut down")
            self._pending_submits += 1
        try:
            try:
                self._queue.put(ticket, block=block, timeout=timeout)
            except queue.Full:
                with self._metrics_lock:
                    self._counters["rejected"] += 1
                raise ServiceOverloaded(
                    f"request queue is full ({self._queue.maxsize} pending); "
                    "retry later"
                ) from None
        finally:
            with self._state_lock:
                self._pending_submits -= 1
                if not self._pending_submits:
                    self._no_pending_submits.notify_all()
        with self._metrics_lock:
            self._counters["submitted"] += 1
        return ticket

    def run_batch(
        self,
        requests: Sequence[DiscoveryRequest],
        block: bool = True,
    ) -> list[DiscoveryResponse]:
        """Submit many requests and wait for all their responses.

        With ``block=True`` (the default) submission waits for queue space,
        so batches larger than the queue bound drain through backpressure
        instead of being rejected.
        """
        tickets = [self.submit(request, block=block) for request in requests]
        return [ticket.result() for ticket in tickets]

    def execute(self, request: DiscoveryRequest) -> DiscoveryResponse:
        """Run one request synchronously on the calling thread.

        This is the single-threaded baseline path (no queue, no workers,
        no shards — even in process mode it runs in the calling process);
        it still shares the artifact store, so repeated calls warm-start.

        Raises:
            ServiceError: the request's ``deadline_s`` is not an int or
                float, or is NaN.
        """
        request_id = request.request_id or f"req-{next(self._request_ids)}"
        return _execute_round(
            self.database,
            self.store,
            request,
            request_id,
            self._budget(request),
            queued_seconds=0.0,
            default_scheduler=self._default_scheduler,
            limits=self._limits,
            refresh_artifacts=self._refresh_artifacts,
        )

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def metrics(self) -> ServiceMetrics:
        """A consistent snapshot of counters and latency statistics.

        In process mode, ``shards`` breaks the artifact counters down per
        shard (accumulated from the deltas each worker process reports
        when it is ready and with every response) and ``artifacts`` is
        their element-wise sum — the merged totals always equal the sum
        over shards.
        """
        with self._metrics_lock:
            ordered = sorted(self._latencies)
            snapshot = ServiceMetrics(
                submitted=self._counters["submitted"],
                completed=self._counters["completed"],
                ok=self._counters["ok"],
                timeouts=self._counters["timeout"],
                errors=self._counters["error"],
                cancelled=self._counters["cancelled"],
                rejected=self._counters["rejected"],
                in_flight=self._in_flight,
                queue_depth=self._queue.qsize(),
                latency_count=self._latency_count,
            )
            if self._latency_count:
                snapshot.latency_mean_seconds = (
                    self._latency_total / self._latency_count
                )
                snapshot.latency_min_seconds = self._latency_min
                snapshot.latency_max_seconds = self._latency_max
            if ordered:
                snapshot.latency_p50_seconds = ordered[len(ordered) // 2]
                snapshot.latency_p95_seconds = ordered[
                    min(len(ordered) - 1, int(len(ordered) * 0.95))
                ]
            shard_ids = sorted(set(self._shard_served) | set(self._shard_artifacts))
            snapshot.shards = {
                shard_id: {
                    "served": self._shard_served.get(shard_id, 0),
                    "artifacts": _merge_counts(
                        {}, self._shard_artifacts.get(shard_id, {})
                    ),
                }
                for shard_id in shard_ids
            }
        if self._shard_mode == "process":
            merged = ArtifactStoreStats().as_dict()
            for shard in snapshot.shards.values():
                _merge_counts(merged, shard["artifacts"])
            snapshot.artifacts = merged
        else:
            snapshot.artifacts = self.store.stats.as_dict()
        return snapshot

    # ------------------------------------------------------------------
    # Worker internals
    # ------------------------------------------------------------------
    def _worker_loop(self, worker_id: int) -> None:
        while True:
            ticket = self._queue.get()
            if ticket is None:
                return
            self._serve_ticket(ticket, worker_id)

    def _serve_ticket(self, ticket: DiscoveryTicket, worker_id: int) -> None:
        request = ticket.request
        request_id = request.request_id or "?"
        queued_seconds = time.monotonic() - ticket.submitted_at
        if not ticket._try_start():
            response = DiscoveryResponse(
                request_id=request_id,
                database=request.database,
                status="cancelled",
                queued_seconds=queued_seconds,
            )
            self._finish(ticket, response)
            return
        remaining = self._budget(request) - queued_seconds
        if remaining <= 0:
            # The round's interactive budget was consumed by queueing:
            # answer with a structured timeout instead of running.  In
            # process mode this check runs *before* dispatch, so an
            # expired request never costs a round of IPC.
            stats = DiscoveryStats(
                scheduler_name=request.scheduler or self._default_scheduler
            )
            stats.timed_out = True
            stats.elapsed_seconds = queued_seconds
            response = DiscoveryResponse(
                request_id=request_id,
                database=request.database,
                status="timeout",
                result=DiscoveryResult(stats=stats),
                error="time budget exhausted while queued",
                queued_seconds=queued_seconds,
            )
            self._finish(ticket, response)
            return
        with self._metrics_lock:
            self._in_flight += 1
        try:
            if self._pool is not None:
                response, delta = self._pool.run(
                    worker_id, request, remaining, queued_seconds, request_id
                )
                self._note_shard_result(worker_id, delta)
            else:
                response = self._run(
                    request, request_id, remaining, queued_seconds
                )
        except Exception as exc:
            # Whatever escapes the round or the shard RPC (a bug, a reply
            # frame the parent cannot decode) fails this ticket only: the
            # worker thread must survive to serve the tickets behind it.
            _log.exception("request %s failed", request_id)
            response = DiscoveryResponse(
                request_id=request_id,
                database=request.database,
                status="error",
                error=f"{type(exc).__name__}: {exc}",
                queued_seconds=queued_seconds,
            )
        finally:
            with self._metrics_lock:
                self._in_flight -= 1
        self._finish(ticket, response)

    def _budget(self, request: DiscoveryRequest) -> float:
        """The round's budget in seconds: the request's ``deadline_s``,
        or the service default when it carries none.

        Raises:
            WireFormatError: ``deadline_s`` is not an int or float, or is
                NaN (a bool or a string included).
        """
        deadline = _wire.deadline_seconds(request.deadline_s, "a request's")
        return self._default_deadline_s if deadline is None else deadline

    def _run(
        self,
        request: DiscoveryRequest,
        request_id: str,
        budget: float,
        queued_seconds: float,
    ) -> DiscoveryResponse:
        return _execute_round(
            self.database,
            self.store,
            request,
            request_id,
            budget,
            queued_seconds,
            default_scheduler=self._default_scheduler,
            limits=self._limits,
            refresh_artifacts=self._refresh_artifacts,
        )

    def _note_shard_result(self, shard_id: int, delta: Optional[dict]) -> None:
        with self._metrics_lock:
            self._shard_served[shard_id] = (
                self._shard_served.get(shard_id, 0) + 1
            )
        if delta:
            self._note_shard_artifacts(shard_id, delta)

    def _note_shard_artifacts(self, shard_id: int, delta: dict) -> None:
        """Fold a shard's artifact-counter delta (from its ready frame or
        a response) into its per-shard totals."""
        with self._metrics_lock:
            _merge_counts(self._shard_artifacts.setdefault(shard_id, {}), delta)

    def _finish(self, ticket: DiscoveryTicket, response: DiscoveryResponse) -> None:
        latency = time.monotonic() - ticket.submitted_at
        with self._metrics_lock:
            self._counters["completed"] += 1
            self._counters[response.status] = (
                self._counters.get(response.status, 0) + 1
            )
            self._latencies.append(latency)
            self._latency_count += 1
            self._latency_total += latency
            self._latency_min = min(self._latency_min, latency)
            self._latency_max = max(self._latency_max, latency)
        ticket._resolve(response)
