"""Process-shard executor: long-lived worker processes behind JSON pipes.

Discovery is pure Python, so the thread pool of
:class:`~repro.api.DiscoveryService` cannot scale past one core — the
GIL serializes every round.  This module is the ``shard_mode="process"``
backend: each **shard** is a long-lived worker process that owns a subset
of the databases (per :class:`ShardAssignment`), builds or warm-starts
its preprocessing artifacts locally, and serves rounds end to end.

Design rules, in decreasing order of importance:

* **Requests cross the boundary, artifacts never do.**  Databases and
  loaders ship *once*, at process spawn; per-request traffic is
  exclusively versioned JSON frames (:mod:`repro.service.wire`) over a
  :func:`multiprocessing.Pipe` — one length-prefixed UTF-8 JSON document
  per message, no pickled objects.  The IPC layer is therefore exactly as
  expressive as the public v1 wire format, which keeps the two honest:
  anything the service can serve, a remote client could submit.
* **Warm start from the shared ``persist_dir``.**  Every shard opens its
  own :class:`~repro.api.ArtifactStore` on the same directory as the
  parent's, so bundles persisted by any earlier process are disk-loaded
  instead of rebuilt; a shard without a persist dir preprocesses its
  owned databases at spawn, before serving.
* **Crashes are contained.**  A shard that dies or hangs is killed and
  respawned; the in-flight request is answered with a structured
  ``status="error"`` response, and later requests hit the fresh process.
* **Metrics flow back as deltas.**  Each response carries the shard's
  artifact-counter increments since its previous report; the parent
  accumulates them per shard and merges them in
  :meth:`~repro.api.DiscoveryService.metrics`.

The queueing front door (backpressure, cancellation, deadline-in-queue)
stays entirely in the parent — see
:class:`~repro.service.service._TicketQueue` — so those semantics are
identical across shard modes and cost no IPC.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import os
import threading
import time
from typing import Callable, Mapping, Optional, Sequence

from repro.dataset.database import Database
from repro.discovery.candidates import GenerationLimits
from repro.errors import ReproError, ServiceError, WireFormatError
from repro.service import wire
from repro.service.artifacts import ArtifactStore

__all__ = ["ShardAssignment", "ShardProcessPool"]

#: How long to wait for a shard to warm its artifacts and report ready.
_READY_TIMEOUT_S = 300.0
#: Extra patience beyond a round's budget before declaring a shard hung.
_GRACE_FLOOR_S = 60.0


def _encode(payload: Mapping) -> bytes:
    """One JSON frame's bytes; an unencodable value raises
    ``WireFormatError``."""
    return wire.dumps(payload).encode("utf-8")


def _send(conn, payload: Mapping) -> None:
    """Write one JSON frame (the only thing that ever crosses the pipe)."""
    conn.send_bytes(_encode(payload))


def _recv(conn) -> dict:
    """Read one JSON frame; malformed bytes raise ``WireFormatError``."""
    payload = wire.loads(conn.recv_bytes().decode("utf-8"))
    if not isinstance(payload, dict):
        raise WireFormatError("an IPC frame must be a JSON object")
    return payload


def _diff_counts(current: Mapping, previous: Mapping) -> dict:
    """Element-wise ``current - previous`` over nested counter dicts,
    keeping only non-zero entries."""
    delta: dict = {}
    for key, value in current.items():
        if isinstance(value, Mapping):
            nested = _diff_counts(value, previous.get(key) or {})
            if nested:
                delta[key] = nested
        else:
            change = value - (previous.get(key) or 0)
            if change:
                delta[key] = change
    return delta


class ShardAssignment:
    """Which shard processes own which databases.

    With ``replication=None`` (the default) every shard owns every
    database: any shard can serve any request, so the routed queue
    degenerates to work stealing and throughput is maximal.  A smaller
    ``replication`` partitions the databases round-robin across shards —
    each database lives on exactly ``replication`` shards, bounding
    per-process memory at the cost of routing freedom.
    """

    def __init__(
        self,
        databases: Sequence[str],
        num_shards: int,
        replication: Optional[int] = None,
    ):
        if num_shards < 1:
            raise ServiceError("num_shards must be at least 1")
        if replication is None:
            replication = num_shards
        if not 1 <= replication <= num_shards:
            raise ServiceError(
                f"replication must be between 1 and num_shards "
                f"({num_shards}), got {replication}"
            )
        self.num_shards = num_shards
        self.replication = replication
        self._owners: dict[str, frozenset[int]] = {}
        for index, name in enumerate(sorted(set(databases))):
            first = index % num_shards
            self._owners[name] = frozenset(
                (first + offset) % num_shards for offset in range(replication)
            )

    def owners(self, database: str) -> frozenset:
        """The shard ids allowed to serve ``database``."""
        owners = self._owners.get(database)
        if owners is None:
            raise ServiceError(
                f"no shard owns database {database!r}; assigned: "
                f"{sorted(self._owners)}"
            )
        return owners

    def databases_for(self, shard_id: int) -> list[str]:
        """The databases ``shard_id`` owns (sorted)."""
        return sorted(
            name for name, owners in self._owners.items() if shard_id in owners
        )

    def as_dict(self) -> dict:
        """JSON-friendly view (used by the CLI and docs examples)."""
        return {
            "num_shards": self.num_shards,
            "replication": self.replication,
            "owners": {
                name: sorted(owners) for name, owners in self._owners.items()
            },
        }


def _shard_main(
    conn,
    shard_id: int,
    databases: dict,
    loaders: dict,
    persist_dir: Optional[str],
    default_scheduler: str,
    limits: Optional[GenerationLimits],
    refresh_artifacts: bool,
) -> None:
    """Worker-process entry point: warm up, then serve frames until told
    to stop.  Runs in the child; everything it touches is process-local.
    """
    from repro.service.service import DiscoveryResponse, _execute_round

    store = ArtifactStore(persist_dir=persist_dir)
    local: dict[str, Database] = dict(databases)

    def resolve(name: str) -> Database:
        loaded = local.get(name)
        if loaded is not None:
            return loaded
        loader = loaders.get(name)
        if loader is None:
            raise ServiceError(
                f"shard {shard_id} does not own database {name!r}; owned: "
                f"{sorted(set(local) | set(loaders))}"
            )
        loaded = loader()
        local[name] = loaded
        return loaded

    try:
        warmed = []
        for name in sorted(set(local) | set(loaders)):
            store.get(resolve(name))
            warmed.append(name)
        _send(conn, {
            "api_version": wire.API_VERSION,
            "kind": "ready",
            "shard": shard_id,
            "pid": os.getpid(),
            "warmed": warmed,
        })
    except Exception as exc:  # noqa: BLE001 - report, then die visibly
        try:
            _send(conn, {
                "api_version": wire.API_VERSION,
                "kind": "fatal",
                "shard": shard_id,
                "error": f"{type(exc).__name__}: {exc}",
            })
        finally:
            return

    # The warm-up builds/disk-loads stay in ``reported`` = {} so the first
    # response's delta carries them — the parent's merged metrics then
    # account for every build any shard ever did.
    reported: dict = {}

    def stats_delta() -> dict:
        nonlocal reported
        current = store.stats.as_dict()
        delta = _diff_counts(current, reported)
        reported = current
        return delta

    while True:
        try:
            frame = _recv(conn)
        except (EOFError, OSError):
            return
        except WireFormatError as exc:
            _send(conn, {
                "api_version": wire.API_VERSION,
                "kind": "error",
                "error": str(exc),
            })
            continue
        kind = frame.get("kind")
        if kind == "shutdown":
            return
        if kind == "ping":
            _send(conn, {
                "api_version": wire.API_VERSION,
                "kind": "pong",
                "shard": shard_id,
            })
            continue
        if kind == "crash":
            # Test hook: die without cleanup, exactly like a hard fault.
            os._exit(2)
        if kind == "refresh":
            refreshed = []
            for name in sorted(local):
                try:
                    store.refresh(local[name])
                    refreshed.append(name)
                except ReproError:
                    continue
            _send(conn, {
                "api_version": wire.API_VERSION,
                "kind": "refreshed",
                "databases": refreshed,
                "artifacts_delta": stats_delta(),
            })
            continue
        if kind == "run":
            request_id = str(frame.get("request_id") or "?")
            try:
                request = wire.request_from_wire(frame["request"])
                response = _execute_round(
                    resolve,
                    store,
                    request,
                    request_id,
                    float(frame["budget_s"]),
                    float(frame.get("queued_seconds") or 0.0),
                    default_scheduler=default_scheduler,
                    limits=limits,
                    refresh_artifacts=refresh_artifacts,
                )
            except (ReproError, KeyError, TypeError, ValueError) as exc:
                response = DiscoveryResponse(
                    request_id=request_id,
                    database=str(
                        (frame.get("request") or {}).get("database", "?")
                    ),
                    status="error",
                    error=f"{type(exc).__name__}: {exc}",
                )
            _send(conn, {
                "api_version": wire.API_VERSION,
                "kind": "response",
                "response": wire.response_to_wire(response),
                "artifacts_delta": stats_delta(),
            })
            continue
        _send(conn, {
            "api_version": wire.API_VERSION,
            "kind": "error",
            "error": f"unknown frame kind {kind!r}",
        })


class _Shard:
    """Parent-side handle for one worker process."""

    def __init__(self, shard_id: int, conn, process):
        self.id = shard_id
        self.conn = conn
        self.process = process
        self.warmed: list[str] = []
        #: Serializes pipe traffic: normally only this shard's dedicated
        #: worker thread talks to it, but refresh/shutdown may come from
        #: other threads.
        self.lock = threading.Lock()


class _ShardHung(Exception):
    """Internal: the shard did not answer within budget plus grace."""


class ShardProcessPool:
    """The parent-side face of the shard processes.

    One :class:`~repro.api.DiscoveryService` worker thread is pinned
    to each shard; :meth:`run` is its blocking round-trip RPC.  The pool
    owns spawn, warm-up handshake, crash detection/respawn and shutdown.
    """

    def __init__(
        self,
        assignment: ShardAssignment,
        databases: Mapping[str, Database],
        loaders: Mapping[str, Callable[[], Database]],
        persist_dir=None,
        default_scheduler: str = "bayesian",
        limits: Optional[GenerationLimits] = None,
        refresh_artifacts: bool = False,
        start_method: Optional[str] = None,
        ready_timeout_s: float = _READY_TIMEOUT_S,
    ):
        self.assignment = assignment
        self._databases = dict(databases)
        self._loaders = dict(loaders)
        self._persist_dir = str(persist_dir) if persist_dir is not None else None
        self._default_scheduler = default_scheduler
        self._limits = limits
        self._refresh_artifacts = refresh_artifacts
        self._ctx = multiprocessing.get_context(start_method)
        self._ready_timeout_s = ready_timeout_s
        self._shards: list[_Shard] = []
        self._respawns = 0
        self._started = False

    @property
    def start_method(self) -> str:
        """The multiprocessing start method actually in use."""
        return self._ctx.get_start_method()

    @property
    def respawns(self) -> int:
        """How many times a crashed/hung shard was replaced."""
        return self._respawns

    def start(self) -> "ShardProcessPool":
        """Spawn every shard and wait for each to finish warming up."""
        if self._started:
            return self
        for shard_id in range(self.assignment.num_shards):
            self._shards.append(self._spawn(shard_id))
        for shard in self._shards:
            self._await_ready(shard)
        self._started = True
        return self

    def _spawn(self, shard_id: int) -> _Shard:
        owned = self.assignment.databases_for(shard_id)
        databases = {
            name: self._databases[name]
            for name in owned
            if name in self._databases
        }
        loaders = {
            name: self._loaders[name]
            for name in owned
            if name in self._loaders and name not in databases
        }
        parent_conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=_shard_main,
            args=(
                child_conn,
                shard_id,
                databases,
                loaders,
                self._persist_dir,
                self._default_scheduler,
                self._limits,
                self._refresh_artifacts,
            ),
            name=f"prism-shard-{shard_id}",
            daemon=True,
        )
        try:
            process.start()
        except Exception as exc:
            raise ServiceError(
                f"could not start shard {shard_id} with the "
                f"{self.start_method!r} start method: {exc}. Under 'spawn' "
                "every database and loader must be picklable — register "
                "module-level loader functions instead of lambdas or "
                "closures."
            ) from exc
        child_conn.close()
        return _Shard(shard_id, parent_conn, process)

    def _await_ready(self, shard: _Shard) -> None:
        deadline = time.monotonic() + self._ready_timeout_s
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not shard.conn.poll(remaining):
                self._kill(shard)
                raise ServiceError(
                    f"shard {shard.id} did not finish warming up within "
                    f"{self._ready_timeout_s:.0f}s"
                )
            try:
                frame = _recv(shard.conn)
            except (EOFError, OSError) as exc:
                self._kill(shard)
                raise ServiceError(
                    f"shard {shard.id} died during warm-up"
                ) from exc
            kind = frame.get("kind")
            if kind == "ready":
                shard.warmed = list(frame.get("warmed") or [])
                return
            if kind == "fatal":
                self._kill(shard)
                raise ServiceError(
                    f"shard {shard.id} failed to warm up: "
                    f"{frame.get('error')}"
                )
            # Anything else during warm-up is stale traffic; keep waiting.

    # ------------------------------------------------------------------
    # RPC
    # ------------------------------------------------------------------
    def run(
        self,
        shard_id: int,
        request,
        budget_s: float,
        queued_seconds: float,
        request_id: str,
    ):
        """Run one round on ``shard_id``; returns ``(response, delta)``.

        Crashes and hangs never propagate: they come back as a
        ``status="error"`` response (after the shard has been respawned),
        with ``delta=None``.  So does a request the wire format cannot
        encode; it never reaches the shard, which keeps serving.
        """
        try:
            frame = _encode({
                "api_version": wire.API_VERSION,
                "kind": "run",
                "request": wire.request_to_wire(request),
                "request_id": request_id,
                "budget_s": budget_s,
                "queued_seconds": queued_seconds,
            })
        except WireFormatError as exc:
            return self._error_response(
                request, request_id, queued_seconds,
                f"request cannot be sent to shard {shard_id}: {exc}",
            ), None
        shard = self._shards[shard_id]
        with shard.lock:
            try:
                shard.conn.send_bytes(frame)
                reply = self._recv_reply(shard, budget_s)
            except (EOFError, OSError, BrokenPipeError):
                self._respawn(shard)
                return self._error_response(
                    request, request_id, queued_seconds,
                    f"shard {shard_id} died while serving the request and "
                    "was respawned; retry",
                ), None
            except _ShardHung:
                self._respawn(shard)
                return self._error_response(
                    request, request_id, queued_seconds,
                    f"shard {shard_id} did not respond within its grace "
                    "period and was respawned; retry",
                ), None
        if reply.get("kind") != "response":
            return self._error_response(
                request, request_id, queued_seconds,
                f"shard {shard_id} answered with unexpected frame "
                f"{reply.get('kind')!r}: {reply.get('error')}",
            ), None
        response = wire.response_from_wire(reply["response"])
        return response, reply.get("artifacts_delta") or {}

    def _recv_reply(self, shard: _Shard, budget_s: float) -> dict:
        # The shard enforces the round budget itself (the engine checks
        # its deadline between work units), so a healthy reply arrives
        # within the budget plus scheduling noise.  The grace period only
        # exists to distinguish "slow" from "gone".
        grace = budget_s + max(_GRACE_FLOOR_S, budget_s)
        deadline = time.monotonic() + grace
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise _ShardHung()
            if shard.conn.poll(min(remaining, 1.0)):
                return _recv(shard.conn)
            if not shard.process.is_alive():
                # Drain anything flushed before death, else report it.
                if shard.conn.poll(0):
                    return _recv(shard.conn)
                raise EOFError()

    @staticmethod
    def _error_response(request, request_id, queued_seconds, message):
        from repro.service.service import DiscoveryResponse

        return DiscoveryResponse(
            request_id=request_id,
            database=request.database,
            status="error",
            error=message,
            queued_seconds=queued_seconds,
        )

    # ------------------------------------------------------------------
    # Control plane
    # ------------------------------------------------------------------
    def refresh(self) -> dict:
        """Ask every shard to refresh its owned bundles.

        Returns ``{shard_id: {"databases": [...], "artifacts_delta":
        {...}}}``.  A shard that died is respawned (fresh artifacts count
        as refreshed state) and reports an empty list.
        """
        outcome: dict[int, dict] = {}
        for shard in list(self._shards):
            with shard.lock:
                try:
                    _send(shard.conn, {
                        "api_version": wire.API_VERSION,
                        "kind": "refresh",
                    })
                    reply = self._recv_reply(shard, budget_s=_GRACE_FLOOR_S)
                except (EOFError, OSError, BrokenPipeError, _ShardHung):
                    self._respawn(shard)
                    outcome[shard.id] = {"databases": [], "artifacts_delta": {}}
                    continue
            outcome[shard.id] = {
                "databases": list(reply.get("databases") or []),
                "artifacts_delta": reply.get("artifacts_delta") or {},
            }
        return outcome

    def crash_shard(self, shard_id: int) -> None:
        """Make a shard die abruptly (test hook for the respawn path)."""
        shard = self._shards[shard_id]
        with shard.lock:
            try:
                _send(shard.conn, {
                    "api_version": wire.API_VERSION,
                    "kind": "crash",
                })
            except OSError:
                pass
        shard.process.join(timeout=10.0)

    def shutdown(self, wait: bool = True) -> None:
        """Stop every shard (graceful frame first, then terminate)."""
        for shard in self._shards:
            with shard.lock:
                try:
                    _send(shard.conn, {
                        "api_version": wire.API_VERSION,
                        "kind": "shutdown",
                    })
                except (OSError, ValueError):
                    pass
        for shard in self._shards:
            shard.process.join(timeout=10.0 if wait else 0.2)
            if shard.process.is_alive():
                shard.process.terminate()
                shard.process.join(timeout=5.0)
            try:
                shard.conn.close()
            except OSError:
                pass
        self._started = False

    def _respawn(self, shard: _Shard) -> None:
        self._kill(shard)
        fresh = self._spawn(shard.id)
        self._await_ready(fresh)
        # The dedicated worker thread looks the shard up per request, so
        # swapping the list entry routes the next round to the new
        # process.
        self._shards[shard.id] = fresh
        self._respawns += 1

    def _kill(self, shard: _Shard) -> None:
        try:
            if shard.process.is_alive():
                shard.process.terminate()
            shard.process.join(timeout=5.0)
        except (OSError, ValueError):
            pass
        try:
            shard.conn.close()
        except OSError:
            pass
