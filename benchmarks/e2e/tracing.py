"""Span tracing installed from outside the program, for the ``--trace`` run.

:class:`Tracer` wraps the public callables at each layer boundary (see
:data:`SPANNED`) so that every call records a span: name, start, end,
parent and self time, where self time is the duration minus the time its
child spans cover.  Functions called tens of thousands of times per round
(:data:`COUNTED`) only count their calls, charged to the enclosing span.

Spans stay in memory until the run ends.  Process shards forked after
:meth:`Tracer.install` inherit the wrappers; a shard cannot hand its spans
back over the service's pipe, so it appends each finished span tree to a
JSON-lines file in the tracer's spill directory, which
:meth:`Tracer.collect` reads back.  ``time.perf_counter`` is the
system-wide monotonic clock on Linux, so parent and shard spans share one
time line.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import threading
import time
from collections import Counter
from dataclasses import astuple, dataclass
from pathlib import Path
from typing import Callable, Optional

__all__ = ["Span", "Tracer", "SPANNED", "COUNTED"]

#: ``(module, class or None, attribute, span name)`` for every wrapped
#: layer boundary.  Several callables may share one span name.
SPANNED = (
    ("repro.service.artifacts", "ArtifactStore", "build", "service.artifacts.build"),
    ("repro.service.artifacts", "ArtifactStore", "get", "service.artifacts.get"),
    ("repro.service.artifacts", "ArtifactStore", "refresh", "service.artifacts.refresh"),
    ("repro.service.artifacts", None, "train_models", "bayesian.train"),
    ("repro.dataset.index", "InvertedIndex", "build", "dataset.index.build"),
    ("repro.dataset.index", "InvertedIndex", "apply_delta", "dataset.index.apply_delta"),
    ("repro.dataset.catalog", "MetadataCatalog", "build", "dataset.catalog.build"),
    ("repro.dataset.catalog", "MetadataCatalog", "apply_delta", "dataset.catalog.apply_delta"),
    ("repro.dataset.schema_graph", "SchemaGraph", "__init__", "dataset.schema_graph.build"),
    ("repro.dataset.schema_graph", "SchemaGraph", "apply_delta",
     "dataset.schema_graph.apply_delta"),
    ("repro.bayesian.training", "BayesianModelSet", "apply_delta", "bayesian.apply_delta"),
    ("repro.dataset.table", "Table", "insert_many", "storage.insert_many"),
    ("repro.dataset.table", "Table", "select_rows", "storage.select_rows"),
    ("repro.service.shards", "ShardProcessPool", "start", "service.shards.start"),
    ("repro.service.shards", "ShardProcessPool", "run", "service.shard_rpc"),
    ("repro.service.wire", None, "request_to_wire", "service.wire.encode"),
    ("repro.service.wire", None, "dumps", "service.wire.encode"),
    ("repro.service.wire", None, "loads", "service.wire.decode"),
    ("repro.service.wire", None, "response_from_wire", "service.wire.decode"),
    ("repro.discovery.engine", "Prism", "from_artifacts", "discovery.engine.init"),
    ("repro.discovery.engine", "Prism", "discover", "discovery.engine"),
    ("repro.discovery.engine", None, "build_filters", "discovery.filters"),
    ("repro.discovery.related_columns", "RelatedColumnFinder", "find",
     "discovery.related_columns"),
    ("repro.discovery.candidates", "CandidateGenerator", "generate", "discovery.candidates"),
    ("repro.discovery.scheduler", "ValidationDriver", "run", "discovery.validation"),
    ("repro.discovery.scheduler", "BayesianPolicy", "select", "discovery.scheduler.select"),
    ("repro.query.planner", "Planner", "plan_query", "query.planner"),
    ("repro.query.planner", "Planner", "join_order", "query.planner"),
    ("repro.query.executor", "Executor", "exists", "query.exists"),
    ("repro.query.executor", "Executor", "exists_batch", "query.exists_batch"),
    ("repro.query.kernels", None, "semijoin_exists", "query.kernels.semijoin"),
)

#: Hot callables whose calls are counted, not spanned.
COUNTED = (
    ("repro.bayesian.estimator", "SelectivityEstimator", "failure_probability",
     "bayesian.failure_probability.calls"),
    ("repro.query.planner", "Planner", "structure_rows", "query.planner.structure_rows.calls"),
)

#: Wire calls are timed on the parent side only: inside a shard they are
#: part of the shard RPC the parent already times.
_PARENT_ONLY = frozenset({"service.wire.encode", "service.wire.decode"})


def _rows_scanned(engine) -> int:
    return engine.executor.stats.rows_scanned


def _execution_seconds(result) -> float:
    response, _delta = result
    return response.execution_seconds


#: Per-span extras: a counter read before and after the call (its delta
#: is charged to the span), and time to exclude from the span's self time
#: because another process spent it.
_COUNTER_DELTAS = {"discovery.engine": ("query.rows_scanned", _rows_scanned)}
_EXCLUDED_TIME = {"service.shard_rpc": _execution_seconds}


@dataclass(slots=True)
class Span:
    """One finished call of a wrapped callable.

    ``parent`` is the id of the enclosing span on the same thread, or
    ``None`` for a root; ``counts`` holds counters charged to this span
    (counted calls made directly inside it, counter deltas).
    """

    id: int
    parent: Optional[int]
    name: str
    pid: int
    start: float
    end: float
    self_s: float
    counts: Optional[dict]

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(slots=True)
class _Frame:
    id: int
    child_s: float = 0.0
    counts: Optional[Counter] = None


class Tracer:
    """Collects spans from the wrapped layer boundaries of this process and
    of the shard processes it forks."""

    def __init__(self, spill_dir: Path):
        self._spill_dir = Path(spill_dir)
        self._pid = self._root_pid = os.getpid()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._spans: list[Span] = []
        self._undo: list[Callable[[], None]] = []
        #: Wrapped callables :meth:`install` did not find.
        self.missing: list[str] = []

    # -- recording ----------------------------------------------------
    def _stack(self) -> list:
        if os.getpid() != self._pid:
            self._become_child()
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _become_child(self) -> None:
        # A forked shard inherits the parent's spans and the call stack of
        # the thread that forked it; neither belongs to the shard.
        self._pid = os.getpid()
        self._spans = []
        self._local = threading.local()
        self._spill_dir.mkdir(parents=True, exist_ok=True)

    def _spanned(self, name: str, function: Callable) -> Callable:
        counter = _COUNTER_DELTAS.get(name)
        excluded = _EXCLUDED_TIME.get(name)
        parent_only = name in _PARENT_ONLY
        tracer = self

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if parent_only and tracer._pid != tracer._root_pid:
                return function(*args, **kwargs)
            # Forked shards continue the parent's counter; the pid keeps
            # their span ids apart.
            frame = _Frame(tracer._pid << 32 | next(tracer._ids))
            parent = stack[-1].id if stack else None
            stack.append(frame)
            before = counter[1](args[0]) if counter else 0
            start = time.perf_counter()
            result = None
            try:
                result = function(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                self_s = duration - frame.child_s
                if excluded is not None and result is not None:
                    self_s -= excluded(result)
                if counter:
                    frame.counts = frame.counts or Counter()
                    frame.counts[counter[0]] += counter[1](args[0]) - before
                if stack:
                    stack[-1].child_s += duration
                tracer._record(Span(frame.id, parent, name, tracer._pid, start, end,
                                    self_s, dict(frame.counts) if frame.counts else None),
                               root=not stack)

        return wrapper

    def _counted(self, name: str, function: Callable) -> Callable:
        tracer = self

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            stack = getattr(tracer._local, "stack", None)
            if stack:
                frame = stack[-1]
                if frame.counts is None:
                    frame.counts = Counter()
                frame.counts[name] += 1
            return function(*args, **kwargs)

        return wrapper

    def _record(self, span: Span, root: bool) -> None:
        self._spans.append(span)
        if root and self._pid != self._root_pid:
            path = self._spill_dir / f"spans-{self._pid}.jsonl"
            with open(path, "a", encoding="utf-8") as handle:
                for pending in self._spans:
                    handle.write(json.dumps(astuple(pending)) + "\n")
            self._spans = []

    # -- installation -------------------------------------------------
    def install(self) -> "Tracer":
        """Wrap every layer boundary; undone by :meth:`uninstall`."""
        for module_name, owner_name, attribute, name in SPANNED:
            self._patch(module_name, owner_name, attribute, self._spanned, name)
        for module_name, owner_name, attribute, name in COUNTED:
            self._patch(module_name, owner_name, attribute, self._counted, name)
        return self

    def _patch(self, module_name, owner_name, attribute, make, name) -> None:
        try:
            owner = importlib.import_module(module_name)
            if owner_name is not None:
                owner = getattr(owner, owner_name)
            original = vars(owner)[attribute]
        except (ImportError, AttributeError, KeyError):
            # The program no longer has this callable: its layer reads 0
            # and the run lists it, rather than failing.
            self.missing.append(f"{module_name}:{owner_name or ''}.{attribute}")
            return
        if isinstance(original, (classmethod, staticmethod)):
            replacement = type(original)(make(name, original.__func__))
        else:
            replacement = make(name, original)
        setattr(owner, attribute, replacement)
        self._undo.append(lambda: setattr(owner, attribute, original))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- results ------------------------------------------------------
    def collect(self) -> list[Span]:
        """Every span recorded so far, this process's and its shards'."""
        spans = list(self._spans)
        if self._spill_dir.is_dir():
            for path in sorted(self._spill_dir.glob("spans-*.jsonl")):
                with open(path, encoding="utf-8") as handle:
                    spans.extend(Span(*json.loads(line)) for line in handle)
        return spans
