"""Outside-in span tracer: wraps public layer entry points of ``repro``.

Nothing under ``src/`` is edited.  :meth:`Tracer.install` replaces the
module attributes and class methods listed in :data:`HOOKS` (plus the
``Communicator`` methods in :data:`COMM_METHODS`) with timing wrappers,
and :meth:`Tracer.uninstall` puts the originals back, so a run can
alternate traced and untraced detections and measure the tracing
overhead directly.

A span is ``(id, parent, name, start_ns, end_ns, thread, detection,
args)``.  Parents follow the per-thread call stack; rank threads started
by ``run_spmd`` inherit the ``run_spmd`` span as their parent and the
detection id of the thread that started them.  The detection id is the
``DetectionRequest.tag`` of the request being served.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Any, Callable, NamedTuple

#: (owner, attribute, span name, how).  ``owner`` is a module path or
#: ``module:Class``.  ``how`` is "plain", "lookup" (wrap the closures a
#: factory returns), "run_spmd", or "tag:<arg>"
#: (a plain span that also sets the detection id from
#: ``<arg>.tag`` / ``<arg>.request.tag``).
HOOKS = (
    ("repro.core.distlouvain", "propose_moves", "core.sweep.propose_moves", "plain"),
    ("repro.core.distlouvain", "sorted_lookup", "core.sweep.lookup", "lookup"),
    ("repro.core.distlouvain", "rebuild_distributed", "core.coarsen.rebuild_distributed", "plain"),
    ("repro.core.distlouvain", "distributed_louvain", "core.distlouvain.distributed_louvain", "plain"),
    ("repro.core.distlouvain", "run_spmd", "runtime.executor.run_spmd", "run_spmd"),
    ("repro.service.engine", "warm_start_assignment", "core.dynamic.warm_start_assignment", "plain"),
    ("repro.service.engine", "execute_request", "service.engine.execute_request", "tag:request"),
    ("repro.service.engine:Engine", "submit", "service.engine.submit", "tag:request"),
    ("repro.service.engine:Engine", "_run_job", "service.engine.run_job", "tag:job"),
    ("repro.service.store:ResultStore", "get", "service.store.get", "plain"),
    ("repro.service.store:ResultStore", "put", "service.store.put", "plain"),
    ("repro.resilience.checkpoint:CheckpointManager", "save", "resilience.checkpoint.save", "plain"),
    ("repro.obs.events:EventLog", "emit", "obs.events.emit", "plain"),
    ("repro.graph.distgraph:DistGraph", "distribute", "graph.distgraph.distribute", "plain"),
    ("repro.graph.distgraph:DistGraph", "exchange_ghost_values", "graph.distgraph.exchange_ghost_values", "plain"),
)

COMM_OWNER = "repro.runtime.comm:Communicator"
#: Communicator methods that move data or synchronise ranks; each takes
#: a ``category``.  (``charge``/``charge_compute`` take one too but only
#: advance the modelled clock.)
COMM_METHODS = (
    "send", "recv", "isend", "irecv", "sendrecv", "barrier", "bcast",
    "reduce", "allreduce", "gather", "allgather", "scatter", "alltoall",
    "exchange_roundtrip", "neighbor_alltoall", "scan", "exscan",
)


class Span(NamedTuple):
    id: int
    parent: int
    name: str
    start: int
    end: int
    thread: int
    detection: str | None
    args: dict | None


class _Context(threading.local):
    def __init__(self) -> None:
        self.stack: list[int] = []
        self.root = 0
        self.detection: str | None = None
        self.in_comm = False


def _resolve(owner: str) -> Any:
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    """Collects spans in memory while installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._ctx = _Context()
        self._ids = itertools.count(1)
        self._saved: list[tuple[Any, str, Any]] = []

    # -- recording -----------------------------------------------------
    def _timed(
        self,
        name: str,
        fn: Callable,
        detection_of: Callable[[tuple, dict], str | None] | None = None,
    ) -> Callable:
        ctx = self._ctx
        ids = self._ids
        spans = self.spans

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            saved_detection = ctx.detection
            if detection_of is not None:
                ctx.detection = detection_of(args, kwargs)
            sid = next(ids)
            parent = ctx.stack[-1] if ctx.stack else ctx.root
            ctx.stack.append(sid)
            t0 = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter_ns()
                ctx.stack.pop()
                spans.append(
                    Span(sid, parent, name, t0, t1, threading.get_ident(),
                         ctx.detection, None)
                )
                ctx.detection = saved_detection

        return wrapper

    def _lookup_factory(self, name: str, factory: Callable) -> Callable:
        @functools.wraps(factory)
        def wrapper(*args: Any, **kwargs: Any) -> Callable:
            return self._timed(name, factory(*args, **kwargs))

        return wrapper

    def _run_spmd(self, name: str, run_spmd: Callable) -> Callable:
        ctx = self._ctx
        ids = self._ids
        spans = self.spans
        tracer = self

        @functools.wraps(run_spmd)
        def wrapper(size: int, fn: Callable, *args: Any, **kwargs: Any) -> Any:
            sid = next(ids)
            parent = ctx.stack[-1] if ctx.stack else ctx.root
            detection = ctx.detection
            rank_program = tracer._timed("runtime.executor.rank_program", fn)

            def rank_fn(*a: Any, **k: Any) -> Any:
                # Runs on a fresh rank thread (or inline when size == 1).
                saved = (ctx.stack, ctx.root, ctx.detection)
                ctx.stack, ctx.root, ctx.detection = [], sid, detection
                try:
                    return rank_program(*a, **k)
                finally:
                    ctx.stack, ctx.root, ctx.detection = saved

            ctx.stack.append(sid)
            t0 = time.perf_counter_ns()
            try:
                return run_spmd(size, rank_fn, *args, **kwargs)
            finally:
                t1 = time.perf_counter_ns()
                ctx.stack.pop()
                spans.append(
                    Span(sid, parent, name, t0, t1, threading.get_ident(),
                         detection, {"size": size})
                )

        return wrapper

    def _comm(self, op: str, fn: Callable) -> Callable:
        params = list(inspect.signature(fn).parameters.values())[1:]
        index = [p.name for p in params].index("category")
        default = params[index].default
        ctx = self._ctx
        ids = self._ids
        spans = self.spans

        @functools.wraps(fn)
        def wrapper(comm: Any, *args: Any, **kwargs: Any) -> Any:
            # Only the outermost call counts (sendrecv calls send/recv).
            if ctx.in_comm:
                return fn(comm, *args, **kwargs)
            if "category" in kwargs:
                category = kwargs["category"]
            elif len(args) > index:
                category = args[index]
            else:
                category = default
            sid = next(ids)
            parent = ctx.stack[-1] if ctx.stack else ctx.root
            ctx.in_comm = True
            t0 = time.perf_counter_ns()
            try:
                return fn(comm, *args, **kwargs)
            finally:
                t1 = time.perf_counter_ns()
                ctx.in_comm = False
                spans.append(
                    Span(sid, parent, f"runtime.comm.{category}", t0, t1,
                         threading.get_ident(), ctx.detection, {"op": op})
                )

        return wrapper

    # -- installation --------------------------------------------------
    def install(self) -> None:
        """Wrap every hook; a hook whose target no longer exists is
        skipped and listed in :attr:`missing` (its metrics read 0)."""
        if self._saved:
            return
        self.missing = []
        for owner_path, attr, name, how in HOOKS:
            try:
                owner = _resolve(owner_path)
                raw = (
                    owner.__dict__[attr]
                    if inspect.isclass(owner)
                    else getattr(owner, attr)
                )
            except (ImportError, AttributeError, KeyError):
                self.missing.append(f"{owner_path}.{attr}")
                continue
            if isinstance(raw, (staticmethod, classmethod)):
                new = type(raw)(self._timed(name, raw.__func__))
            elif how == "plain":
                new = self._timed(name, raw)
            elif how == "lookup":
                new = self._lookup_factory(name, raw)
            elif how == "run_spmd":
                new = self._run_spmd(name, raw)
            else:
                new = self._timed(name, raw, _tag_getter(raw, how[4:]))
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, new)
        comm_cls = _resolve(COMM_OWNER)
        for attr in COMM_METHODS:
            raw = vars(comm_cls).get(attr)
            if raw is None:
                self.missing.append(f"{COMM_OWNER}.{attr}")
                continue
            self._saved.append((comm_cls, attr, raw))
            setattr(comm_cls, attr, self._comm(attr, raw))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    # -- analysis ------------------------------------------------------
    def self_times(self) -> dict[int, int]:
        """Span id -> self time (ns): duration minus the union of the
        intervals its child spans cover."""
        children: dict[int, list[tuple[int, int]]] = defaultdict(list)
        for s in self.spans:
            children[s.parent].append((s.start, s.end))
        out = {}
        for s in self.spans:
            covered = 0
            cursor = s.start
            for a, b in sorted(children.get(s.id, ())):
                a, b = max(a, cursor), min(b, s.end)
                if b > a:
                    covered += b - a
                    cursor = b
            out[s.id] = (s.end - s.start) - covered
        return out

    def write_chrome_trace(self, path: str) -> None:
        """Write the spans as a Chrome/Perfetto trace (JSON)."""
        if not self.spans:
            origin = 0
        else:
            origin = min(s.start for s in self.spans)
        tids: dict[int, int] = {}
        events: list[dict] = []
        for s in sorted(self.spans, key=lambda s: s.start):
            tid = tids.setdefault(s.thread, len(tids) + 1)
            args = {"span": s.id, "parent": s.parent, "detection": s.detection}
            if s.args:
                args.update(s.args)
            events.append({
                "name": s.name,
                "cat": s.name.split(".", 1)[0],
                "ph": "X",
                "ts": (s.start - origin) / 1e3,
                "dur": (s.end - s.start) / 1e3,
                "pid": 1,
                "tid": tid,
                "args": args,
            })
        for tid in tids.values():
            events.append({"name": "thread_name", "ph": "M", "pid": 1,
                           "tid": tid, "args": {"name": f"thread-{tid}"}})
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)


def _tag_getter(fn: Callable, arg: str) -> Callable[[tuple, dict], str | None]:
    """Detection id from the ``tag`` of argument ``arg`` of ``fn`` (a
    request, or a job carrying one)."""
    index = list(inspect.signature(fn).parameters).index(arg)

    def get(args: tuple, kwargs: dict) -> str | None:
        obj = kwargs[arg] if arg in kwargs else args[index]
        obj = getattr(obj, "request", obj)
        return getattr(obj, "tag", None) or None

    return get
