"""Spans recorded from outside the program, at each layer's public calls.

:class:`Tracer` wraps public functions of ``repro``'s layers (the HTTP
handler, the service, admission, query resolution, the selector, the
planner, the compiled-driver and index caches, the engine entry points,
result decoding, storage writes and the worker pool).  Each call records a
span: name, start, end, parent span and request id.  A span opened on a
thread with no open span starts a new request; the spans nested under it
share its id.  Spans stay in memory until the caller reads them.

Nothing here edits ``repro``: :meth:`Tracer.install` replaces attributes on
the layers' classes and modules and :meth:`Tracer.uninstall` restores them.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import statistics
import threading
import time
from typing import Callable, Dict, Iterator, List, Optional

import repro.cli
import repro.engine.parallel
from repro.engine.engine import QueryEngine
from repro.engine.planner import Planner
from repro.engine.pool import WorkerPool
from repro.engine.prepared import PreparedQuery
from repro.engine.results import ExecutionResult
from repro.engine.selector import CostBasedSelector
from repro.server.admission import AdmissionController, QueueFullError, ServiceUnavailableError
import repro.server.http
from repro.server.service import QueryService
from repro.storage.database import SCOPED_COUNTERS, Database

from perfbench import stats

#: Root span of one benchmark operation in the library workloads.
OP_SPAN = "bench.op"
#: Root span of one HTTP request inside the server.
HTTP_SPAN = "server.http"
#: Spans that run inside the engine's timed execute phase.
EXECUTE_SPANS = ("engine.pool.run", "engine.parallel.partition")


class Span:
    __slots__ = ("ident", "name", "start", "end", "parent", "request", "attrs")

    def __init__(self, ident: int, name: str, parent: Optional["Span"], request: int) -> None:
        self.ident = ident
        self.name = name
        self.parent = parent.ident if parent is not None else None
        self.request = request
        self.attrs: Dict[str, float] = {}
        self.start = time.perf_counter()
        self.end = self.start

    def as_list(self) -> list:
        return [self.ident, self.name, self.start, self.end, self.parent, self.request, self.attrs]


class Tracer:
    """Records spans at layer boundaries while installed."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._requests = itertools.count(1)
        self._patches: list = []

    # ----------------------------------------------------------------- spans
    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1] if stack else None
        request = parent.request if parent is not None else next(self._requests)
        record = Span(next(self._ids), name, parent, request)
        stack.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            stack.pop()
            self.spans.append(record)

    # -------------------------------------------------------------- patching
    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def wrap(self, owner, attr: str, name: str, on_result: Optional[Callable] = None) -> None:
        """Record a span named ``name`` around every call of ``owner.attr``."""
        original = owner.__dict__[attr]
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with tracer.span(name) as record:
                result = original(*args, **kwargs)
                if on_result is not None:
                    on_result(record, result)
                return result

        self._patch(owner, attr, traced)

    def wrap_builder(self, owner, attr: str, name: str, position: int) -> None:
        """Record a span named ``name`` around the ``build`` callback that
        the fetch-or-build method ``owner.attr`` runs on a cache miss."""
        original = owner.__dict__[attr]
        tracer = self

        def spanned(build):
            def run():
                with tracer.span(name):
                    return build()
            return run

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if "build" in kwargs:
                kwargs["build"] = spanned(kwargs["build"])
            else:
                args = args[:position] + (spanned(args[position]),) + args[position + 1:]
            return original(*args, **kwargs)

        self._patch(owner, attr, traced)

    def install(self) -> None:
        """Wrap every traced layer boundary (idempotent per install)."""
        if self._patches:
            return
        tracer = self

        def engine_result(record: Span, result: ExecutionResult) -> None:
            record.attrs.update(result_attrs(result))

        self.wrap(repro.server.http._Handler, "do_POST", HTTP_SPAN)
        for method in ("count", "evaluate", "prepare"):
            self.wrap(QueryService, method, "server.service")

        original_admit = AdmissionController.__dict__["admit"]

        @functools.wraps(original_admit)
        def admit(controller, *args, **kwargs):
            return _TimedAdmission(tracer, original_admit(controller, *args, **kwargs))

        self._patch(AdmissionController, "admit", admit)
        self.wrap(repro.cli, "resolve_query", "query.parse")
        self.wrap(CostBasedSelector, "choose", "engine.selector.choose")
        self.wrap(Planner, "plan", "engine.planner.plan")
        self.wrap_builder(Database, "compiled_driver", "engine.compiler.build", 3)
        self.wrap_builder(Database, "view_index", "storage.index.build", 5)
        for method in ("count", "evaluate"):
            self.wrap(QueryEngine, method, "engine.query", engine_result)
            self.wrap(PreparedQuery, method, "engine.query", engine_result)
        for method in ("insert", "delete"):
            self.wrap(Database, method, "storage.write")
        self.wrap(WorkerPool, "run", "engine.pool.run")
        self.wrap(repro.engine.parallel, "cached_partition_plan", "engine.parallel.partition")

        rows = ExecutionResult.__dict__["rows"]

        def decoded_rows(result):
            with tracer.span("storage.decode"):
                return rows.fget(result)

        self._patch(ExecutionResult, "rows", property(decoded_rows, rows.fset, rows.fdel, rows.__doc__))

    def uninstall(self) -> None:
        """Restore every wrapped attribute."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


class _TimedAdmission:
    """Times entering an admission slot; counts refusals as shed load."""

    def __init__(self, tracer: Tracer, manager) -> None:
        self._tracer = tracer
        self._manager = manager

    def __enter__(self):
        with self._tracer.span("server.admission.wait") as record:
            try:
                return self._manager.__enter__()
            except (QueueFullError, ServiceUnavailableError):
                record.attrs["shed"] = 1
                raise

    def __exit__(self, *exc):
        return self._manager.__exit__(*exc)


def result_attrs(result: ExecutionResult) -> Dict[str, float]:
    """The per-execution facts the per-layer metrics aggregate."""
    counter = result.counter
    metadata = result.metadata
    return {
        "execute_s": result.elapsed_seconds,
        "cache_hits": counter.cache_hits,
        "cache_misses": counter.cache_misses,
        "cache_evictions": counter.cache_evictions,
        "memory_accesses": counter.memory_accesses,
        "tasks": metadata.get("tasks_executed", 0),
        "morsels": metadata.get("morsels", 0),
        "morsel_skew": metadata.get("morsel_skew", 0.0),
        "retries": metadata.get("worker_restarts", 0) + metadata.get("morsel_retries", 0),
    }


def database_counters(*databases: Database) -> Dict[str, int]:
    """The databases' global cache/build counters plus dictionary decodes,
    summed."""
    counters = {name: sum(getattr(database, name) for database in databases) for name in SCOPED_COUNTERS}
    counters["decodes"] = sum(database.dictionary.decodes for database in databases)
    return counters


# --------------------------------------------------------------- aggregation
def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    spans: List[list],
    operations: int,
    counters_before: Dict[str, int],
    counters_after: Dict[str, int],
    footprint_bytes: int,
) -> Dict[str, float]:
    """Per-layer metrics from spans given as :meth:`Span.as_list` lists.

    A ``*_ms`` time is the layer's self time summed over the traced window
    and divided by ``operations``, so the layers' figures add up to the
    mean operation latency.  Self time is a span's duration minus the time
    its child spans cover.  ``server.admission.wait_ms`` is instead the p99
    wait per admission (the highest percentile with enough samples beyond
    it, else the maximum).  ``engine.overhead_ms`` is the engine call's time
    outside its own timed execute phase and outside the spans below it.
    """
    child_time: Dict[int, float] = {}
    for _ident, _name, start, end, parent, _request, _attrs in spans:
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    self_time: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    inside_execute = 0.0
    for ident, name, start, end, _parent, _request, _attrs in spans:
        self_time[name] = self_time.get(name, 0.0) + (end - start) - child_time.get(ident, 0.0)
        calls[name] = calls.get(name, 0) + 1
        if name in EXECUTE_SPANS:
            inside_execute += end - start

    engine = [attrs for _i, name, _s, _e, _p, _r, attrs in spans if name == "engine.query"]

    def total(key: str) -> float:
        return sum(attrs.get(key, 0) for attrs in engine)

    def per_op_ms(seconds: float) -> float:
        return _ratio(seconds * 1e3, operations)

    delta = {name: counters_after[name] - counters_before[name] for name in counters_after}
    admissions = [(end - start, attrs) for _i, name, start, end, _p, _r, attrs in spans
                  if name == "server.admission.wait"]
    waits = [seconds for seconds, _attrs in admissions]
    shed = sum(attrs.get("shed", 0) for _seconds, attrs in admissions)
    wait = stats.percentile(waits, 99) or stats.percentile(waits, 90) or (max(waits) if waits else 0.0)
    skews = [attrs["morsel_skew"] for attrs in engine if attrs.get("morsels")]
    execute = total("execute_s")
    return {
        "server.http.self_ms": per_op_ms(self_time.get(HTTP_SPAN, 0.0)),
        "server.service.self_ms": per_op_ms(self_time.get("server.service", 0.0)),
        "server.admission.wait_ms": wait * 1e3,
        "server.admission.shed": shed,
        "query.parse_ms": per_op_ms(self_time.get("query.parse", 0.0)),
        "engine.selector.choose_ms": per_op_ms(self_time.get("engine.selector.choose", 0.0)),
        "engine.selector.calls": calls.get("engine.selector.choose", 0),
        "engine.planner.plan_ms": per_op_ms(self_time.get("engine.planner.plan", 0.0)),
        "engine.planner.builds": delta["plan_builds"],
        "engine.planner.hit_rate": _ratio(delta["plan_cache_hits"], delta["plan_cache_hits"] + delta["plan_builds"]),
        "engine.compiler.build_ms": per_op_ms(self_time.get("engine.compiler.build", 0.0)),
        "engine.compiler.builds": delta["compiled_builds"],
        "engine.compiler.hit_rate": _ratio(
            delta["compiled_cache_hits"], delta["compiled_cache_hits"] + delta["compiled_builds"]
        ),
        "engine.execute_ms": per_op_ms(execute),
        "engine.overhead_ms": per_op_ms(self_time.get("engine.query", 0.0) + inside_execute - execute),
        "core.cache.hit_rate": _ratio(total("cache_hits"), total("cache_hits") + total("cache_misses")),
        "core.cache.evictions": total("cache_evictions"),
        "core.memory_accesses_per_op": _ratio(total("memory_accesses"), operations),
        "storage.write_ms": per_op_ms(self_time.get("storage.write", 0.0)),
        "storage.index.build_ms": per_op_ms(self_time.get("storage.index.build", 0.0)),
        "storage.index.builds": delta["index_builds"],
        "storage.index.patches": delta["index_patches"],
        "storage.index.compactions": delta["index_compactions"],
        "storage.decode_ms": per_op_ms(self_time.get("storage.decode", 0.0)),
        "storage.decodes": delta["decodes"],
        "storage.footprint_mb": footprint_bytes / 2**20,
        "engine.pool.run_ms": per_op_ms(self_time.get("engine.pool.run", 0.0)),
        "engine.pool.tasks_per_morsel": _ratio(total("tasks"), total("morsels")),
        "engine.pool.morsel_skew": statistics.median(skews) if skews else 0.0,
        "engine.pool.retries": total("retries"),
        "engine.parallel.partition_ms": per_op_ms(self_time.get("engine.parallel.partition", 0.0)),
    }
