"""The benchmark's workloads: set-up, closed-loop measurement, oracle check.

Every workload runs in three phases:

1. **Set-up** (timed as ``setup_s``, repeated as ``SETUP_*`` below says,
   median reported): generate the graph, write it as an edge-list file, load it,
   boot the server where there is one, and warm up — one execution of every
   query shape, which pays the first planning and code generation.
2. **Measurement**: a closed loop — one client sends its next operation
   only after the previous one completed — for the requested seconds.
   Answers are recorded, not checked, so checking costs no measured time.
3. **Check**: the oracle answers are computed with a different algorithm or
   execution tier (outside every timed region) and every recorded answer is
   compared with them.  A wrong answer fails its operation.

With tracing on, the measurement window is split: the first third runs
untraced, the rest with :class:`perfbench.tracing.Tracer` installed.  The
per-layer metrics come from the traced window; the tracing overhead is the
traced window's throughput against the untraced one's.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

import repro.cli
from repro.engine.engine import QueryEngine
from repro.storage.database import Database
from repro.storage.loaders import load_edge_list, relation_from_edges

from perfbench import inputs, stats, tracing

#: Set-up repeats: at least SETUP_MIN_REPEATS and SETUP_MIN_SECONDS in total,
#: at most SETUP_MAX_REPEATS, and no new repeat once SETUP_MAX_SECONDS passed.
SETUP_MIN_REPEATS = 3
SETUP_MAX_REPEATS = 15
SETUP_MIN_SECONDS = 4.0
SETUP_MAX_SECONDS = 10.0
LAUNCHER = Path(__file__).resolve().parent / "serve_launcher.py"
SRC = Path(__file__).resolve().parent.parent / "src"

#: update-mix oracle: per shape, an algorithm other than the one ``auto``
#: picks for it, run on a fresh database rebuilt from the batch's edge set.
UPDATE_ORACLE = {"3-cycle": "clftj", "4-clique": "clftj", "lollipop": "lftj", "4-path": "lftj"}


class Window:
    """What one measurement window observed."""

    def __init__(self) -> None:
        self.latencies: List[float] = []
        self.write_latencies: List[float] = []
        self.read_latencies: List[float] = []
        self.operations = 0
        self.busy_seconds = 0.0
        self.wall_seconds = 0.0
        self.rows = 0
        self.refused: List[str] = []

    def record(self, seconds: float) -> None:
        """One completed operation that took ``seconds``."""
        self.latencies.append(seconds)
        self.operations += 1

    @property
    def throughput(self) -> float:
        seconds = self.busy_seconds or self.wall_seconds
        return self.operations / seconds if seconds else 0.0


class Answers:
    """Recorded answers, keyed for the oracle: ``(operation, key, answer)``."""

    def __init__(self) -> None:
        self.records: List[Tuple[int, object, object]] = []
        self._operations = 0

    def next_operation(self) -> int:
        self._operations += 1
        return self._operations

    @property
    def attempted(self) -> int:
        return self._operations

    def add(self, operation: int, key: object, answer: object) -> None:
        self.records.append((operation, key, answer))

    def failures(self, expected: Dict[object, object]) -> Dict[int, str]:
        """Operations with an answer that differs from ``expected``."""
        failed: Dict[int, str] = {}
        for operation, key, answer in self.records:
            if answer != expected[key] and operation not in failed:
                failed[operation] = f"{key!r}: got {answer!r}, expected {expected[key]!r}"
        return failed


def load_database(path: Path) -> Database:
    return Database([load_edge_list(path)], name=path.stem)


def parse(shape: str):
    """Resolve query text through ``repro.cli`` (looked up per call, so the
    tracer's wrapper sees it)."""
    return repro.cli.resolve_query(shape)


# ------------------------------------------------------------ library loops
class Graph:
    """One workload graph: written as an edge list, loaded into a database."""

    def __init__(self, workload: str, index: int, seed: int, work_dir: Path) -> None:
        self.index = index
        self.seed = seed
        self.edges = inputs.graph_edges(workload, seed)
        path = inputs.write_edge_list(self.edges, work_dir / f"{workload}-{seed}.edges")
        self.database = load_database(path)
        self.engine = QueryEngine(self.database)


class LibraryWorkload:
    """A single-client closed loop calling the library in this process.

    Operations go to the run's graphs in turn (``inputs.graph_seeds``)."""

    name = ""

    def __init__(self, seed: int, work_dir: Path) -> None:
        self.seed = seed
        self.work_dir = work_dir
        self.answers = Answers()
        self.graphs: List[Graph] = []
        self.turn = 0

    def setup(self) -> None:
        self.close()
        self.graphs = []
        self.graphs = [
            Graph(self.name, index, seed, self.work_dir)
            for index, seed in enumerate(inputs.graph_seeds(self.name, self.seed))
        ]
        self.turn = 0
        for graph in self.graphs:
            self.warm_up(graph)

    @property
    def cycle(self) -> int:
        """Operations after which the operation mix repeats."""
        return len(self.graphs)

    def warm_up(self, graph: Graph) -> None:
        raise NotImplementedError

    def operation(self, graph: Graph, window: Window) -> None:
        raise NotImplementedError

    def expected(self) -> Dict[object, object]:
        raise NotImplementedError

    def close(self) -> None:
        for graph in self.graphs:
            graph.database.close_pools()

    def measure(self, seconds: float, tracer: Optional[tracing.Tracer] = None) -> Window:
        window = Window()
        started = time.perf_counter()
        deadline = started + seconds
        while time.perf_counter() < deadline:
            graph = self.graphs[self.turn % len(self.graphs)]
            self.turn += 1
            if tracer is None:
                self.operation(graph, window)
            else:
                with tracer.span(tracing.OP_SPAN):
                    self.operation(graph, window)
        window.wall_seconds = time.perf_counter() - started
        return window


class EvaluateRows(LibraryWorkload):
    """One operation evaluates every (shape, algorithm) of
    ``inputs.EVALUATE_PASS`` and reads every row."""

    name = "evaluate-rows"

    def warm_up(self, graph: Graph) -> None:
        for shape, algorithm in inputs.EVALUATE_PASS:
            graph.engine.evaluate(parse(shape), algorithm=algorithm)

    def operation(self, graph: Graph, window: Window) -> None:
        operation = self.answers.next_operation()
        results = []
        started = time.perf_counter()
        for shape, algorithm in inputs.EVALUATE_PASS:
            result = graph.engine.evaluate(parse(shape), algorithm=algorithm)
            results.append((shape, result, result.rows))
        elapsed = time.perf_counter() - started
        window.record(elapsed)
        window.busy_seconds += elapsed
        for shape, result, rows in results:
            window.rows += len(rows)
            digest = stats.row_digest(rows, result.variable_order)
            self.answers.add(operation, (graph.index, shape), (len(rows), digest))

    def expected(self) -> Dict[object, object]:
        expected = {}
        for graph in self.graphs:
            for shape in dict(inputs.EVALUATE_PASS):
                result = graph.engine.evaluate(parse(shape), algorithm="generic_join")
                rows = result.rows
                expected[(graph.index, shape)] = (len(rows), stats.row_digest(rows, result.variable_order))
        return expected


class UpdateMix(LibraryWorkload):
    """One operation is a write batch (insert, then delete) followed by an
    ``auto`` count of each read shape; its latency covers all five.  After its seeded pass of
    ``inputs.UPDATE_BATCHES`` batches a graph is written back to its initial
    edge set (outside the operations) and the pass repeats, so every batch
    meets the same data on every pass."""

    name = "update-mix"

    @property
    def cycle(self) -> int:
        return len(self.graphs) * inputs.UPDATE_BATCHES

    def warm_up(self, graph: Graph) -> None:
        graph.batches = inputs.update_batches(graph.seed, graph.edges)
        final = set(inputs.replay(graph.edges, graph.batches)[-1])
        initial = set(graph.edges)
        graph.restore = (sorted(final - initial), sorted(initial - final))
        graph.position = 0
        for shape in inputs.UPDATE_READ_SHAPES:
            graph.engine.count(parse(shape), algorithm="auto")

    def operation(self, graph: Graph, window: Window) -> None:
        operation = self.answers.next_operation()
        database = graph.database
        inserts, deletes = graph.batches[graph.position]
        started = time.perf_counter()
        database.insert("E", inserts)
        database.delete("E", deletes)
        window.write_latencies.append(time.perf_counter() - started)
        for shape in inputs.UPDATE_READ_SHAPES:
            began = time.perf_counter()
            result = graph.engine.count(parse(shape), algorithm="auto")
            window.read_latencies.append(time.perf_counter() - began)
            self.answers.add(operation, (graph.index, graph.position, shape), result.count)
        elapsed = time.perf_counter() - started
        window.record(elapsed)
        window.busy_seconds += elapsed
        graph.position += 1
        if graph.position == len(graph.batches):
            graph.position = 0
            added, removed = graph.restore
            database.delete("E", added)
            database.insert("E", removed)

    def expected(self) -> Dict[object, object]:
        used = {key[:2] for _operation, key, _answer in self.answers.records}
        expected = {}
        for graph in self.graphs:
            for position, edges in enumerate(inputs.replay(graph.edges, graph.batches)):
                if (graph.index, position) not in used:
                    continue
                relation = relation_from_edges(edges, name="E", attributes=("src", "dst"))
                fresh = QueryEngine(Database([relation]))
                for shape, algorithm in UPDATE_ORACLE.items():
                    count = fresh.count(parse(shape), algorithm=algorithm).count
                    expected[(graph.index, position, shape)] = count
        return expected


class ParallelCount(LibraryWorkload):
    """One operation is one ``parallel=True`` count; the engine picks the
    workers, backend and mode."""

    name = "parallel-count"
    cycle = len(inputs.PARALLEL_QUERIES)

    def warm_up(self, graph: Graph) -> None:
        for shape, algorithm in inputs.PARALLEL_QUERIES:
            graph.engine.count(parse(shape), algorithm=algorithm, parallel=True)

    def operation(self, graph: Graph, window: Window) -> None:
        operation = self.answers.next_operation()
        shape, algorithm = inputs.PARALLEL_QUERIES[operation % len(inputs.PARALLEL_QUERIES)]
        started = time.perf_counter()
        result = graph.engine.count(parse(shape), algorithm=algorithm, parallel=True)
        elapsed = time.perf_counter() - started
        window.record(elapsed)
        window.busy_seconds += elapsed
        self.answers.add(operation, (graph.index, shape), result.count)

    def expected(self) -> Dict[object, object]:
        return {
            (graph.index, shape): graph.engine.count(parse(shape), algorithm=algorithm).count
            for graph in self.graphs
            for shape, algorithm in inputs.PARALLEL_QUERIES
        }


# --------------------------------------------------------------- serve-mix
def _post(port: int, endpoint: str, body: Dict[str, object], token: Optional[str] = None):
    """One request on its own connection; returns (status, decoded body)."""
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        headers = {"Content-Type": "application/json"}
        if token is not None:
            headers["X-Repro-Session"] = token
        connection.request("POST", f"/{endpoint}", json.dumps(body), headers)
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


def _serve_answer(endpoint: str, payload: Dict[str, object]) -> object:
    if endpoint == "count":
        return payload["count"]
    return payload["count"], hash(tuple(tuple(row) for row in payload["rows"]))


class Server:
    """A ``repro serve`` subprocess started through the launcher."""

    def __init__(self, edge_list: Path, report: Path) -> None:
        self.report = report
        env = dict(os.environ, PYTHONPATH=str(SRC))
        self.stderr = open(f"{report}.stderr", "w", encoding="utf-8")
        self.process = subprocess.Popen(
            [sys.executable, str(LAUNCHER), str(report), "serve",
             "--dataset", str(edge_list), "--port", "0"],
            stdout=subprocess.PIPE, stderr=self.stderr, text=True, env=env,
        )
        line = self.process.stdout.readline()
        match = re.search(r"http://[^:]+:(\d+)", line)
        if match is None:
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}; see {report}.stderr")
        self.port = int(match.group(1))

    def start_tracing(self) -> None:
        marker = Path(f"{self.report}.tracing")
        self.process.send_signal(signal.SIGUSR1)
        deadline = time.monotonic() + 30
        while not marker.exists():
            if time.monotonic() > deadline:
                raise RuntimeError("server did not start tracing")
            time.sleep(0.01)

    def stop(self) -> Dict[str, object]:
        """SIGTERM (graceful drain), wait, and return the launcher's report."""
        try:
            if self.process.poll() is None:
                self.process.send_signal(signal.SIGTERM)
            self.process.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.communicate()
        finally:
            self.stderr.close()
        if self.process.returncode != 0 or not self.report.exists():
            raise RuntimeError(f"server exited with {self.process.returncode}; see {self.report}.stderr")
        return json.loads(self.report.read_text(encoding="utf-8"))


class ServeMix:
    """One closed-loop HTTP client against one ``repro serve`` subprocess.

    One client, not several: on a host of a few cores, a second client
    makes requests queue behind each other in the server, and the measured
    latency then follows the scheduler more than the request path."""

    name = "serve-mix"
    cycle = len(inputs.SERVE_BLOCK)

    def __init__(self, seed: int, work_dir: Path) -> None:
        self.seed = seed
        self.work_dir = work_dir
        self.answers = Answers()
        self.server: Optional[Server] = None
        self.boots = 0
        self.requests: Iterator[Dict[str, object]] = inputs.serve_requests(seed)

    def setup(self) -> None:
        self.close()
        self.edges = inputs.graph_edges(self.name, self.seed)
        path = inputs.write_edge_list(self.edges, self.work_dir / f"{self.name}-{self.seed}.edges")
        self.boots += 1
        self.server = Server(path, self.work_dir / f"server-{self.boots}.json")
        port = self.server.port
        status, body = _post(port, "prepare", {"query": "lollipop", "algorithm": "clftj"})
        if status != 200:
            raise RuntimeError(f"prepare failed with HTTP {status}: {body!r}")
        self.token = json.loads(body)["session"]
        warm = [("count", {"query": shape, "algorithm": "auto"}, None) for shape in inputs.SERVE_AUTO_SHAPES]
        warm.append(("count", {"query": "lollipop", "algorithm": "clftj"}, self.token))
        warm.extend(
            ("evaluate", {"query": shape, "algorithm": "lftj", "max_rows": inputs.SERVE_MAX_ROWS}, None)
            for shape in inputs.SERVE_EVALUATE_SHAPES
        )
        for endpoint, request, token in warm:
            status, body = _post(port, endpoint, request, token)
            if status != 200:
                raise RuntimeError(f"warm-up {endpoint} failed with HTTP {status}: {body!r}")

    def close(self) -> Optional[Dict[str, object]]:
        server, self.server = self.server, None
        return server.stop() if server is not None else None

    def measure(self, seconds: float) -> Window:
        window = Window()
        port = self.server.port
        started = time.perf_counter()
        deadline = started + seconds
        while time.perf_counter() < deadline:
            request = next(self.requests)
            operation = self.answers.next_operation()
            endpoint, body = request["endpoint"], request["body"]
            token = self.token if request["session"] else None
            began = time.perf_counter()
            try:
                status, payload = _post(port, endpoint, body, token)
            except OSError as error:
                status, payload = None, str(error).encode()
            elapsed = time.perf_counter() - began
            if status != 200:
                window.refused.append(f"op {operation} {endpoint}: HTTP {status} {payload[:200]!r}")
                continue
            response = json.loads(payload)
            self.answers.add(operation, (endpoint, body["query"]), _serve_answer(endpoint, response))
            window.record(elapsed)
            window.rows += len(response.get("rows", ()))
        window.wall_seconds = time.perf_counter() - started
        return window

    def expected(self) -> Dict[object, object]:
        database = Database([relation_from_edges(self.edges, name="E", attributes=("src", "dst"))])
        engine = QueryEngine(database)
        expected: Dict[object, object] = {}
        for shape in inputs.SERVE_AUTO_SHAPES:
            expected[("count", shape)] = engine.count(parse(shape), algorithm="clftj", compile=False).count
        for shape in inputs.SERVE_EVALUATE_SHAPES:
            rows = engine.evaluate(parse(shape), algorithm="lftj", compile=False).rows
            expected[("evaluate", shape)] = (len(rows), hash(tuple(rows[: inputs.SERVE_MAX_ROWS])))
        return expected


WORKLOADS = {
    workload.name: workload for workload in (ServeMix, EvaluateRows, ParallelCount, UpdateMix)
}


# ------------------------------------------------------------------ running
def run(name: str, seed: int, seconds: float, trace: bool, work_dir: Path) -> Dict[str, object]:
    """Set up, measure and check one workload; returns the full report."""
    workload = WORKLOADS[name](seed, work_dir)
    setups = []
    windows: List[Window] = []
    layers: Dict[str, float] = {}
    serve = isinstance(workload, ServeMix)
    peak_rss_kb = 0
    try:
        while len(setups) < SETUP_MAX_REPEATS and sum(setups) < SETUP_MAX_SECONDS and (
            len(setups) < SETUP_MIN_REPEATS or sum(setups) < SETUP_MIN_SECONDS
        ):
            started = time.perf_counter()
            workload.setup()
            setups.append(time.perf_counter() - started)
        if trace:
            windows.append(workload.measure(seconds / 3))
            layers = _traced_window(workload, seconds * 2 / 3, windows)
        else:
            windows.append(workload.measure(seconds))
            if serve:
                peak_rss_kb = workload.close()["peak_rss_kb"]
            else:
                peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        expected = workload.expected()
    finally:
        workload.close()

    failures = workload.answers.failures(expected)
    refused = [message for window in windows for message in window.refused]
    attempted = workload.answers.attempted
    failed = len(failures) + len(refused)
    report: Dict[str, object] = {
        "attempted": attempted,
        "failed": failed,
        "failures": (refused + list(failures.values()))[:10],
        "setup_seconds": setups,
    }
    measured = windows[-1]
    if trace:
        untraced = windows[0]
        layers["trace.overhead_pct"] = (untraced.throughput / measured.throughput - 1.0) * 100.0
        report["metrics"] = layers
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "throughput_ops_s": measured.throughput,
            "peak_rss_mb": peak_rss_kb / 1024.0,
            "failed_fraction": failed / attempted,
        }
        metrics.update(stats.latency_summary(measured.latencies))
        metrics["latency_quiet_p50_ms"] = stats.quiet_median(measured.latencies, workload.cycle)
        if measured.rows:
            metrics["rows_per_s"] = measured.rows / (measured.busy_seconds or measured.wall_seconds)
        if measured.write_latencies:
            metrics["write_p50_ms"] = statistics.median(measured.write_latencies) * 1e3
            metrics["read_p50_ms"] = statistics.median(measured.read_latencies) * 1e3
        report["metrics"] = metrics
    report["samples"] = {
        "operations": measured.operations,
        "latencies": len(measured.latencies),
        "writes": len(measured.write_latencies),
        "reads": len(measured.read_latencies),
        "measured_seconds": measured.busy_seconds or measured.wall_seconds,
    }
    return report


def _traced_window(workload, seconds: float, windows: List[Window]) -> Dict[str, float]:
    """Measure ``seconds`` with the tracer installed; return layer metrics."""
    if isinstance(workload, ServeMix):
        workload.server.start_tracing()
        window = workload.measure(seconds)
        windows.append(window)
        server_report = workload.close()
        return tracing.layer_metrics(
            server_report["spans"], window.operations, server_report["counters_before"],
            server_report["counters_after"], server_report["footprint_bytes"],
        )
    databases = [graph.database for graph in workload.graphs]
    tracer = tracing.Tracer()
    before = tracing.database_counters(*databases)
    tracer.install()
    try:
        window = workload.measure(seconds, tracer)
    finally:
        tracer.uninstall()
    windows.append(window)
    return tracing.layer_metrics(
        [span.as_list() for span in tracer.spans], window.operations, before,
        tracing.database_counters(*databases),
        sum(database.memory_footprint() for database in databases),
    )
