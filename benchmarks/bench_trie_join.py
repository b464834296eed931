"""Trie join benchmarks — shared index cache, compiled drivers, parallelism.

Every database stores its data as dictionary-encoded columnar tries routed
through the shared index cache, so repeated executions of the same (or
overlapping) queries pay no rebuild at all.  The triangle cells measure
counting end to end (executor construction + count):

* ``cold``  — empty index cache (every trie is built);
* ``warm``  — the shared cache already populated (no trie is built).

The remaining cells compare compiled against interpreted drivers (BENCH_6,
BENCH_8) and serial against pool-parallel execution (BENCH_7).

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_trie_join.py \
        -o python_files='bench_*.py' -q -s

or standalone (the CI smoke job uses ``--quick``)::

    python benchmarks/bench_trie_join.py --quick
"""

import sys
import time
from pathlib import Path

if __name__ == "__main__":  # standalone: make repro/ and benchmarks/ importable
    _ROOT = Path(__file__).resolve().parent.parent
    for entry in (str(_ROOT), str(_ROOT / "src")):
        if entry not in sys.path:
            sys.path.insert(0, entry)

import pytest

from repro.bench.reporting import write_bench_json
from repro.core.lftj import LeapfrogTrieJoin
from repro.query.patterns import cycle_query

from benchmarks.conftest import report_row

DATASETS = ("wiki-Vote", "ego-Facebook")
ROUNDS = 3

#: PR 5's trajectory file: serial-vs-parallel join cells (frozen artifact).
BENCH5_JSON = str(Path(__file__).resolve().parent.parent / "BENCH_5.json")

#: PR 6's trajectory file: compiled-vs-interpreted driver cells.
BENCH6_JSON = str(Path(__file__).resolve().parent.parent / "BENCH_6.json")

#: This PR's trajectory file: morsel-vs-static scheduling on the persistent
#: worker pool (BENCH_5 keeps the PR-5 per-query static-partition numbers).
BENCH7_JSON = str(Path(__file__).resolve().parent.parent / "BENCH_7.json")

#: PR 8's trajectory file: compiled + parallel CLFTJ cells (compiled cached
#: trie join vs the interpreted CLFTJ oracle, plus the pclftj identity cell).
BENCH8_JSON = str(Path(__file__).resolve().parent.parent / "BENCH_8.json")

#: Scale of the compiled-vs-interpreted cells: large enough for stable timing.
TIMING_SCALE = 2.0
TIMING_ROUNDS = 7

#: Scale of the parallel cells: large enough that per-morsel join work
#: dominates the fixed pool startup (fork + construction, ~35ms on the
#: calibration box, where serial triangle counting takes ~0.65s; warm
#: queries on the persistent pool pay no startup at all).
PARALLEL_SCALE = 96.0
#: Minimum warm speedup the process backend must deliver on >= 2 cores.
PARALLEL_SPEEDUP_BAR = 1.5
#: BENCH_5's 4-clique per-worker skew under static partitioning — the
#: number the morsel scheduler must strictly beat.
STATIC_SKEW_BASELINE = 1.28


def _best_of(callable_, rounds=None):
    rounds = ROUNDS if rounds is None else rounds
    best = None
    result = None
    for _ in range(rounds):
        started = time.perf_counter()
        result = callable_()
        elapsed = time.perf_counter() - started
        best = elapsed if best is None else min(best, elapsed)
    return best, result


def _triangle_cells(snap_dbs):
    query = cycle_query(3)
    for dataset in DATASETS:
        database = snap_dbs[dataset]

        def cold_run():
            database.clear_index_cache()
            return LeapfrogTrieJoin(query, database).count()

        def warm_run():
            return LeapfrogTrieJoin(query, database).count()

        cold_time, cold_count = _best_of(cold_run)
        warm_run()  # populate the shared cache
        builds_before = database.index_builds
        warm_time, warm_count = _best_of(warm_run)
        builds_during_warm = database.index_builds - builds_before
        yield dataset, cold_time, warm_time, (cold_count, warm_count), builds_during_warm


def _compiled_cells(scale=TIMING_SCALE, rounds=TIMING_ROUNDS):
    """Warm compiled vs interpreted join loop, both over encoded tries.

    The interpreted side (``compile=False``) is the PR-4/BENCH_4 encoded
    configuration — the acceptance baseline the compiled driver must beat by
    2x.  Runs are interleaved so CPU frequency drift hits both sides
    equally; each cell also proves instrumentation parity (identical
    ``OperationCounter`` dictionaries) and that the warm compiled run serves
    the driver from the cache instead of recompiling.
    """
    from repro.bench.workloads import snap_databases
    from repro.engine import QueryEngine
    from repro.query.patterns import clique_query

    queries = [cycle_query(3), clique_query(4)]
    for dataset in DATASETS:
        database = snap_databases((dataset,), scale=scale)[dataset]
        engine = QueryEngine(database)
        for query in queries:
            # Warm everything: tries, plan cache, and the compiled driver.
            interpreted = engine.count(query, algorithm="lftj", compile=False)
            compiled = engine.count(query, algorithm="lftj")
            compiled_time = interpreted_time = float("inf")
            compiled_count = interpreted_count = None
            hits = None
            for _ in range(rounds):
                started = time.perf_counter()
                result = engine.count(query, algorithm="lftj")
                compiled_time = min(compiled_time, time.perf_counter() - started)
                compiled_count = result.count
                hits = result.metadata["compiled_cache_hits"]
                started = time.perf_counter()
                interpreted_count = engine.count(
                    query, algorithm="lftj", compile=False
                ).count
                interpreted_time = min(
                    interpreted_time, time.perf_counter() - started
                )
            yield {
                "dataset": dataset,
                "query": query.name,
                "scale": scale,
                "count_compiled": compiled_count,
                "count_interpreted": interpreted_count,
                "compiled_seconds": compiled_time,
                "interpreted_seconds": interpreted_time,
                "speedup": interpreted_time / compiled_time,
                "counters_match": compiled.counter.as_dict()
                == interpreted.counter.as_dict(),
                "compiled_cache_hits": hits,
                "compiled_builds_total": database.compiled_builds,
            }


def _record_compiled_cells(cells, quick=False):
    """Write the compiled cells into BENCH_6.json (keyed by dataset/query)."""
    payload = {
        "mode": "count",
        "algorithm": "lftj",
        "quick": quick,
        "cells": {f"{c['dataset']}/{c['query']}": c for c in cells},
    }
    write_bench_json(BENCH6_JSON, "compiled_execution", payload)


def test_compiled_triangle_and_clique_speedup():
    """Warm compiled triangle/4-clique >= 2x the interpreted encoded path."""
    cells = list(_compiled_cells())
    _record_compiled_cells(cells)
    for cell in cells:
        report_row(
            "Compiled execution",
            dataset=cell["dataset"],
            query=cell["query"],
            count=cell["count_compiled"],
            interpreted_seconds=round(cell["interpreted_seconds"], 5),
            compiled_seconds=round(cell["compiled_seconds"], 5),
            speedup=round(cell["speedup"], 2),
            cache_hits=cell["compiled_cache_hits"],
        )
        assert cell["count_compiled"] == cell["count_interpreted"]
        assert cell["counters_match"], (
            "compiled drivers must replicate the interpreted instrumentation"
        )
        assert cell["compiled_cache_hits"] == 1, (
            "warm runs must reuse the cached driver, not recompile"
        )
        assert cell["speedup"] >= 2.0, (
            f"warm compiled {cell['query']} on {cell['dataset']} should be "
            f">= 2x the interpreted encoded path, got {cell['speedup']:.2f}x"
        )


def _clftj_cells(scale=TIMING_SCALE, rounds=TIMING_ROUNDS):
    """Warm compiled CLFTJ vs the interpreted CLFTJ oracle, both encoded.

    The interpreted side (``compile=False``) is the PR-1..5 cached-trie-join
    configuration — the acceptance baseline the specialized driver must beat
    by 2x on the single-bag triangle/4-clique cells.  The multi-bag lollipop
    cell exercises the inlined adhesion-cache probes; its speedup is recorded
    but not enforced (both sides amortise subtree work through the cache).
    Every cell proves instrumentation parity — identical ``OperationCounter``
    dictionaries, which subsumes cache hit/store-count parity — inside the
    harness.
    """
    from repro.bench.workloads import snap_databases
    from repro.engine import QueryEngine
    from repro.query.patterns import clique_query, lollipop_query

    queries = [cycle_query(3), clique_query(4), lollipop_query(3, 2)]
    for dataset in DATASETS:
        database = snap_databases((dataset,), scale=scale)[dataset]
        engine = QueryEngine(database)
        for query in queries:
            # Warm everything: tries, plan cache, and the compiled driver.
            interpreted = engine.count(query, algorithm="clftj", compile=False)
            compiled = engine.count(query, algorithm="clftj")
            compiled_time = interpreted_time = float("inf")
            compiled_count = interpreted_count = None
            hits = None
            for _ in range(rounds):
                started = time.perf_counter()
                result = engine.count(query, algorithm="clftj")
                compiled_time = min(compiled_time, time.perf_counter() - started)
                compiled_count = result.count
                hits = result.metadata["compiled_cache_hits"]
                started = time.perf_counter()
                interpreted_count = engine.count(
                    query, algorithm="clftj", compile=False
                ).count
                interpreted_time = min(
                    interpreted_time, time.perf_counter() - started
                )
            yield {
                "dataset": dataset,
                "query": query.name,
                "scale": scale,
                "count_compiled": compiled_count,
                "count_interpreted": interpreted_count,
                "compiled_seconds": compiled_time,
                "interpreted_seconds": interpreted_time,
                "speedup": interpreted_time / compiled_time,
                "counters_match": compiled.counter.as_dict()
                == interpreted.counter.as_dict(),
                "cache_hits_compiled": compiled.counter.cache_hits,
                "cache_hits_interpreted": interpreted.counter.cache_hits,
                "cache_stores_compiled": compiled.counter.cache_insertions,
                "cache_stores_interpreted": interpreted.counter.cache_insertions,
                "compiled_cache_hits": hits,
            }


def _pclftj_identity_cell(scale=0.3, workers=2, backend="processes"):
    """Parallel CLFTJ vs serial CLFTJ: identical counts AND row streams.

    Runs at a modest scale (row materialisation, not counting, bounds the
    cell) over the multi-bag lollipop query so worker-local adhesion caches
    actually serve hits; the merged pclftj stream must be byte-identical to
    the serial one and the per-worker cache statistics must surface in the
    result metadata.
    """
    from repro.bench.workloads import snap_databases
    from repro.engine import QueryEngine
    from repro.query.patterns import lollipop_query

    database = snap_databases(("wiki-Vote",), scale=scale)["wiki-Vote"]
    engine = QueryEngine(database)
    query = lollipop_query(3, 2)
    serial = engine.evaluate(query, algorithm="clftj")
    parallel = engine.evaluate(
        query, algorithm="pclftj", parallel=workers, parallel_backend=backend
    )
    count_serial = engine.count(query, algorithm="clftj")
    count_parallel = engine.count(
        query, algorithm="pclftj", parallel=workers, parallel_backend=backend
    )
    cell = {
        "query": query.name,
        "scale": scale,
        "workers": workers,
        "backend": backend,
        "rows_identical": parallel.rows == serial.rows,
        "row_count": len(serial.rows),
        "count_serial": count_serial.count,
        "count_parallel": count_parallel.count,
        "worker_caches": count_parallel.metadata.get("worker_caches"),
    }
    database.close_pools()
    return cell


def _record_clftj_cells(cells, identity, quick=False):
    """Write the CLFTJ cells into BENCH_8.json (keyed by dataset/query)."""
    payload = {
        "mode": "count",
        "algorithm": "clftj",
        "quick": quick,
        "cells": {f"{c['dataset']}/{c['query']}": c for c in cells},
        "pclftj_identity": identity,
    }
    write_bench_json(BENCH8_JSON, "compiled_clftj", payload)


def test_clftj_compiled_speedup_and_parallel_identity():
    """Warm compiled CLFTJ >= 2x interpreted on triangle/4-clique; pclftj
    reproduces the serial row stream byte for byte."""
    cells = list(_clftj_cells())
    identity = _pclftj_identity_cell()
    _record_clftj_cells(cells, identity)
    for cell in cells:
        report_row(
            "Compiled CLFTJ",
            dataset=cell["dataset"],
            query=cell["query"],
            count=cell["count_compiled"],
            interpreted_seconds=round(cell["interpreted_seconds"], 5),
            compiled_seconds=round(cell["compiled_seconds"], 5),
            speedup=round(cell["speedup"], 2),
            cache_hits=cell["cache_hits_compiled"],
        )
        assert cell["count_compiled"] == cell["count_interpreted"]
        assert cell["counters_match"], (
            "compiled CLFTJ must replicate the interpreted instrumentation"
        )
        assert cell["cache_hits_compiled"] == cell["cache_hits_interpreted"]
        assert cell["cache_stores_compiled"] == cell["cache_stores_interpreted"]
        assert cell["compiled_cache_hits"] == 1, (
            "warm runs must reuse the cached driver, not recompile"
        )
        if cell["query"] in ("3-cycle", "4-clique"):
            assert cell["speedup"] >= 2.0, (
                f"warm compiled clftj {cell['query']} on {cell['dataset']} "
                f"should be >= 2x the interpreted path, got "
                f"{cell['speedup']:.2f}x"
            )
    report_row(
        "Parallel CLFTJ identity",
        query=identity["query"],
        rows=identity["row_count"],
        workers=identity["workers"],
        backend=identity["backend"],
        rows_identical=identity["rows_identical"],
    )
    assert identity["rows_identical"], (
        "pclftj must reproduce the serial clftj row stream byte for byte"
    )
    assert identity["count_serial"] == identity["count_parallel"]
    assert identity["worker_caches"], (
        "pclftj must report per-worker adhesion-cache statistics"
    )


def _parallel_report(scale=PARALLEL_SCALE, workers=None, backend="processes",
                     rounds=3, quick=False):
    """Serial vs static vs morsel triangle / 4-clique cells over wiki-Vote.

    Counts are cross-checked inside the harness; the >= 1.5x warm morsel
    speedup bar only applies with the process backend on machines with >= 2
    cores (a single core cannot beat serial execution with fork workers,
    and the thread backend is GIL-bound on this pure-Python loop — both can
    only prove agreement) and never in ``--quick`` mode.  Written to
    BENCH_7.json; BENCH_5.json keeps PR 5's per-query static-partition
    trajectory untouched.
    """
    import os

    from repro.bench.harness import run_parallel_benchmark
    from repro.bench.workloads import snap_databases
    from repro.query.patterns import clique_query

    enforce = (
        PARALLEL_SPEEDUP_BAR
        if not quick and backend == "processes" and (os.cpu_count() or 1) >= 2
        else None
    )
    report = run_parallel_benchmark(
        snap_databases(("wiki-Vote",), scale=scale),
        [cycle_query(3), clique_query(4)],
        algorithm="lftj",
        backend=backend,
        workers=workers,
        rounds=rounds,
        assert_speedup=enforce,
        # BENCH_7, like BENCH_5, tracks parallel scaling of the
        # *interpreted* loop so scheduling effects are not confounded with
        # compilation; the compiled driver has its own BENCH_6 cells.
        compile=False,
    )
    report["query_set"] = ["3-cycle", "4-clique"]
    report["scale"] = scale
    report["quick"] = quick
    report["speedup_enforced"] = enforce is not None
    write_bench_json(BENCH7_JSON, "morsel_parallel_join", report)
    return report


def test_parallel_triangle_and_clique_speedup():
    """Morsel cells recorded in BENCH_7.json; speedup enforced on >= 2 cores.

    On a single-core box the fork backend degenerates (one worker), so the
    cells fall back to two thread workers: the speedup bar is off, but the
    per-worker skew comparison stays meaningful because skew is computed
    from operation counts, not wall time.
    """
    import os

    cores = os.cpu_count() or 1
    if cores >= 2:
        report = _parallel_report()
    else:
        report = _parallel_report(workers=2, backend="threads")
    for cell in report["cells"]:
        report_row(
            "Morsel parallel join",
            dataset=cell["dataset"],
            query=cell["query"],
            count=cell["count"],
            serial_seconds=round(cell["serial_seconds"], 5),
            static_seconds=round(cell["static_seconds"], 5),
            morsel_seconds=round(cell["parallel_seconds"], 5),
            speedup=round(cell["speedup"], 2),
            workers=cell["workers"],
            morsels=cell["morsels"],
            steals=cell["steals"],
            backend=cell["parallel_backend"],
            skew_static=cell["partition_skew_static"],
            skew_morsel=cell["partition_skew_morsel"],
        )
        assert cell["workers"] >= 1
        assert cell["morsels"] >= cell["workers"] or cell["morsels"] >= 1
        assert cell["partition_bounds"] is not None
        assert cell["partition_skew_morsel"] is not None
        if cell["query"] == "4-clique" and cell["workers"] > 1:
            # The headline: stealing + splitting must beat BENCH_5's static
            # per-worker imbalance on the skewed 4-clique cell.
            assert cell["partition_skew_morsel"] < STATIC_SKEW_BASELINE, (
                f"morsel scheduling should beat the static skew baseline "
                f"{STATIC_SKEW_BASELINE}, got {cell['partition_skew_morsel']}"
            )


def test_triangle_counting_warm_cache_rebuilds_nothing(snap_dbs):
    """Warm triangle counting reuses every cached trie and agrees with cold."""
    for dataset, cold_time, warm_time, counts, warm_builds in _triangle_cells(snap_dbs):
        cold_count, warm_count = counts
        assert cold_count == warm_count
        assert warm_builds == 0, "warm runs must not rebuild any trie"
        report_row(
            "Trie index cache",
            dataset=dataset,
            query="3-cycle",
            count=warm_count,
            cold_seconds=round(cold_time, 5),
            warm_seconds=round(warm_time, 5),
            warm_speedup=round(cold_time / warm_time, 2),
        )


def test_warm_construction_cost_is_near_zero(snap_dbs):
    """With a warm shared cache, executor construction does no index work."""
    query = cycle_query(3)
    database = snap_dbs["wiki-Vote"]
    database.clear_index_cache()
    cold_time, _ = _best_of(lambda: LeapfrogTrieJoin(query, database), rounds=1)
    warm_time, _ = _best_of(lambda: LeapfrogTrieJoin(query, database))
    report_row(
        "Trie backend",
        dataset="wiki-Vote",
        phase="construction",
        cold_seconds=round(cold_time, 6),
        warm_seconds=round(warm_time, 6),
        ratio=round(cold_time / warm_time, 1),
    )
    assert warm_time < cold_time


@pytest.mark.parametrize("algorithm", ("lftj", "clftj"))
def test_repeated_engine_traffic_reuses_tries(engines, algorithm):
    """The Figure-10 style repeated-query workflow never rebuilds tries."""
    engine = engines["wiki-Vote"]
    database = engine.database
    query = cycle_query(3)
    first = engine.count(query, algorithm=algorithm)
    builds_after_first = database.index_builds
    second = engine.count(query, algorithm=algorithm)
    assert first.count == second.count
    assert database.index_builds == builds_after_first
    report_row(
        "Trie backend",
        dataset="wiki-Vote",
        algorithm=algorithm,
        note="warm repeat: 0 trie builds",
        count=second.count,
    )


def main(argv=None):
    """Standalone entry point (CI smoke): run the triangle cells directly.

    ``--quick`` shrinks the datasets and skips the timing assertions — the
    point is that the bench entry point still runs end to end and that every
    configuration agrees, not that a loaded CI runner hits speedup targets.
    """
    import argparse

    from repro.bench.workloads import snap_databases

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small datasets, one round, no timing assertions")
    parser.add_argument("--scale", type=float, default=None,
                        help="dataset scale (default: 0.15 with --quick, else 0.3)")
    parser.add_argument("--parallel", type=int, default=None, metavar="N",
                        help="also run the serial/static/morsel cells with N "
                             "pool workers (writes BENCH_7.json)")
    parser.add_argument("--parallel-backend", choices=("threads", "processes"),
                        default="processes",
                        help="backend for the parallel cells (default: processes)")
    args = parser.parse_args(argv)

    scale = args.scale if args.scale is not None else (0.15 if args.quick else 0.3)
    global ROUNDS
    if args.quick:
        ROUNDS = 1
    databases = snap_databases(DATASETS, scale=scale)
    for dataset, cold_time, warm_time, counts, warm_builds in _triangle_cells(databases):
        cold_count, warm_count = counts
        if cold_count != warm_count:
            print(f"FAIL: cold/warm counts disagree on {dataset}: {counts}", file=sys.stderr)
            return 1
        if warm_builds != 0:
            print(f"FAIL: warm runs rebuilt {warm_builds} tries on {dataset}", file=sys.stderr)
            return 1
        report_row(
            "Trie index cache (standalone)",
            dataset=dataset,
            query="3-cycle",
            count=warm_count,
            cold_seconds=round(cold_time, 5),
            warm_seconds=round(warm_time, 5),
            warm_speedup=round(cold_time / warm_time, 2),
        )
    compiled_scale = 0.5 if args.quick else TIMING_SCALE
    compiled_rounds = 2 if args.quick else TIMING_ROUNDS
    compiled_cells = list(
        _compiled_cells(scale=compiled_scale, rounds=compiled_rounds)
    )
    _record_compiled_cells(compiled_cells, quick=args.quick)
    for cell in compiled_cells:
        report_row(
            "Compiled execution (standalone)",
            dataset=cell["dataset"],
            query=cell["query"],
            count=cell["count_compiled"],
            interpreted_seconds=round(cell["interpreted_seconds"], 5),
            compiled_seconds=round(cell["compiled_seconds"], 5),
            speedup=round(cell["speedup"], 2),
        )
        if cell["count_compiled"] != cell["count_interpreted"]:
            print(f"FAIL: compiled/interpreted counts disagree on "
                  f"{cell['dataset']}/{cell['query']}", file=sys.stderr)
            return 1
        if not cell["counters_match"]:
            print(f"FAIL: compiled instrumentation diverges on "
                  f"{cell['dataset']}/{cell['query']}", file=sys.stderr)
            return 1
        if not args.quick and cell["speedup"] < 2.0:
            print(f"FAIL: compiled speedup below 2x on "
                  f"{cell['dataset']}/{cell['query']}", file=sys.stderr)
            return 1
    clftj_scale = 0.5 if args.quick else TIMING_SCALE
    clftj_rounds = 2 if args.quick else TIMING_ROUNDS
    clftj_cells = list(_clftj_cells(scale=clftj_scale, rounds=clftj_rounds))
    identity = _pclftj_identity_cell(
        scale=0.15 if args.quick else 0.3,
        backend="threads" if args.quick else "processes",
    )
    _record_clftj_cells(clftj_cells, identity, quick=args.quick)
    for cell in clftj_cells:
        report_row(
            "Compiled CLFTJ (standalone)",
            dataset=cell["dataset"],
            query=cell["query"],
            count=cell["count_compiled"],
            interpreted_seconds=round(cell["interpreted_seconds"], 5),
            compiled_seconds=round(cell["compiled_seconds"], 5),
            speedup=round(cell["speedup"], 2),
        )
        if cell["count_compiled"] != cell["count_interpreted"]:
            print(f"FAIL: compiled/interpreted clftj counts disagree on "
                  f"{cell['dataset']}/{cell['query']}", file=sys.stderr)
            return 1
        if not cell["counters_match"]:
            print(f"FAIL: compiled clftj instrumentation diverges on "
                  f"{cell['dataset']}/{cell['query']}", file=sys.stderr)
            return 1
        if (not args.quick and cell["query"] in ("3-cycle", "4-clique")
                and cell["speedup"] < 2.0):
            print(f"FAIL: compiled clftj speedup below 2x on "
                  f"{cell['dataset']}/{cell['query']}", file=sys.stderr)
            return 1
    if not identity["rows_identical"]:
        print("FAIL: pclftj row stream diverges from serial clftj",
              file=sys.stderr)
        return 1
    if args.parallel is not None:
        parallel_scale = 0.5 if args.quick else PARALLEL_SCALE
        try:
            report = _parallel_report(
                scale=parallel_scale,
                workers=args.parallel,
                backend=args.parallel_backend,
                rounds=1 if args.quick else 3,
                quick=args.quick,
            )
        except AssertionError as error:
            print(f"FAIL: {error}", file=sys.stderr)
            return 1
        for cell in report["cells"]:
            report_row(
                "Morsel parallel join (standalone)",
                dataset=cell["dataset"],
                query=cell["query"],
                count=cell["count"],
                serial_seconds=round(cell["serial_seconds"], 5),
                static_seconds=round(cell["static_seconds"], 5),
                morsel_seconds=round(cell["parallel_seconds"], 5),
                speedup=round(cell["speedup"], 2),
                workers=cell["workers"],
                morsels=cell["morsels"],
                steals=cell["steals"],
                backend=cell["parallel_backend"],
                skew_static=cell["partition_skew_static"],
                skew_morsel=cell["partition_skew_morsel"],
            )
    print("bench_trie_join: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
