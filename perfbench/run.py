"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the program under test is ``src/repro``.
The second-to-last line of standard output is the full report (host facts,
every metric that applies, sample counts, failures); the last line is the
summary ``{"correct", "attempted", "failed", "metrics"}`` holding the
metrics ``BENCHMARK.json`` declares: the end-to-end ones with ``--trace 0``,
the per-layer ones with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Declared metrics: (name, unit).  BENCHMARK.json lists the same names.
END_TO_END = (
    ("setup_s", "s"),
    ("throughput_ops_s", "1/s"),
    ("latency_quiet_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
)
PER_LAYER = (
    ("server.http.self_ms", "ms"),
    ("server.service.self_ms", "ms"),
    ("server.admission.wait_ms", "ms"),
    ("server.admission.shed", "count"),
    ("query.parse_ms", "ms"),
    ("engine.selector.choose_ms", "ms"),
    ("engine.selector.calls", "count"),
    ("engine.planner.plan_ms", "ms"),
    ("engine.planner.builds", "count"),
    ("engine.planner.hit_rate", "ratio"),
    ("engine.compiler.build_ms", "ms"),
    ("engine.compiler.builds", "count"),
    ("engine.compiler.hit_rate", "ratio"),
    ("engine.execute_ms", "ms"),
    ("engine.overhead_ms", "ms"),
    ("core.cache.hit_rate", "ratio"),
    ("core.cache.evictions", "count"),
    ("core.memory_accesses_per_op", "count"),
    ("storage.write_ms", "ms"),
    ("storage.index.build_ms", "ms"),
    ("storage.index.builds", "count"),
    ("storage.index.patches", "count"),
    ("storage.index.compactions", "count"),
    ("storage.decode_ms", "ms"),
    ("storage.decodes", "count"),
    ("storage.footprint_mb", "MB"),
    ("trace.overhead_pct", "%"),
)
#: Per-layer metrics of the worker pool, reported on parallel-count only.
POOL_LAYER = (
    ("engine.pool.run_ms", "ms"),
    ("engine.pool.tasks_per_morsel", "ratio"),
    ("engine.pool.morsel_skew", "ratio"),
    ("engine.pool.retries", "count"),
    ("engine.parallel.partition_ms", "ms"),
)
#: Units of the metrics printed in the full report only.
REPORT_ONLY = {
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "latency_p99_ms": "ms",
    "rows_per_s": "1/s",
    "write_p50_ms": "ms",
    "read_p50_ms": "ms",
    "failed_fraction": "ratio",
}
WORKLOAD_NAMES = ("serve-mix", "evaluate-rows", "update-mix", "parallel-count")


def host_facts() -> dict:
    import numpy

    return {
        "cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A SIGTERM unwinds like an exception, so the server subprocess is
    # stopped and waited for on the way out.
    signal.signal(signal.SIGTERM, lambda _signum, _frame: sys.exit(128 + signal.SIGTERM))
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: the program under test is missing: no {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import inputs, workloads

    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        report = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace), work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run is still using it

    declared = PER_LAYER if args.trace else END_TO_END
    if args.trace and args.workload == "parallel-count":
        declared = declared + POOL_LAYER
    units = dict(END_TO_END + PER_LAYER + POOL_LAYER, **REPORT_ONLY)
    measured = report.pop("metrics")
    report.update(
        workload=args.workload,
        seed=args.seed,
        scale=inputs.SCALES[args.workload],
        graphs=inputs.GRAPHS[args.workload],
        seconds=args.seconds,
        trace=args.trace,
        host=host_facts(),
        metrics={name: {"value": value, "unit": units[name]} for name, value in measured.items()},
    )
    print(json.dumps(report))
    summary = {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": measured[name], "unit": unit} for name, unit in declared},
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
