"""Start ``repro serve`` for the serve-mix workload, with optional tracing.

    python3 perfbench/serve_launcher.py REPORT serve --dataset FILE --port 0

Runs the ``repro`` command line with the remaining arguments.  On SIGUSR1
the launcher installs the span wrappers of :mod:`perfbench.tracing` and
creates ``REPORT.tracing`` to say so.  At exit it writes ``REPORT`` as JSON:
the process's peak resident memory and, when tracing ran, the spans, the
database counters over the traced window and the database footprint.
"""

from __future__ import annotations

import json
import resource
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import repro.cli  # noqa: E402

from perfbench import tracing  # noqa: E402


def main(argv) -> int:
    report_path = Path(argv[0])
    databases = []
    resolve_dataset = repro.cli.resolve_dataset

    def capture_dataset(*args, **kwargs):
        database = resolve_dataset(*args, **kwargs)
        databases.append(database)
        return database

    repro.cli.resolve_dataset = capture_dataset
    tracer = tracing.Tracer()
    window = {}

    def start_tracing(_signum, _frame) -> None:
        window["before"] = tracing.database_counters(databases[0])
        tracer.install()
        Path(f"{report_path}.tracing").touch()

    signal.signal(signal.SIGUSR1, start_tracing)
    try:
        return repro.cli.main(argv[1:])
    finally:
        report = {"peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
        if "before" in window:
            tracer.uninstall()
            database = databases[0]
            report.update(
                spans=[span.as_list() for span in tracer.spans],
                counters_before=window["before"],
                counters_after=tracing.database_counters(database),
                footprint_bytes=database.memory_footprint(),
            )
        report_path.write_text(json.dumps(report), encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
