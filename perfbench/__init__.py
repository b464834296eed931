"""End-to-end and per-layer benchmark of the join engine.

Run it from the repository root::

    python3 perfbench/run.py --workload serve-mix --seed 1 --seconds 45 --trace 0

See ``perfbench/README.md`` for the workloads, the metrics and the map from
each per-layer metric to the end-to-end metric it should move.
"""
