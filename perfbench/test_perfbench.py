"""Tests of the benchmark itself: seeded inputs, oracle, percentile rule."""

from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import inputs, run, stats, tracing
from perfbench.workloads import Answers

ROOT = Path(__file__).resolve().parent.parent


def _requests(seed: int, count: int = 200):
    return list(itertools.islice(inputs.serve_requests(seed), count))


def test_same_seed_gives_identical_inputs(tmp_path):
    first = inputs.graph_edges("update-mix", 3)
    assert first == inputs.graph_edges("update-mix", 3)
    one = inputs.write_edge_list(first, tmp_path / "one.edges")
    two = inputs.write_edge_list(inputs.graph_edges("update-mix", 3), tmp_path / "two.edges")
    assert one.read_bytes() == two.read_bytes()
    assert _requests(3) == _requests(3)
    assert inputs.update_batches(3, first) == inputs.update_batches(3, first)


def test_different_seed_gives_different_inputs():
    assert not set(inputs.graph_seeds("update-mix", 3)) & set(inputs.graph_seeds("update-mix", 4))
    assert inputs.graph_seeds("serve-mix", 3) == [3]
    edges = inputs.graph_edges("update-mix", 3)
    assert edges != inputs.graph_edges("update-mix", 4)
    assert _requests(3) != _requests(4)
    assert inputs.update_batches(3, edges) != inputs.update_batches(4, edges)


def test_serve_mix_is_exact_in_every_block_of_ten():
    requests = _requests(7, 600)
    for start in range(0, 600, 10):
        block = requests[start:start + 10]
        assert sum(r["session"] for r in block) == 2
        assert sum(r["endpoint"] == "evaluate" for r in block) == 2
        assert sum(r["body"]["algorithm"] == "auto" for r in block) == 6
    auto = [r["body"]["query"] for r in requests if r["body"]["algorithm"] == "auto"]
    assert all(auto.count(shape) == len(auto) // 6 for shape in inputs.SERVE_AUTO_SHAPES)


def test_update_batches_always_change_the_data():
    edges = inputs.graph_edges("update-mix", 5)
    current = set(edges)
    batches = inputs.update_batches(5, edges)
    assert len(batches) == inputs.UPDATE_BATCHES
    for (inserts, deletes), state in zip(batches, inputs.replay(edges, batches)):
        assert len(inserts) == inputs.UPDATE_INSERTS and len(deletes) == inputs.UPDATE_DELETES
        assert not current & set(inserts) and set(deletes) <= current
        current = (current | set(inserts)) - set(deletes)
        assert sorted(current) == state


def test_oracle_catches_a_wrong_answer():
    answers = Answers()
    for answer in (10, 11, 10):
        operation = answers.next_operation()
        answers.add(operation, "3-cycle", answer)
    failures = answers.failures({"3-cycle": 10})
    assert list(failures) == [2] and "got 11" in failures[2]
    assert answers.failures({"3-cycle": 11}).keys() == {1, 3}


def test_row_digest_ignores_row_and_column_order_but_not_content():
    rows = [(1, 2, 3), (4, 5, 6), (7, 8, 9)]
    digest = stats.row_digest(rows, ["x", "y", "z"])
    swapped = [(b, a, c) for a, b, c in reversed(rows)]
    assert stats.row_digest(swapped, ["y", "x", "z"]) == digest
    assert stats.row_digest(rows[:2] + [(7, 8, 10)], ["x", "y", "z"]) != digest
    assert stats.row_digest(rows[:2], ["x", "y", "z"]) != digest


def test_percentile_needs_ten_samples_beyond_it():
    assert stats.percentile(list(range(99)), 90) is None
    assert stats.percentile(list(range(100)), 90) == 89
    assert stats.percentile(list(range(999)), 99) is None
    assert stats.percentile(list(range(1000)), 99) == 989
    summary = stats.latency_summary([0.001] * 999)
    assert set(summary) == {"latency_p50_ms", "latency_p90_ms"}
    assert set(stats.latency_summary([0.001] * 99)) == {"latency_p50_ms"}


def test_quiet_median_takes_the_quietest_part_of_whole_cycles():
    # a cycle of two operations, 1 ms and 3 ms; the host slows the first and last thirds
    quiet, disturbed = [0.001, 0.003] * 6, [0.005, 0.007] * 6
    samples = disturbed + quiet + disturbed
    assert stats.quiet_median(samples, 2, parts=3) == pytest.approx(2.0)
    assert stats.quiet_median(samples + [0.0001], 2, parts=3) == pytest.approx(2.0)  # partial part dropped
    assert stats.quiet_median(disturbed, 2, parts=3) == pytest.approx(6.0)
    assert stats.quiet_median([0.004], 2, parts=3) == pytest.approx(4.0)  # shorter than one cycle


def test_layer_self_time_subtracts_children():
    spans = [
        [1, "server.http", 0.0, 10.0, None, 1, {}],
        [2, "server.service", 1.0, 9.0, 1, 1, {}],
        [3, "engine.query", 2.0, 8.0, 2, 1, {"execute_s": 4.0, "cache_hits": 3, "cache_misses": 1}],
        [4, "engine.planner.plan", 2.0, 3.0, 3, 1, {}],
    ]
    counters = dict.fromkeys(("plan_builds", "plan_cache_hits", "compiled_builds", "compiled_cache_hits",
                              "index_builds", "index_patches", "index_compactions", "decodes"), 0)
    metrics = tracing.layer_metrics(spans, 2, counters, counters, 0)
    assert metrics["server.http.self_ms"] == 1000.0  # (10 - 8) s over 2 operations
    assert metrics["server.service.self_ms"] == 1000.0
    assert metrics["engine.planner.plan_ms"] == 500.0
    assert metrics["engine.execute_ms"] == 2000.0
    assert metrics["engine.overhead_ms"] == 500.0  # 6 s - 1 s planner - 4 s execute
    assert metrics["core.cache.hit_rate"] == 0.75


def test_benchmark_json_declares_what_run_prints():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"]) for m in declared["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in declared["per_layer"]] == list(run.PER_LAYER)
    assert {w["name"] for w in declared["workloads"]} <= set(run.WORKLOAD_NAMES)


def test_run_refuses_a_tree_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "update-mix", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert completed.stdout == ""
