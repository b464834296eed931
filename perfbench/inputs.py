"""Seeded workload inputs: graphs, edge-list files, request mixes, batches.

Everything the program under test receives is generated here from the
workload seed, so the same seed always gives byte-identical inputs and a
different seed gives different ones.  The program sees only these inputs:
an edge-list file, query text and update batches.
"""

from __future__ import annotations

import random
from pathlib import Path
from typing import Dict, Iterator, List, Sequence, Set, Tuple

from repro.datasets.snap import wiki_vote

Edge = Tuple[int, int]

#: Graph scale per workload (``repro.datasets.snap.wiki_vote(scale)``).
SCALES: Dict[str, float] = {
    "serve-mix": 2.0,
    "evaluate-rows": 1.0,
    "parallel-count": 48.0,
    "update-mix": 4.0,
}

#: Graphs per run.  The library workloads spread their operations over
#: several graphs so that a run's figures average over graph shapes; the
#: server of serve-mix loads one graph.
GRAPHS: Dict[str, int] = {
    "serve-mix": 1,
    "evaluate-rows": 3,
    "parallel-count": 1,
    "update-mix": 8,
}

#: serve-mix: shapes of the stateless ``algorithm=auto`` counts.
SERVE_AUTO_SHAPES = ("3-cycle", "4-clique", "4-path", "lollipop", "5-path", "4-cycle")
#: serve-mix: shapes of the ``/evaluate`` requests (lftj, bounded rows).
SERVE_EVALUATE_SHAPES = ("3-cycle", "4-clique")
SERVE_MAX_ROWS = 1000
#: serve-mix: the request kinds of one block of ten, shuffled per block.
SERVE_BLOCK = ("auto",) * 6 + ("session",) * 2 + ("evaluate",) * 2
#: evaluate-rows: one operation evaluates every pair below and reads every row.
EVALUATE_PASS = (("4-path", "clftj"), ("4-path", "lftj"), ("lollipop", "clftj"), ("lollipop", "lftj"))
#: parallel-count: (shape, algorithm) pairs counted with ``parallel=True``.
PARALLEL_QUERIES = (("3-cycle", "lftj"), ("4-clique", "lftj"), ("lollipop", "clftj"))
#: update-mix: shapes counted with ``algorithm=auto`` after every batch.
UPDATE_READ_SHAPES = ("3-cycle", "4-clique", "lollipop", "4-path")
UPDATE_BATCHES = 3
UPDATE_INSERTS = 20
UPDATE_DELETES = 5


def _rng(workload: str, seed: int, purpose: str) -> random.Random:
    return random.Random(f"{workload}:{purpose}:{seed}")


def graph_seeds(workload: str, seed: int) -> List[int]:
    """The graph seeds of one run: the workload seed itself for a one-graph
    workload, else ``seed * 1000 + i`` for each graph ``i``."""
    count = GRAPHS[workload]
    if count == 1:
        return [seed]
    return [seed * 1000 + index for index in range(count)]


def graph_edges(workload: str, graph_seed: int) -> List[Edge]:
    """One wiki-Vote-like graph of the workload's scale as a sorted edge list."""
    database = wiki_vote(SCALES[workload], seed=graph_seed)
    return sorted(database.relation("E").tuples)


def write_edge_list(edges: Sequence[Edge], path: Path) -> Path:
    """Write ``edges`` in the SNAP edge-list format ``repro`` loads."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("# src dst\n")
        handle.writelines(f"{src}\t{dst}\n" for src, dst in edges)
    return path


def _bag(rng: random.Random, items: Sequence[str]) -> Iterator[str]:
    """Endless draws that use every item once per shuffled round."""
    while True:
        round_ = list(items)
        rng.shuffle(round_)
        yield from round_


def serve_requests(seed: int) -> Iterator[Dict[str, object]]:
    """The endless seeded serve-mix request stream.

    Every block of ten requests holds six stateless ``auto`` counts, two
    session-pinned clftj lollipop counts and two bounded lftj evaluations
    in a seeded order; the shapes rotate through seeded shuffles.  So the
    mix is exact over any window, and only the order follows the seed.
    """
    rng = _rng("serve-mix", seed, "requests")
    auto_shapes = _bag(rng, SERVE_AUTO_SHAPES)
    evaluate_shapes = _bag(rng, SERVE_EVALUATE_SHAPES)
    block = list(SERVE_BLOCK)
    while True:
        rng.shuffle(block)
        for kind in block:
            if kind == "auto":
                yield {
                    "endpoint": "count", "session": False,
                    "body": {"query": next(auto_shapes), "algorithm": "auto"},
                }
            elif kind == "session":
                yield {
                    "endpoint": "count", "session": True,
                    "body": {"query": "lollipop", "algorithm": "clftj"},
                }
            else:
                yield {
                    "endpoint": "evaluate", "session": False,
                    "body": {
                        "query": next(evaluate_shapes),
                        "algorithm": "lftj",
                        "max_rows": SERVE_MAX_ROWS,
                    },
                }


def update_batches(graph_seed: int, edges: Sequence[Edge]) -> List[Tuple[List[Edge], List[Edge]]]:
    """One graph's seeded update-mix pass: ``UPDATE_BATCHES`` (inserts,
    deletes) pairs.

    Each batch inserts ``UPDATE_INSERTS`` edges absent from the graph at
    that point and deletes ``UPDATE_DELETES`` edges present in it, so every
    write changes the data.  Endpoints are drawn from the graph's nodes.
    """
    rng = _rng("update-mix", graph_seed, "batches")
    current: Set[Edge] = set(edges)
    nodes = sorted({node for edge in edges for node in edge})
    batches = []
    for _ in range(UPDATE_BATCHES):
        deletes = rng.sample(sorted(current), UPDATE_DELETES)
        inserts: Set[Edge] = set()
        while len(inserts) < UPDATE_INSERTS:
            edge = (rng.choice(nodes), rng.choice(nodes))
            if edge[0] != edge[1] and edge not in current:
                inserts.add(edge)
        batch = (sorted(inserts), sorted(deletes))
        current |= inserts
        current -= set(deletes)
        batches.append(batch)
    return batches


def replay(edges: Sequence[Edge], batches) -> List[List[Edge]]:
    """The edge set after each batch of ``batches``, applied in order."""
    current: Set[Edge] = set(edges)
    states = []
    for inserts, deletes in batches:
        current |= set(inserts)
        current -= set(deletes)
        states.append(sorted(current))
    return states
