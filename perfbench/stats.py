"""Small statistics used by the benchmark: percentiles and row digests."""

from __future__ import annotations

import math
import operator
import statistics
from typing import Dict, Iterable, Optional, Sequence, Tuple

#: A tail percentile is reported only when this many samples lie beyond it.
MIN_SAMPLES_BEYOND = 10
#: ``quiet_median`` cuts a run into this many consecutive parts.
QUIET_PARTS = 9

_MASK = (1 << 64) - 1


def percentile(samples: Sequence[float], pct: float) -> Optional[float]:
    """The nearest-rank ``pct`` percentile, or ``None`` when fewer than
    ``MIN_SAMPLES_BEYOND`` samples lie beyond it."""
    count = len(samples)
    if count == 0:
        return None
    rank = max(1, math.ceil(pct / 100.0 * count))
    if count - rank < MIN_SAMPLES_BEYOND:
        return None
    return sorted(samples)[rank - 1]


def latency_summary(samples_s: Sequence[float], prefix: str = "latency") -> Dict[str, float]:
    """Median plus every tail percentile the sample count supports, in ms."""
    if not samples_s:
        return {}
    summary = {f"{prefix}_p50_ms": statistics.median(samples_s) * 1e3}
    for pct in (90, 99):
        value = percentile(samples_s, pct)
        if value is not None:
            summary[f"{prefix}_p{pct}_ms"] = value * 1e3
    return summary


def quiet_median(samples_s: Sequence[float], cycle: int, parts: int = QUIET_PARTS) -> float:
    """The median latency of the quietest part of a run, in ms.

    ``samples_s`` are the run's latencies in the order the operations ran,
    and the workload repeats its operation mix every ``cycle`` operations.
    The samples are cut into ``parts`` consecutive parts of whole cycles,
    so every part holds the same mix (a trailing partial part is dropped;
    a run shorter than ``parts`` cycles gives parts of one cycle, and one
    shorter than a cycle gives one part), and the lowest of the parts'
    medians is returned.  Other tenants of a shared host slow a run for
    seconds to minutes at a time, so the quietest part is the least
    disturbed measure of the program's own latency; a slowdown of the
    program moves every part.
    """
    if not samples_s:
        raise ValueError("no samples")
    size = max(cycle, len(samples_s) // parts // cycle * cycle)
    if size > len(samples_s):
        return statistics.median(samples_s) * 1e3
    return min(
        statistics.median(samples_s[start:start + size])
        for start in range(0, len(samples_s) - size + 1, size)
    ) * 1e3


def row_digest(rows: Iterable[Tuple[object, ...]], variables: Sequence[object]) -> int:
    """An order-independent digest of ``rows``.

    Columns are first put in the order of their variable names, so two
    executions that emit the same bindings under different variable orders
    get the same digest.
    """
    names = [str(variable) for variable in variables]
    permutation = sorted(range(len(names)), key=names.__getitem__)
    if len(permutation) == 1:
        reorder = lambda row: (row[0],)  # noqa: E731 - itemgetter of one index returns no tuple
    else:
        reorder = operator.itemgetter(*permutation)
    return sum(map(hash, map(reorder, rows))) & _MASK
