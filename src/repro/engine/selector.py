"""Cost-based algorithm selection for ``algorithm="auto"``.

The selector estimates, for one planned query, the work each of the three
paper algorithms would do and picks the cheapest:

* **lftj** — the Chu-style order cost of the plan's variable order: the
  expected iterator work of enumerating every partial assignment.
* **clftj** — the same walk, except that on entry into a non-root
  decomposition node the running multiplicity is capped by the estimated
  number of *distinct adhesion keys*: with an (unbounded) adhesion cache the
  subtree below the node is computed once per distinct key, not once per
  partial assignment reaching it.  A small probe overhead charges the cache
  lookups themselves, so on single-bag decompositions (no caching possible)
  plain LFTJ wins.
* **ytd** — per-bag enumeration plus full materialisation and two semi-join
  passes over every bag: YTD always pays for assignments that never extend
  to a full result, which is the memory-traffic weakness the paper measures.

The estimates share :class:`~repro.decomposition.cost.ChuCostModel` (and so
the per-attribute statistics of :mod:`repro.storage.statistics`) with the
decomposition planner, keeping the two cost views consistent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.decomposition.cost import ChuCostModel
from repro.engine.planner import ExecutionPlan
from repro.engine.pool import available_workers
from repro.query.atoms import ConjunctiveQuery
from repro.storage.database import Database
from repro.storage.statistics import StatisticsCatalog

#: The candidates ``algorithm="auto"`` chooses between, in tie-break order.
AUTO_CANDIDATES: Tuple[str, ...] = ("clftj", "lftj", "ytd")

#: Relative overhead charged to CLFTJ for cache probes/bookkeeping; keeps
#: the selector honest when a decomposition admits no (or tiny) reuse.
_CLFTJ_PROBE_OVERHEAD = 1.05

#: Per-tuple factor charged to YTD for bag materialisation + the two
#: semi-join reduction passes.
_YTD_MATERIALIZE_FACTOR = 3.0

#: Relative cost of one trie-seek unit: seeks gallop over dense int-code
#: arrays (with batched block kernels at the deepest level) instead of
#: rich-comparing Python objects, while YTD's per-tuple materialisation work
#: is value-shaped.  Calibrated against the BENCH_4 triangle workload, where
#: trie executions over int codes ran >= 2x faster than over raw values.
_SEEK_UNIT = 0.5

#: Ceiling on the one-time codegen cost charged to lftj when its specialized
#: driver is not yet in the database's compiled-driver cache.  Compilation is
#: a few milliseconds of pure-Python source emission + ``exec``, independent
#: of data size, so the charge is the *smaller* of this cap and 2% of the
#: interpreted estimate — it can break near-ties toward an already-warm
#: algorithm, but can never overturn clftj's 1.05x probe-overhead margin.
_COMPILE_CHARGE_CAP = 64.0

#: Estimated cost units one pool *worker* must be kept busy for to be worth
#: engaging: partition planning amortised, per-morsel executor construction
#: (cache-hit index lookups), and the (amortised, pool-persistent) share of
#: worker spin-up.  Auto worker counts only add a worker per this many units
#: of estimated serial work, so tiny queries stay serial instead of drowning
#: in scheduling overhead.
_WORKER_ENGAGE_COST = 400.0

#: Estimated cost units one *morsel* pays before doing useful work on the
#: persistent pool: one range-restricted executor construction over warm
#: caches plus one scheduling round-trip.  Far below the old per-shard
#: figure (no thread-pool setup, no fork — workers are re-armed, not
#: spawned), which is exactly what makes 16x over-partitioning affordable.
_MORSEL_STARTUP_COST = 48.0


@dataclass(frozen=True)
class AlgorithmChoice:
    """The selector's decision plus everything needed to explain it."""

    algorithm: str
    costs: Mapping[str, float]
    reasons: Tuple[str, ...]

    def describe(self) -> str:
        """A human-readable account of the decision (used by ``explain``)."""
        lines = [f"selected algorithm: {self.algorithm}"]
        for name in AUTO_CANDIDATES:
            marker = "*" if name == self.algorithm else " "
            lines.append(f"  {marker} {name:<6} estimated cost {self.costs[name]:,.1f}")
        lines.extend(f"  - {reason}" for reason in self.reasons)
        return "\n".join(lines)


class CostBasedSelector:
    """Pick lftj/clftj/ytd per (query, database) from statistics estimates.

    The selector owns one long-lived :class:`StatisticsCatalog`, shared by
    every cost model it builds: statistics are computed once per relation
    and, when the data changes underneath (``Database.insert``/``delete``),
    refreshed incrementally from the applied delta batches instead of being
    rescanned — so ``algorithm="auto"`` keeps reasoning from *current*
    statistics on a mutating database at negligible cost.
    """

    def __init__(self, database: Database) -> None:
        self.database = database
        self.catalog = StatisticsCatalog(database)

    def choose(self, query: ConjunctiveQuery, plan: ExecutionPlan) -> AlgorithmChoice:
        """Estimate every candidate's cost under ``plan`` and pick the cheapest."""
        model = ChuCostModel(self.database, query, catalog=self.catalog)
        costs: Dict[str, float] = {
            "lftj": self._lftj_cost(model, query, plan),
            "clftj": self._clftj_cost(model, query, plan),
            "ytd": self._ytd_cost(model, query, plan),
        }
        algorithm = min(AUTO_CANDIDATES, key=lambda name: costs[name])
        reasons = self._reasons(query, plan, costs, algorithm)
        return AlgorithmChoice(algorithm=algorithm, costs=costs, reasons=reasons)

    def recommend_workers(
        self,
        query: ConjunctiveQuery,
        variable_order: Sequence,
        available: Optional[int] = None,
    ) -> int:
        """Auto worker count for ``parallel=True``: scale with estimated work.

        Every worker is charged :data:`_WORKER_ENGAGE_COST` units, so a
        query whose whole estimated LFTJ cost is below two of those runs
        serial (1 worker); larger queries get one worker per cost multiple,
        capped at the **actually usable** cores
        (:func:`~repro.engine.pool.available_workers` respects container
        CPU affinity, unlike a bare ``os.cpu_count()``).  The old 2x
        over-subscription is gone: skew smoothing is now the morsel
        scheduler's job (see :meth:`recommend_morsels`), and extra workers
        on a persistent pool would just thrash the ones doing work.
        """
        if available is None:
            available = available_workers()
        available = max(int(available), 1)
        if available == 1:
            return 1
        budget = self.database.memory_budget_bytes
        if budget is not None and self.database.memory_footprint() > budget:
            # Memory-budget degradation, final rung: parallel execution
            # amplifies footprint (per-worker adhesion caches, shard result
            # buffers), so an over-budget database runs serial until it is
            # back under (see Database.memory_budget_bytes).
            return 1
        cost = self._order_cost(query, variable_order)
        affordable = int(cost // _WORKER_ENGAGE_COST)
        return max(1, min(available, affordable))

    def recommend_morsels(
        self,
        query: ConjunctiveQuery,
        variable_order: Sequence,
        workers: Optional[int] = None,
    ) -> int:
        """Morsel count for a pool of ``workers``: fine, but not free.

        Targets ``MORSEL_OVERPARTITION`` (16) ranges per worker so stealing
        can level skew, but never plans a morsel worth less than
        :data:`_MORSEL_STARTUP_COST` units of estimated work, and never
        fewer than one range per worker.  (The partition planner separately
        floors the *keys* per morsel; this floors the work.)
        """
        from repro.engine.parallel import MORSEL_OVERPARTITION

        if workers is None:
            workers = self.recommend_workers(query, variable_order)
        workers = max(int(workers), 1)
        if workers == 1:
            return 1
        cost = self._order_cost(query, variable_order)
        affordable = int(cost // _MORSEL_STARTUP_COST)
        return max(workers, min(workers * MORSEL_OVERPARTITION, affordable))

    def _order_cost(self, query: ConjunctiveQuery, variable_order: Sequence) -> float:
        model = ChuCostModel(self.database, query, catalog=self.catalog)
        return model.order_cost(tuple(variable_order)) * _SEEK_UNIT

    # ----------------------------------------------------------- cost models
    def _lftj_cost(
        self, model: ChuCostModel, query: ConjunctiveQuery, plan: ExecutionPlan
    ) -> float:
        base = model.order_cost(plan.variable_order) * _SEEK_UNIT
        return base + self._compile_charge(query, plan, base)

    def _compile_charge(
        self,
        query: ConjunctiveQuery,
        plan: ExecutionPlan,
        base: float,
        decomposition=None,
    ) -> float:
        """One-time codegen cost for a compiled driver, if still cold.

        Zero when the driver is already cached (warm re-executions compile
        nothing).  With ``decomposition`` the charge prices the *CLFTJ* driver — keyed
        by the contracted decomposition's fingerprint, and zero when the
        decomposition exceeds the unroll ceiling (clftj then runs
        interpreted and compiles nothing).
        """
        from repro.engine.compiler import (
            MAX_UNROLLED_CACHE_NODES,
            driver_cache_key,
        )

        order = tuple(plan.variable_order)
        if decomposition is not None:
            contracted = decomposition.contract_ownerless_bags()
            probed = len({contracted.owner(v) for v in order}) - 1
            if probed > MAX_UNROLLED_CACHE_NODES:
                return 0.0
            key = driver_cache_key(query, order, contracted)
        else:
            key = driver_cache_key(query, order)
        if self.database.has_compiled_driver(key):
            return 0.0
        return min(_COMPILE_CHARGE_CAP, 0.02 * base)

    def _clftj_cost(
        self, model: ChuCostModel, query: ConjunctiveQuery, plan: ExecutionPlan
    ) -> float:
        decomposition = plan.decomposition
        order = plan.variable_order
        if decomposition.num_nodes == 1:
            # No adhesions, no caching: CLFTJ degenerates to LFTJ plus probes.
            return self._lftj_cost(model, query, plan) * _CLFTJ_PROBE_OVERHEAD

        owner_at_depth = [decomposition.owner(variable) for variable in order]
        partial = 1.0
        total = 0.0
        bound: List = []
        for depth, variable in enumerate(order):
            node = owner_at_depth[depth]
            entering = depth > 0 and owner_at_depth[depth - 1] != node
            if entering:
                distinct_keys = 1.0
                for adhesion_variable in decomposition.adhesion(node):
                    distinct_keys *= float(model.variable_distinct(adhesion_variable))
                # An unbounded cache computes the subtree once per distinct
                # adhesion key; repeats beyond that are (cheap) cache hits.
                partial = min(partial, distinct_keys)
            covering = [
                index
                for index, atom in enumerate(query.atoms)
                if variable in atom.variable_set()
            ]
            if not covering:
                continue
            seek_work = sum(
                math.log2(model.atom_cardinality(index) + 1) for index in covering
            )
            total += partial * seek_work
            matches = min(
                model.estimate_matches(index, variable, bound) for index in covering
            )
            partial *= max(matches, 0.05)
            bound.append(variable)
        charged = total * _CLFTJ_PROBE_OVERHEAD * _SEEK_UNIT
        # clftj compiles its own specialized count driver (keyed by the
        # decomposition fingerprint), so it pays the same style of one-time
        # codegen charge as lftj — the comparison stays compiled-vs-compiled.
        return charged + self._compile_charge(
            query, plan, charged, decomposition=decomposition
        )

    def _ytd_cost(
        self, model: ChuCostModel, query: ConjunctiveQuery, plan: ExecutionPlan
    ) -> float:
        decomposition = plan.decomposition
        order = plan.variable_order
        total = 0.0
        for node in decomposition.preorder():
            bag = decomposition.bag(node)
            bag_order = [variable for variable in order if variable in bag]
            partial = 1.0
            bound: List = []
            for variable in bag_order:
                covering = [
                    index
                    for index, atom in enumerate(query.atoms)
                    if variable in atom.variable_set() and atom.variable_set() & bag
                ]
                if not covering:
                    continue
                seek_work = sum(
                    math.log2(model.atom_cardinality(index) + 1) for index in covering
                )
                total += partial * seek_work
                matches = min(
                    model.estimate_matches(index, variable, bound) for index in covering
                )
                partial *= max(matches, 0.05)
                bound.append(variable)
            # Every bag is fully materialised and reduced twice, whether or
            # not its assignments survive into the final result.
            total += _YTD_MATERIALIZE_FACTOR * partial
        return total

    # -------------------------------------------------------------- reporting
    def _reasons(
        self,
        query: ConjunctiveQuery,
        plan: ExecutionPlan,
        costs: Mapping[str, float],
        algorithm: str,
    ) -> Tuple[str, ...]:
        decomposition = plan.decomposition
        reasons = [
            f"plan: {decomposition.num_nodes} bag(s), "
            f"max adhesion {decomposition.max_adhesion_size}, "
            f"order {', '.join(v.name for v in plan.variable_order)}",
        ]
        if decomposition.num_nodes == 1:
            reasons.append(
                "single-bag decomposition admits no adhesion caching; "
                "clftj is charged pure probe overhead over lftj"
            )
        else:
            reasons.append(
                f"adhesion caching caps subtree work at the estimated distinct "
                f"adhesion keys across {decomposition.num_nodes - 1} cached node(s)"
            )
        from repro.engine.compiler import driver_cache_key

        key = driver_cache_key(query, tuple(plan.variable_order))
        if self.database.has_compiled_driver(key):
            reasons.append(
                "lftj's specialized driver is already compiled and cached"
            )
        else:
            # Recover the charge from the charged total: below the cap
            # boundary (base >= 50x cap) the charge was 2% of the base.
            total = costs["lftj"]
            if total >= _COMPILE_CHARGE_CAP * 51.0:
                charge = _COMPILE_CHARGE_CAP
            else:
                charge = total - total / 1.02
            reasons.append(
                f"lftj is charged {charge:.1f} unit(s) of one-time driver "
                f"compilation (driver not cached yet)"
            )
        if algorithm == "clftj" and decomposition.num_nodes > 1:
            workers = self.recommend_workers(query, plan.variable_order)
            if workers > 1:
                reasons.append(
                    f"parallel: pclftj with {workers} worker(s) would engage "
                    f"the persistent pool (worker-local adhesion caches stay "
                    f"warm across morsels and executions)"
                )
        runner_up = min(
            (name for name in AUTO_CANDIDATES if name != algorithm),
            key=lambda name: costs[name],
        )
        if costs[runner_up] > 0:
            margin = costs[runner_up] / max(costs[algorithm], 1e-9)
            reasons.append(
                f"{algorithm} is estimated {margin:.2f}x cheaper than {runner_up}"
            )
        return tuple(reasons)
