"""Morsel-driven partition-parallel join execution.

Worst-case-optimal joins partition cleanly on the first join variable: each
value of the top variable seeds an independent sub-join, so splitting the top
variable's key domain into disjoint ranges splits the whole query into
independent units whose results simply concatenate.  The shared, immutable
index layer built in earlier PRs makes the units nearly free to set up —
every worker reads the same cached columnar tries and value dictionary
through range-restricted cursor views
(:class:`~repro.storage.trie.BoundedTrieIterator`), with no data copies.

Earlier PRs ran a *static* plan — a fixed 2-ranges-per-core tiling executed
on a fresh thread pool (or fresh forks) per query — which left two costs on
the table once compiled drivers (PR 6) shrank per-range compute: scheduling
setup paid per execution, and partition skew (one hot range serialises the
tail).  This module now runs the classic fix, morsel-driven parallelism:

* :class:`PartitionPlanner` — splits the top variable's code-space domain
  into balanced ranges, weighting keys with value frequencies from the
  :class:`~repro.storage.statistics.StatisticsCatalog` and falling back to
  equal-width code ranges when no statistics apply.  In morsel mode the
  executor asks for many more ranges than workers (see
  ``MORSEL_OVERPARTITION``), subject to a per-range key floor
  (``MIN_MORSEL_KEYS``), so mis-estimated weights average out across the
  pool instead of deciding the critical path;
* range-restricted executors — :class:`LeapfrogTrieJoin` and
  :class:`GenericJoin` subclasses that bound the top variable to one range;
* :class:`ParallelExecutor` — submits the ranges as one
  :class:`~repro.engine.pool.MorselJob` to the database's **persistent**
  :class:`~repro.engine.pool.WorkerPool` (threads or forked processes; see
  :mod:`repro.engine.pool` for the stealing, adaptive-split and lifecycle
  machinery) and merges results deterministically: tasks are tagged with
  their planner index (plus split path) and reassembled in that order, so
  parallel LFTJ reproduces the serial row stream byte-for-byte under any
  stealing schedule; counters are summed; scheduling stats (steals, splits,
  per-worker busy seconds, utilization, skew) are surfaced in metadata.

Scheduling modes (``parallel_mode``):

* ``"morsel"`` (default) — over-partition, steal, adaptively split any
  morsel whose run exceeds ``MORSEL_SPLIT_THRESHOLD`` seconds.
* ``"static"`` — exactly one range per worker, stealing and splitting off;
  this reproduces the PR 5 scheduling discipline (now on a persistent
  pool) and is kept as the bench baseline that makes skew visible.

Backend choice is unchanged in spirit: ``"threads"`` is safe everywhere and
wins when numpy block kernels dominate; ``"processes"`` forks workers that
inherit the whole read-only database (warm index and compiled-driver caches
included) by copy-on-write and is the backend that scales CPU-bound
pure-Python joins across cores.  Platforms without ``fork`` fall back to
threads.  The executor registry exposes all of this as ``algorithm="plftj"``
and as ``parallel=N`` on ``lftj`` / ``generic_join`` (see
:mod:`repro.engine.executors`); ``N`` now means **workers**, not ranges.
"""

from __future__ import annotations

import copy
import multiprocessing
import threading
import time
import weakref
from bisect import bisect_left
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.baselines.generic_join import GenericJoin
from repro.core.cache import AdhesionCache, CachePolicy
from repro.core.clftj import CachedLeapfrogTrieJoin
from repro.core.instrumentation import OperationCounter
from repro.core.lftj import LeapfrogTrieJoin
from repro.decomposition.tree_decomposition import TreeDecomposition
from repro.engine.faults import Deadline, QueryTimeoutError
from repro.engine.pool import (
    JobReport,
    MorselJob,
    MorselResult,
    MorselTask,
    TaskOutcome,
    available_workers,
)
from repro.query.atoms import ConjunctiveQuery
from repro.query.terms import Variable
from repro.storage.database import Database
from repro.storage.trie import BoundedTrieIterator
from repro.storage.views import atom_has_constants

#: Inner algorithms the parallel executor can shard.  CLFTJ shards safely
#: because a cached subtree count/representation never depends on the top
#: variable's range restriction (non-root subtrees own only deeper
#: variables), so every worker keeps its *own* adhesion cache — persistent
#: on the long-lived pool workers across morsels and queries — instead of
#: fracturing one shared cache (see ``_worker_adhesion_cache``).
PARALLEL_INNER_ALGORITHMS: Tuple[str, ...] = ("lftj", "generic_join", "clftj")

#: Supported execution backends.
PARALLEL_BACKENDS: Tuple[str, ...] = ("threads", "processes")

#: Supported scheduling modes.
PARALLEL_MODES: Tuple[str, ...] = ("morsel", "static")

#: Morsel mode plans this many ranges per worker (before the cost model and
#: the key floor cap it): enough over-partitioning that one hot range is a
#: small fraction of the total work, small enough that per-morsel setup
#: (one executor construction over warm caches) stays negligible.
MORSEL_OVERPARTITION: int = 16

#: Floor on keys per planned morsel: domains too small to feed the
#: over-partitioning simply get fewer morsels.
MIN_MORSEL_KEYS: int = 4

#: A morsel running longer than this (seconds) arms the adaptive splitter:
#: still-wide queued morsels are halved and requeued so a single hot key
#: range cannot serialise the query mid-flight.
MORSEL_SPLIT_THRESHOLD: float = 0.05


# --------------------------------------------------------------------------
# Partition planning.
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class PartitionPlan:
    """The range layout for one parallel execution.

    ``bounds`` holds ``k - 1`` non-decreasing cut keys in the top variable's
    key space (dictionary codes): range ``i`` covers ``[bounds[i-1], bounds[i])`` with open ends at both
    extremes, so the ranges tile the whole ordered key space regardless of
    how the cuts were estimated — balance affects speed, never correctness.
    Repeated cut keys produce deliberately *empty* ranges (small domains
    split more ways than they have keys).
    """

    variable: str
    bounds: Tuple[object, ...]
    source: str
    weights: Tuple[float, ...]

    @property
    def num_shards(self) -> int:
        """Number of ranges the plan describes."""
        return len(self.bounds) + 1

    def ranges(self) -> List[Tuple[object, object]]:
        """The ``[lo, hi)`` range per morsel (``None`` = unbounded end)."""
        cuts: List[object] = [None, *self.bounds, None]
        return [(cuts[index], cuts[index + 1]) for index in range(len(cuts) - 1)]

    def describe(self) -> str:
        """One-line human-readable account (used by ``engine.explain``)."""
        return (
            f"{self.num_shards} range(s) on variable {self.variable!r} "
            f"(partition source: {self.source}), bounds: {list(self.bounds)!r}"
        )


class PartitionPlanner:
    """Split the top join variable's key domain into balanced ranges.

    The planner weighs each key of the top variable with its value frequency
    from the statistics catalog (or, without a catalog, a direct
    ``value_counts`` scan of the backing relation) and cuts the sorted key
    sequence so every range carries roughly equal weight — frequency mass is
    the best cheap proxy for leapfrog work below a top-level key.  When no
    statistics apply (every covering atom carries constants), it falls back
    to equal-width ranges over the dictionary's code space; with nothing to
    go on at all it degrades to a single unbounded range.

    ``min_keys_per_range`` caps how finely a domain splits: morsel mode
    over-partitions aggressively, and the floor keeps tiny domains from
    shattering into per-key (or empty) morsels whose scheduling overhead
    exceeds their work.

    Bounds are computed in the same key space the shards will iterate in:
    dictionary codes (code order is the trie order).
    """

    def __init__(self, database: Database, catalog=None) -> None:
        self.database = database
        self.catalog = catalog

    def plan(
        self,
        query: ConjunctiveQuery,
        variable_order: Sequence[Variable],
        num_shards: int,
        min_keys_per_range: int = 1,
    ) -> PartitionPlan:
        """Produce a :class:`PartitionPlan` with up to ``num_shards`` ranges."""
        if not variable_order:
            raise ValueError("cannot partition a query without variables")
        top = variable_order[0]
        if num_shards <= 1:
            return PartitionPlan(top.name, (), "single", (1.0,))
        weighted = self._weighted_keys(query, top)
        if weighted:
            # Affine weights: every key pays a fixed toll (atoms that do
            # not contain the top variable re-open their full level under
            # each key, a block-intersection cost independent of the key's
            # own frequency) plus marginal work proportional to its tuple
            # frequency.  Measured per-shard operation counts on the bench
            # workloads sit between the two pure models, so their mean is
            # used as the fixed toll; residual imbalance is absorbed by
            # over-partitioning plus work stealing (see ParallelExecutor).
            shards = self._clamp(num_shards, len(weighted), min_keys_per_range)
            if shards <= 1:
                return PartitionPlan(top.name, (), "single", (1.0,))
            mean = sum(weight for _key, weight in weighted) / len(weighted)
            weighted = [(key, mean + weight) for key, weight in weighted]
            return self._balanced(top, weighted, shards, "statistics")
        dictionary = self.database.dictionary
        if len(dictionary):
            shards = self._clamp(num_shards, len(dictionary), min_keys_per_range)
            if shards <= 1:
                return PartitionPlan(top.name, (), "single", (1.0,))
            uniform = [(code, 1.0) for code in range(len(dictionary))]
            return self._balanced(top, uniform, shards, "equal-width")
        return PartitionPlan(top.name, (), "single", (1.0,))

    # ------------------------------------------------------------- internals
    @staticmethod
    def _clamp(requested: int, num_keys: int, min_keys_per_range: int) -> int:
        """Cap the range count so every range spans enough keys."""
        if min_keys_per_range <= 1:
            return requested
        return max(1, min(requested, num_keys // min_keys_per_range))

    def _weighted_keys(
        self, query: ConjunctiveQuery, top: Variable
    ) -> Optional[List[Tuple[object, float]]]:
        """Sorted ``(key, frequency)`` pairs for the top variable, or ``None``.

        Uses the covering atom whose attribute has the fewest distinct
        values (the tightest domain superset).  Constant-free atoms are
        preferred — their base-relation statistics describe the view
        exactly — but constant-bearing atoms still contribute as a second
        tier: the unselected relation's attribute frequencies merely
        *overapproximate* the view's domain, which is fine because bounds
        only need to tile the key space (the intersection discards
        non-matching keys anyway); only the balance estimate blurs.
        """
        exact: Optional[Dict[object, int]] = None
        approximate: Optional[Dict[object, int]] = None
        for atom in query.atoms:
            position = next(
                (
                    index
                    for index, term in enumerate(atom.terms)
                    if isinstance(term, Variable) and term == top
                ),
                None,
            )
            if position is None:
                continue
            try:
                relation = self.database.relation(atom.relation)
            except KeyError:
                continue
            attribute = relation.attributes[position]
            if self.catalog is not None:
                counts = self.catalog.value_frequencies(atom.relation, attribute)
            else:
                counts = relation.value_counts(attribute)
            if not counts:
                continue
            if atom_has_constants(atom):
                if approximate is None or len(counts) < len(approximate):
                    approximate = counts
            elif exact is None or len(counts) < len(exact):
                exact = counts
        best = exact if exact is not None else approximate
        if not best:
            return None
        # Translate to code space without appending: planning (and explain)
        # must never mutate the shared dictionary.  Values the index builds
        # have not encoded yet merely coarsen the split — bounds still tile
        # the key space.
        code_of = self.database.dictionary.code_of
        items = [
            (code, float(count))
            for value, count in best.items()
            if (code := code_of(value)) is not None
        ]
        if not items:
            return None
        items.sort(key=lambda pair: pair[0])
        return items

    @staticmethod
    def _balanced(
        top: Variable,
        items: List[Tuple[object, float]],
        num_shards: int,
        source: str,
    ) -> PartitionPlan:
        """Greedy weighted split of sorted keys into ``num_shards`` ranges."""
        total = sum(weight for _key, weight in items)
        if total <= 0:
            total = float(len(items))
            items = [(key, 1.0) for key, _weight in items]
        target = total / num_shards
        bounds: List[object] = []
        weights = [0.0] * num_shards
        shard = 0
        accumulated = 0.0
        for key, weight in items:
            while shard < num_shards - 1 and accumulated >= target * (shard + 1) - 1e-9:
                shard += 1
                bounds.append(key)
            accumulated += weight
            weights[shard] += weight
        # Small domains can run out of keys before cuts: pad with the last
        # cut (or the last key), creating deliberately empty tail ranges.
        while len(bounds) < num_shards - 1:
            bounds.append(bounds[-1] if bounds else items[-1][0])
        return PartitionPlan(top.name, tuple(bounds), source, tuple(weights))


def cached_partition_plan(
    database: Database,
    catalog,
    query: ConjunctiveQuery,
    variable_order: Sequence[Variable],
    num_shards: int,
    min_keys_per_range: int = 1,
) -> PartitionPlan:
    """The partition plan for one (query, order, range count), memoised in
    the database's plan cache.

    Bounds only need to *tile* the key space, so a plan computed from
    slightly stale statistics stays correct across delta updates — the
    cache therefore shares the relation-replacement invalidation of
    ordinary execution plans and skips per-run re-planning entirely.  Both
    execution (:meth:`ParallelExecutor._partition`) and
    ``engine.explain()`` read through this function, so explain always
    shows exactly the bounds the next execution will use.
    """
    from repro.storage.views import query_signature

    key = (
        "partition",
        query_signature(query),
        tuple(variable.name for variable in variable_order),
        num_shards,
        min_keys_per_range,
    )
    return database.cached_plan(
        key,
        query.relation_names,
        lambda: PartitionPlanner(database, catalog).plan(
            query, variable_order, num_shards, min_keys_per_range
        ),
        # A degenerate single-range plan computed before any index existed
        # (cold explain: nothing encoded, no frequencies) must not poison
        # the cache — once indexes exist, re-planning yields real bounds.
        cache_if=lambda plan: num_shards <= 1 or plan.source != "single",
    )


# --------------------------------------------------------------------------
# Range-restricted executors.
# --------------------------------------------------------------------------


class _BoundedLeapfrogTrieJoin(LeapfrogTrieJoin):
    """LFTJ restricted to top-variable keys in ``[lo, hi)``.

    Every atom containing the top variable indexes it at trie level 1 (the
    global order puts the top variable at minimal depth), so wrapping those
    iterators in :class:`~repro.storage.trie.BoundedTrieIterator` restricts
    exactly the depth-0 intersection; atoms without the top variable run
    unrestricted.
    """

    def __init__(self, query, database, variable_order, counter, lo, hi) -> None:
        super().__init__(query, database, variable_order, counter)
        self._range = (lo, hi)

    def _prepare(self) -> None:
        super()._prepare()
        lo, hi = self._range
        if lo is None and hi is None:
            return
        for atom_index in self._atoms_at_depth[0]:
            self._iterators[atom_index] = BoundedTrieIterator(
                self._iterators[atom_index], lo, hi
            )
        self._depth_participants = [
            [self._iterators[atom_index] for atom_index in self._atoms_at_depth[depth]]
            for depth in range(self.num_variables)
        ]


class _BoundedCachedLeapfrogTrieJoin(CachedLeapfrogTrieJoin):
    """CLFTJ restricted to top-variable keys in ``[lo, hi)``.

    The same depth-0 bounding as :class:`_BoundedLeapfrogTrieJoin`.  Cached
    intermediates stay range-independent: a probed decomposition node is
    always entered at depth > 0 (a node entered at depth 0 is never
    consulted), so the subtree block behind any cache entry never contains
    the bounded top variable — a cache warmed by one morsel is valid for
    every other morsel and for the serial execution alike.
    """

    def __init__(
        self,
        query,
        database,
        decomposition,
        variable_order=None,
        policy=None,
        cache=None,
        counter=None,
        lo=None,
        hi=None,
    ) -> None:
        super().__init__(
            query,
            database,
            decomposition,
            variable_order,
            policy=policy,
            cache=cache,
            counter=counter,
        )
        self._range = (lo, hi)

    def _prepare(self) -> None:
        super()._prepare()
        lo, hi = self._range
        if lo is None and hi is None:
            return
        for atom_index in self._atoms_at_depth[0]:
            self._iterators[atom_index] = BoundedTrieIterator(
                self._iterators[atom_index], lo, hi
            )
        self._depth_participants = [
            [self._iterators[atom_index] for atom_index in self._atoms_at_depth[depth]]
            for depth in range(self.num_variables)
        ]


class _BoundedGenericJoin(GenericJoin):
    """GenericJoin restricted to top-variable candidates in ``[lo, hi)``.

    Candidate lists at depth 0 are sorted (by code or value), so the
    restriction is a binary-searched slice; membership probes against the
    other atoms need no change because probed values already lie in range.
    """

    def __init__(self, query, database, variable_order, counter, lo, hi) -> None:
        super().__init__(query, database, variable_order, counter)
        self._lo = lo
        self._hi = hi

    def _split_atoms(self, depth, assignment):
        candidates, probes = super()._split_atoms(depth, assignment)
        if depth == 0 and (self._lo is not None or self._hi is not None):
            lo_pos = 0 if self._lo is None else bisect_left(candidates, self._lo)
            hi_pos = (
                len(candidates)
                if self._hi is None
                else bisect_left(candidates, self._hi, lo_pos)
            )
            candidates = candidates[lo_pos:hi_pos]
        return candidates, probes


# --------------------------------------------------------------------------
# The morsel runner (module-level: the fork backend pickles it by reference).
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class MorselSpec:
    """Per-job parameters every morsel of a query shares (picklable).

    The last four fields carry the CLFTJ plan: the (contracted)
    decomposition the compiled driver and the adhesion caches are keyed
    against, the caching policy, the cache sizing, and the worker-cache
    identity key.  They stay ``None`` for every other inner algorithm, so
    the fork-pipe payload is unchanged for lftj/generic_join jobs.
    """

    query: ConjunctiveQuery
    variable_order: Tuple[Variable, ...]
    inner: str
    compile: Optional[bool]
    run_mode: str
    decomposition: Optional[TreeDecomposition] = None
    policy: Optional[CachePolicy] = None
    cache_capacity: Optional[int] = None
    cache_key: Optional[Tuple[object, ...]] = None
    #: Absolute monotonic deadline the morsel's executor checks
    #: cooperatively (valid across the fork: the clock is shared).
    deadline: Optional[Deadline] = None


def make_range_executor(
    query: ConjunctiveQuery,
    database: Database,
    variable_order: Sequence[Variable],
    inner: str,
    compile: Optional[bool],
    counter: OperationCounter,
    lo,
    hi,
    decomposition: Optional[TreeDecomposition] = None,
    policy: Optional[CachePolicy] = None,
    cache: Optional[AdhesionCache] = None,
):
    """Build one range-restricted inner executor.

    Compiled lftj/clftj morsels all resolve to the *same* cached driver
    (the cache key has no range in it) — each morsel merely calls it with
    its own ``[lo, hi)``, so a parallel query costs one compilation total,
    and forked workers inherit the parent's already-built driver for free.
    """
    if inner == "lftj":
        if compile is False:
            return _BoundedLeapfrogTrieJoin(
                query, database, variable_order, counter, lo, hi
            )
        from repro.engine.compiler import CompiledTrieJoin

        return CompiledTrieJoin(query, database, variable_order, counter, lo, hi)
    if inner == "clftj":
        if compile is False:
            return _BoundedCachedLeapfrogTrieJoin(
                query,
                database,
                decomposition,
                variable_order,
                policy=policy,
                cache=cache,
                counter=counter,
                lo=lo,
                hi=hi,
            )
        from repro.engine.compiler import CompiledCachedTrieJoin

        return CompiledCachedTrieJoin(
            query,
            database,
            decomposition,
            variable_order,
            policy=policy,
            cache=cache,
            counter=counter,
            lo=lo,
            hi=hi,
        )
    return _BoundedGenericJoin(query, database, variable_order, counter, lo, hi)


#: Per-thread adhesion-cache store.  Pool worker threads are long-lived, so
#: each worker's caches persist across morsels *and* across queries; fork
#: workers run in the child's main thread and inherit the forking thread's
#: already-warm store by copy-on-write, then keep their own copy warm
#: across re-armed jobs.  Databases are held weakly — dropping a database
#: drops its worker caches with it.
_WORKER_CACHES = threading.local()


def _worker_adhesion_cache(database: Database, spec: MorselSpec) -> AdhesionCache:
    """The calling worker's persistent adhesion cache for this job's plan.

    Keyed like the compiled-driver cache — name-erased query signature,
    order positions, decomposition fingerprint — plus the run mode (counts
    and factorized representations must never share a cache) and the cache
    sizing.  Entries are version-guarded: any mutation of an involved
    relation makes the snapshot stale and the worker starts a fresh cache,
    mirroring the engine's per-relation invalidation discipline.
    """
    stores = getattr(_WORKER_CACHES, "stores", None)
    if stores is None:
        stores = weakref.WeakKeyDictionary()
        _WORKER_CACHES.stores = stores
    per_database = stores.get(database)
    if per_database is None:
        per_database = {}
        stores[database] = per_database
    key = (spec.cache_key, spec.run_mode)
    versions = database.relation_versions(spec.query.relation_names)
    entry = per_database.get(key)
    if entry is not None and entry[0] == versions:
        return entry[1]
    if spec.cache_capacity is not None:
        cache = AdhesionCache(capacity=spec.cache_capacity, eviction="lru")
    else:
        cache = AdhesionCache()
    per_database[key] = (versions, cache)
    return cache


def _execution_policy(policy: Optional[CachePolicy]) -> Optional[CachePolicy]:
    """A per-morsel policy instance when the policy carries mutable state.

    Stateless policies (``reset`` not overridden — Always/Never/Support
    threshold) are shared read-only across workers.  Stateful ones (per-node
    admission budgets) are deep-copied per morsel: sharing would race across
    worker threads, and a budget is a per-execution notion — each morsel
    restarting it is the documented parallel semantic.
    """
    if policy is None or type(policy).reset is CachePolicy.reset:
        return policy
    return copy.deepcopy(policy)


def _run_morsel(database: Database, spec: MorselSpec, task: MorselTask) -> TaskOutcome:
    """The pool runner: execute one morsel's range, return its outcome."""
    if spec.deadline is not None:
        # Morsel-boundary check: a morsel dequeued after expiry never
        # starts (the parent is cancelling the job concurrently anyway).
        spec.deadline.check()
    counter = OperationCounter()
    cache: Optional[AdhesionCache] = None
    policy = spec.policy
    if spec.inner == "clftj":
        cache = _worker_adhesion_cache(database, spec)
        policy = _execution_policy(policy)
    executor = make_range_executor(
        spec.query,
        database,
        spec.variable_order,
        spec.inner,
        spec.compile,
        counter,
        task.lo,
        task.hi,
        decomposition=spec.decomposition,
        policy=policy,
        cache=cache,
    )
    if spec.deadline is not None:
        # In-executor cooperative checks (every N recursive calls
        # interpreted, counter-gated in compiled drivers) bound the
        # overshoot even within one long morsel.
        executor.deadline = spec.deadline
    if spec.run_mode == "count":
        value = executor.count()
        rows: Optional[List[Tuple[object, ...]]] = None
    else:
        rows = [tuple(row) for row in executor.evaluate_coded()]
        value = len(rows)
    stats: Optional[dict] = None
    if cache is not None:
        stats = {
            "entries": len(cache),
            "memory_bytes": cache.memory_estimate(),
            "hits": counter.cache_hits,
            "stores": counter.cache_insertions,
        }
    return TaskOutcome(value=value, rows=rows, counter=counter, stats=stats)


def _skew(work: Sequence[float]) -> float:
    """Max/mean imbalance of a work distribution (1.0 = perfectly even)."""
    total = sum(work)
    if not work or total <= 0:
        return 1.0
    return max(work) / (total / len(work))


# --------------------------------------------------------------------------
# The parallel executor.
# --------------------------------------------------------------------------


class ParallelExecutor:
    """Morsel-parallel execution of LFTJ or GenericJoin over shared tries.

    Implements the standard executor protocol (``count`` / ``evaluate`` /
    ``evaluate_coded`` / ``execution_metadata``), so the engine treats it
    like any other algorithm.  Construction builds (or cache-hits) every
    shared index once, in the calling thread, through a full-range
    *template* executor; morsel tasks then reuse the warm cache through the
    database's persistent :class:`~repro.engine.pool.WorkerPool` — a thread
    morsel costs an executor construction, and fork workers are spawned
    once and re-armed across queries.

    The merge is deterministic: results are ordered by ``(planner index,
    split path)`` (ranges are ordered, and within a range the inner
    algorithm emits rows in trie order, so concatenation reproduces the
    serial row order for LFTJ regardless of which worker ran what),
    per-morsel operation counters are summed into the executor's counter,
    and ``execution_metadata`` reports workers, morsels, steals, splits,
    per-worker busy seconds, utilization and two skew measures
    (``partition_skew`` per worker — what stealing equalises — and
    ``morsel_skew`` per planned range).
    """

    def __init__(
        self,
        query: ConjunctiveQuery,
        database: Database,
        variable_order: Optional[Sequence[Variable]] = None,
        counter: Optional[OperationCounter] = None,
        inner: str = "lftj",
        workers: Optional[object] = None,
        backend: str = "threads",
        mode: str = "morsel",
        selector=None,
        catalog=None,
        compile: Optional[bool] = None,
        plan=None,
        deadline: Optional[Deadline] = None,
    ) -> None:
        if inner not in PARALLEL_INNER_ALGORITHMS:
            raise ValueError(
                f"algorithm {inner!r} cannot run partition-parallel; choose "
                f"one of {PARALLEL_INNER_ALGORITHMS}"
            )
        if backend not in PARALLEL_BACKENDS:
            raise ValueError(
                f"unknown parallel backend {backend!r}; choose one of "
                f"{PARALLEL_BACKENDS}"
            )
        if mode not in PARALLEL_MODES:
            raise ValueError(
                f"unknown parallel mode {mode!r}; choose one of {PARALLEL_MODES}"
            )
        if workers is not None and workers is not True:
            workers = int(workers)
            if workers < 1:
                raise ValueError("parallel worker count must be >= 1")
        self.query = query
        self.database = database
        self.counter = counter if counter is not None else OperationCounter()
        self.inner_algorithm = inner
        self.backend = backend
        self.mode = mode
        self.requested_workers = workers
        #: ``False`` pins the interpreted inner executors (the differential
        #: oracle); anything else lets lftj morsels run compiled drivers.
        self.compile = compile
        self._selector = selector
        self._catalog = catalog if catalog is not None else getattr(selector, "catalog", None)
        self._plan = plan
        if inner == "clftj" and plan is None:
            raise ValueError(
                "parallel clftj needs an execution plan (decomposition + "
                "cache policy); route construction through the engine"
            )
        # The template validates the query/order and pre-builds every shared
        # index in the calling thread, so morsel construction is cache-hits
        # only (and, for the process backend, happens before the fork).
        if variable_order is None and plan is not None:
            variable_order = plan.variable_order
        self.variable_order = (
            tuple(variable_order) if variable_order is not None else None
        )
        self._template = make_range_executor(
            query,
            database,
            self.variable_order,
            inner,
            compile,
            OperationCounter(),
            None,
            None,
            decomposition=plan.decomposition if plan is not None else None,
            policy=plan.policy if plan is not None else None,
            cache=plan.make_cache() if plan is not None else None,
        )
        self.variable_order: Tuple[Variable, ...] = self._template.variable_order
        self._cache_key: Optional[Tuple[object, ...]] = None
        if inner == "clftj":
            from repro.engine.compiler import driver_cache_key

            # Worker caches share the compiled-driver identity (signature,
            # order positions, decomposition fingerprint) so two queries
            # with the same erased shape warm each other's caches, plus the
            # sizing (a bounded and an unbounded cache are different
            # objects).  The template holds the *contracted* decomposition
            # — the same node ids the compiled probes bake in.
            self._cache_key = (
                "adhesion",
                driver_cache_key(
                    query, self.variable_order, self._template.decomposition
                ),
                plan.cache_capacity,
            )
        self._partition_plan: Optional[PartitionPlan] = None
        self._backend_used = backend
        self._shard_stats: Optional[Dict[str, object]] = None
        #: Cooperative deadline for THIS execution, passed at construction
        #: (the engine also re-assigns it unconditionally from the
        #: ``ExecutorRequest`` so a stale clock can never be inherited);
        #: checked at morsel boundaries by the pool and inside morsels by
        #: the inner executors.
        self.deadline: Optional[Deadline] = deadline

    # ------------------------------------------------------------- execution
    def build(self) -> None:
        """Phase one of build/execute: compile (or fetch) the shared driver.

        Runs in the calling thread before any timing starts — and before
        the fork backend spawns or re-arms workers — so morsels only ever
        cache-hit (forked children inherit the driver by copy-on-write).
        Interpreted inners have no build phase; this is then a no-op.
        """
        build = getattr(self._template, "build", None)
        if build is not None:
            build()

    def count(self) -> int:
        """Sum of the per-morsel counts."""
        return sum(result.value for result in self._execute_morsels("count"))

    def evaluate(self) -> Iterator[Tuple[object, ...]]:
        """Yield result rows as values (decoding at this boundary)."""
        decode_row = self.database.dictionary.decode_row
        for row in self.evaluate_coded():
            yield decode_row(row)

    def evaluate_coded(self) -> Iterator[Tuple[object, ...]]:
        """Yield result rows as codes, concatenated in range order."""
        for result in self._execute_morsels("evaluate"):
            yield from result.rows

    # -------------------------------------------------------------- internals
    def _resolve_workers(self) -> int:
        requested = self.requested_workers
        if requested is None or requested is True:
            if self._selector is not None:
                return self._selector.recommend_workers(self.query, self.variable_order)
            return available_workers()
        return requested

    def _resolve_morsels(self, workers: int) -> int:
        if self.mode == "static" or workers <= 1:
            return workers
        if self._selector is not None:
            return self._selector.recommend_morsels(
                self.query, self.variable_order, workers=workers
            )
        return workers * MORSEL_OVERPARTITION

    def _partition(self, morsels: int) -> PartitionPlan:
        """The (memoised) partition plan — see :func:`cached_partition_plan`."""
        min_keys = MIN_MORSEL_KEYS if self.mode == "morsel" else 1
        return cached_partition_plan(
            self.database,
            self._catalog,
            self.query,
            self.variable_order,
            morsels,
            min_keys_per_range=min_keys,
        )

    def _run_template(self, run_mode: str) -> MorselResult:
        """Serial fallback: the full-range template IS the single morsel."""
        counter = OperationCounter()
        executor = self._template
        # Iterators are created per execution with whatever counter the
        # executor holds at that moment, so swapping it in is safe.
        executor.counter = counter
        executor.deadline = self.deadline
        started = time.perf_counter()
        if run_mode == "count":
            value = executor.count()
            rows: Optional[List[Tuple[object, ...]]] = None
        else:
            rows = [tuple(row) for row in executor.evaluate_coded()]
            value = len(rows)
        elapsed = time.perf_counter() - started
        return MorselResult(
            index=0,
            path=(),
            lo=None,
            hi=None,
            value=value,
            rows=rows,
            counter=counter,
            elapsed=elapsed,
            worker=0,
            stolen=False,
        )

    def _execute_morsels(self, run_mode: str) -> List[MorselResult]:
        workers = self._resolve_workers()
        plan = self._partition(self._resolve_morsels(workers))
        self._partition_plan = plan
        ranges = plan.ranges()
        backend = self.backend
        if backend == "processes" and (
            len(ranges) == 1
            or "fork" not in multiprocessing.get_all_start_methods()
        ):
            backend = "threads"
        self._backend_used = backend
        if len(ranges) == 1:
            result = self._run_template(run_mode)
            self.counter.merge(result.counter)
            self._shard_stats = self._serial_stats(result, plan, backend)
            return [result]
        tasks = [
            MorselTask(index=index, path=(), lo=lo, hi=hi)
            for index, (lo, hi) in enumerate(ranges)
        ]
        morsel_mode = self.mode == "morsel"
        # The splitter bisects ranges at integer midpoints of the
        # dictionary's code span.
        split_domain = (0, len(self.database.dictionary)) if morsel_mode else None
        clftj = self.inner_algorithm == "clftj"
        job = MorselJob(
            spec=MorselSpec(
                query=self.query,
                variable_order=self.variable_order,
                inner=self.inner_algorithm,
                compile=self.compile,
                run_mode=run_mode,
                # The template's decomposition is the *contracted* one — the
                # node ids compiled probes bake in and caches are keyed by.
                decomposition=self._template.decomposition if clftj else None,
                policy=self._plan.policy if clftj else None,
                cache_capacity=self._plan.cache_capacity if clftj else None,
                cache_key=self._cache_key,
                deadline=self.deadline,
            ),
            runner=_run_morsel,
            tasks=tasks,
            allow_steal=morsel_mode,
            split_threshold=MORSEL_SPLIT_THRESHOLD if morsel_mode else None,
            min_split_span=max(2, MIN_MORSEL_KEYS),
            split_domain=split_domain,
            deadline=self.deadline,
            # Thread workers adopt this execution's accounting scopes so
            # worker-side cache hits land in the right result metadata.
            scopes=self.database.active_scopes(),
        )
        pool = self.database.worker_pool(backend, workers)
        report = pool.run(job)
        for result in report.results:
            self.counter.merge(result.counter)
        self._shard_stats = self._collect_stats(report, plan, backend, workers)
        return report.results

    def _serial_stats(
        self, result: MorselResult, plan: PartitionPlan, backend: str
    ) -> Dict[str, object]:
        stats: Dict[str, object] = {}
        if self.inner_algorithm == "clftj":
            counter = result.counter
            cache = self._template.cache
            stats["worker_caches"] = [
                {
                    "worker": 0,
                    "entries": len(cache),
                    "memory_bytes": cache.memory_estimate(),
                    "hits": counter.cache_hits,
                    "stores": counter.cache_insertions,
                }
            ]
        return {
            **stats,
            "parallel": True,
            "inner_algorithm": self.inner_algorithm,
            "parallel_backend": backend,
            "parallel_mode": self.mode,
            "workers": 1,
            "morsels": 1,
            "shards": 1,
            "tasks_executed": 1,
            "steals": 0,
            "splits": 0,
            "worker_restarts": 0,
            "morsel_retries": 0,
            "partition_source": plan.source,
            "partition_bounds": list(plan.bounds),
            "shard_results": [result.value],
            "shard_seconds": [round(result.elapsed, 6)],
            "task_seconds": [round(result.elapsed, 6)],
            "worker_busy_seconds": [round(result.elapsed, 6)],
            "utilization": 1.0,
            "partition_skew": 1.0,
            "morsel_skew": 1.0,
        }

    def _collect_stats(
        self,
        report: JobReport,
        plan: PartitionPlan,
        backend: str,
        workers: int,
    ) -> Dict[str, object]:
        results = report.results
        morsel_values = [0] * plan.num_shards
        morsel_seconds = [0.0] * plan.num_shards
        morsel_work = [0.0] * plan.num_shards
        worker_work = [0.0] * report.workers
        for result in results:
            morsel_values[result.index] += result.value
            morsel_seconds[result.index] += result.elapsed
            work = result.counter.memory_accesses
            morsel_work[result.index] += work
            worker_work[result.worker] += work
        busy = report.worker_busy
        wall = report.wall_seconds
        utilization = (
            sum(busy) / (len(busy) * wall) if busy and wall > 0 else 1.0
        )
        extra: Dict[str, object] = {}
        if self.inner_algorithm == "clftj":
            # Merge the per-morsel snapshots of each worker's persistent
            # cache: entry count / footprint are point-in-time (take the
            # last = largest snapshot), hit/store counters are per-morsel
            # increments (sum them).
            per_worker: Dict[int, Dict[str, int]] = {}
            for result in results:
                if result.stats is None:
                    continue
                merged = per_worker.setdefault(
                    result.worker,
                    {"entries": 0, "memory_bytes": 0, "hits": 0, "stores": 0},
                )
                merged["entries"] = max(merged["entries"], result.stats["entries"])
                merged["memory_bytes"] = max(
                    merged["memory_bytes"], result.stats["memory_bytes"]
                )
                merged["hits"] += result.stats["hits"]
                merged["stores"] += result.stats["stores"]
            extra["worker_caches"] = [
                {"worker": worker, **merged}
                for worker, merged in sorted(per_worker.items())
            ]
        return {
            **extra,
            "parallel": True,
            "inner_algorithm": self.inner_algorithm,
            "parallel_backend": backend,
            "parallel_mode": self.mode,
            "workers": workers,
            "morsels": plan.num_shards,
            # Legacy alias: pre-pool metadata called the planned ranges
            # "shards"; kept so dashboards comparing BENCH_5 still line up.
            "shards": plan.num_shards,
            "tasks_executed": len(results),
            "steals": report.steals,
            "splits": report.splits,
            "worker_restarts": report.worker_restarts,
            "morsel_retries": report.morsel_retries,
            "partition_source": plan.source,
            "partition_bounds": list(plan.bounds),
            "shard_results": morsel_values,
            "shard_seconds": [round(seconds, 6) for seconds in morsel_seconds],
            "task_seconds": [round(result.elapsed, 6) for result in results],
            "worker_busy_seconds": [round(seconds, 6) for seconds in busy],
            "utilization": round(min(utilization, 1.0), 3),
            # Per-worker imbalance of actual work done — the number work
            # stealing drives toward 1.0 — vs the planner's per-range
            # imbalance the pool had to absorb.
            "partition_skew": round(_skew(worker_work), 3),
            "morsel_skew": round(_skew(morsel_work), 3),
        }

    # -------------------------------------------------------------- reporting
    def execution_metadata(self) -> Dict[str, object]:
        """Template facts plus scheduling merge stats."""
        metadata = dict(self._template.execution_metadata())
        if self._shard_stats is not None:
            metadata.update(self._shard_stats)
        else:
            metadata.update(
                {
                    "parallel": True,
                    "inner_algorithm": self.inner_algorithm,
                    "parallel_backend": self._backend_used,
                    "parallel_mode": self.mode,
                    "workers": 0,
                    "morsels": 0,
                    "shards": 0,
                }
            )
        return metadata

    def __repr__(self) -> str:
        return (
            f"ParallelExecutor({self.query.name!r}, inner={self.inner_algorithm!r}, "
            f"backend={self.backend!r}, mode={self.mode!r}, "
            f"workers={self.requested_workers!r})"
        )
