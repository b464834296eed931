"""The query engine facade.

``QueryEngine`` wires together three explicit layers:

1. the **executor registry** (:mod:`repro.engine.executors`) — every join
   algorithm behind one uniform protocol, looked up by name;
2. the **plan cache** — decomposition/order choices memoised per database
   under name-erased query signatures, with :meth:`prepare` returning a
   reusable :class:`~repro.engine.prepared.PreparedQuery` handle;
3. **cost-based selection** (:mod:`repro.engine.selector`) — pass
   ``algorithm="auto"`` and the statistics-driven selector picks
   lftj/clftj/ytd for the query at hand.

Every execution reports, in ``ExecutionResult.metadata``, how much each
caching layer helped: per-run ``plan_builds``/``plan_cache_hits`` and
``index_builds``/``index_cache_hits`` deltas.
"""

from __future__ import annotations

import time
from typing import Dict, Optional, Sequence, Tuple

from repro.core.cache import AdhesionCache, CachePolicy
from repro.core.instrumentation import OperationCounter
from repro.decomposition.tree_decomposition import TreeDecomposition
from repro.engine.executors import (
    AlgorithmSpec,
    Executor,
    ExecutorRequest,
    algorithm_spec,
    registered_algorithms,
)
from repro.engine.faults import Deadline
from repro.engine.planner import ExecutionPlan, Planner
from repro.engine.prepared import PreparedQuery
from repro.engine.results import ExecutionResult
from repro.engine.selector import AlgorithmChoice, CostBasedSelector
from repro.query.atoms import ConjunctiveQuery
from repro.query.terms import Variable
from repro.storage.database import Database

#: Names accepted by :meth:`QueryEngine.count` / :meth:`QueryEngine.evaluate`.
ALGORITHMS: Tuple[str, ...] = registered_algorithms()

#: The pseudo-algorithm resolved per query by the cost-based selector.
AUTO_ALGORITHM: str = "auto"


def _validated_timeout(timeout: Optional[float]) -> Optional[float]:
    """Normalise a ``timeout=`` argument, rejecting non-positive values."""
    if timeout is None:
        return None
    try:
        timeout = float(timeout)
    except (TypeError, ValueError):
        raise ValueError(
            f"timeout must be a positive number of seconds, got {timeout!r}"
        ) from None
    if timeout <= 0:
        raise ValueError(
            f"timeout must be a positive number of seconds, got {timeout!r}"
        )
    return timeout


class QueryEngine:
    """Plan and execute conjunctive queries over one database."""

    def __init__(
        self,
        database: Database,
        max_adhesion_size: int = 2,
        support_threshold: Optional[int] = None,
    ) -> None:
        self.database = database
        self.planner = Planner(
            database,
            max_adhesion_size=max_adhesion_size,
            support_threshold=support_threshold,
        )
        self.selector = CostBasedSelector(database)

    # ------------------------------------------------------------------ plans
    def plan(
        self,
        query: ConjunctiveQuery,
        decomposition: Optional[TreeDecomposition] = None,
        variable_order: Optional[Sequence[Variable]] = None,
        cache_capacity: Optional[int] = None,
        policy: Optional[CachePolicy] = None,
    ) -> ExecutionPlan:
        """Produce the execution plan CLFTJ/YTD would use for ``query``."""
        return self.planner.plan(
            query,
            decomposition=decomposition,
            variable_order=variable_order,
            cache_capacity=cache_capacity,
            policy=policy,
        )

    def prepare(
        self,
        query: ConjunctiveQuery,
        algorithm: str = "clftj",
        decomposition: Optional[TreeDecomposition] = None,
        variable_order: Optional[Sequence[Variable]] = None,
        cache_capacity: Optional[int] = None,
        policy: Optional[CachePolicy] = None,
        cache: Optional[AdhesionCache] = None,
        parallel: Optional[object] = None,
        parallel_backend: Optional[str] = None,
        parallel_mode: Optional[str] = None,
        compile: Optional[bool] = None,
        timeout: Optional[float] = None,
    ) -> PreparedQuery:
        """Resolve, validate and plan ``query`` once; return a reusable handle.

        ``algorithm="auto"`` runs the cost-based selector exactly once.  The
        returned :class:`~repro.engine.prepared.PreparedQuery` re-executes
        through the plan and index caches and, for CLFTJ, keeps a persistent
        adhesion cache per execution mode (warm across runs).  With
        ``parallel=`` (on ``lftj``/``generic_join``/``clftj``/``plftj``/
        ``pclftj``), every re-execution runs morsel-parallel on the
        database's persistent worker pool — warm repeats spawn no new
        workers, and parallel CLFTJ workers keep their adhesion caches
        warm across re-executions.
        """
        parameters: Dict[str, object] = {
            "decomposition": decomposition,
            "variable_order": variable_order,
            "cache_capacity": cache_capacity,
            "policy": policy,
            "cache": cache,
            "parallel": parallel,
            "parallel_backend": parallel_backend,
            "parallel_mode": parallel_mode,
            "compile": compile,
            "timeout": _validated_timeout(timeout),
        }
        requested = algorithm
        resolved, selection = self._resolve_algorithm(query, algorithm, parameters)
        spec = algorithm_spec(resolved)
        spec.reject_unused(**parameters)
        if spec.needs_plan:
            # Seed the plan cache so every later execution is a hit.
            self.plan(
                query,
                decomposition=decomposition,
                variable_order=variable_order,
                cache_capacity=cache_capacity,
                policy=policy,
            )
        return PreparedQuery(
            self,
            query,
            algorithm=resolved,
            requested_algorithm=requested,
            parameters=parameters,
            selection=selection,
        )

    # ------------------------------------------------------------------ counts
    def count(
        self,
        query: ConjunctiveQuery,
        algorithm: str = "clftj",
        decomposition: Optional[TreeDecomposition] = None,
        variable_order: Optional[Sequence[Variable]] = None,
        cache_capacity: Optional[int] = None,
        policy: Optional[CachePolicy] = None,
        cache: Optional[AdhesionCache] = None,
        parallel: Optional[object] = None,
        parallel_backend: Optional[str] = None,
        parallel_mode: Optional[str] = None,
        compile: Optional[bool] = None,
        timeout: Optional[float] = None,
    ) -> ExecutionResult:
        """Run a count query with the chosen algorithm and return the result.

        Pass ``parallel=N`` (worker count; ``True`` for automatic) with
        ``algorithm`` ``"lftj"``/``"generic_join"``/``"clftj"``/``"plftj"``/
        ``"pclftj"`` to run the
        execution morsel-parallel over the top join variable on the
        database's persistent worker pool; ``parallel_backend`` selects
        ``"threads"`` (default) or fork-based ``"processes"``, and
        ``parallel_mode`` picks ``"morsel"`` (work stealing, default) or
        ``"static"`` (one range per worker).

        ``timeout=`` (seconds) arms a cooperative deadline across every
        backend — interpreted, compiled and pool-parallel executions all
        raise :class:`repro.engine.faults.QueryTimeoutError` once it
        expires, leaving the worker pool reusable.
        """
        return self._execute(
            query,
            algorithm,
            "count",
            decomposition=decomposition,
            variable_order=variable_order,
            cache_capacity=cache_capacity,
            policy=policy,
            cache=cache,
            parallel=parallel,
            parallel_backend=parallel_backend,
            parallel_mode=parallel_mode,
            compile=compile,
            timeout=timeout,
        )

    def evaluate(
        self,
        query: ConjunctiveQuery,
        algorithm: str = "clftj",
        decomposition: Optional[TreeDecomposition] = None,
        variable_order: Optional[Sequence[Variable]] = None,
        cache_capacity: Optional[int] = None,
        policy: Optional[CachePolicy] = None,
        cache: Optional[AdhesionCache] = None,
        parallel: Optional[object] = None,
        parallel_backend: Optional[str] = None,
        parallel_mode: Optional[str] = None,
        compile: Optional[bool] = None,
        timeout: Optional[float] = None,
    ) -> ExecutionResult:
        """Run a full evaluation and return the materialised result rows.

        Rows are reported as tuples following the executor's declared
        ``variable_order`` (the query's textual order for the row-stream
        adapters around YTD and the pairwise baseline).  Parallel executions
        (``parallel=``) merge shard rows deterministically in partition
        order, which for LFTJ reproduces the serial row order exactly.
        """
        return self._execute(
            query,
            algorithm,
            "evaluate",
            decomposition=decomposition,
            variable_order=variable_order,
            cache_capacity=cache_capacity,
            policy=policy,
            cache=cache,
            parallel=parallel,
            parallel_backend=parallel_backend,
            parallel_mode=parallel_mode,
            compile=compile,
            timeout=timeout,
        )

    # -------------------------------------------------------------- comparison
    def compare(
        self,
        query: ConjunctiveQuery,
        algorithms: Sequence[str] = ("lftj", "clftj", "ytd"),
        mode: str = "count",
        decomposition: Optional[TreeDecomposition] = None,
        variable_order: Optional[Sequence[Variable]] = None,
        cache_capacity: Optional[int] = None,
        policy: Optional[CachePolicy] = None,
        parallel: Optional[object] = None,
        parallel_backend: Optional[str] = None,
        parallel_mode: Optional[str] = None,
        compile: Optional[bool] = None,
    ) -> Dict[str, ExecutionResult]:
        """Run ``query`` with several algorithms and return results keyed by name.

        Each planning parameter is forwarded to exactly the algorithms whose
        registry spec accepts it (forwarding e.g. a caching policy to plain
        LFTJ would otherwise be rejected as unused; ``parallel`` reaches only
        the shardable algorithms).  Each run gets a fresh adhesion cache —
        use :meth:`prepare` or pass ``cache=`` to the single-algorithm
        methods to study warm-cache behaviour.
        """
        if mode not in ("count", "evaluate"):
            raise ValueError(f"unknown mode {mode!r}; use 'count' or 'evaluate'")
        parameters: Dict[str, object] = {
            "decomposition": decomposition,
            "variable_order": variable_order,
            "cache_capacity": cache_capacity,
            "policy": policy,
            "parallel": parallel,
            "parallel_backend": parallel_backend,
            "parallel_mode": parallel_mode,
            "compile": compile,
        }
        results: Dict[str, ExecutionResult] = {}
        for algorithm in algorithms:
            if algorithm == AUTO_ALGORITHM:
                forwarded: Dict[str, object] = {}
            else:
                accepts = algorithm_spec(algorithm).accepts
                forwarded = {
                    name: value
                    for name, value in parameters.items()
                    if value is not None and name in accepts
                }
            results[algorithm] = self._execute(query, algorithm, mode, **forwarded)
        return results

    # ------------------------------------------------------------- explanation
    def explain(
        self,
        query: ConjunctiveQuery,
        algorithm: str = AUTO_ALGORITHM,
        decomposition: Optional[TreeDecomposition] = None,
        variable_order: Optional[Sequence[Variable]] = None,
        cache_capacity: Optional[int] = None,
        policy: Optional[CachePolicy] = None,
        cache: Optional[AdhesionCache] = None,
        parallel: Optional[object] = None,
        parallel_backend: Optional[str] = None,
        parallel_mode: Optional[str] = None,
        compile: Optional[bool] = None,
        timeout: Optional[float] = None,
    ) -> str:
        """A human-readable account of how ``query`` would be executed.

        Shows the (memoised) execution plan, the selector's reasoning when
        ``algorithm="auto"``, the partition layout for parallel executions
        (shard count and bounds), and the current plan-/index-cache state of
        the database — without executing the query.
        """
        lines = []
        parameters: Dict[str, object] = {
            "decomposition": decomposition,
            "variable_order": variable_order,
            "cache_capacity": cache_capacity,
            "policy": policy,
            "cache": cache,
            "parallel": parallel,
            "parallel_backend": parallel_backend,
            "parallel_mode": parallel_mode,
            "compile": compile,
            "timeout": _validated_timeout(timeout),
        }
        # The "newly planned vs cached" verdict reads this explain call's
        # own scope, not a before/after diff of the global counter a
        # concurrent execution may bump in between.
        with self.database.execution_scope() as accounting:
            resolved, selection = self._resolve_algorithm(query, algorithm, parameters)
            spec = algorithm_spec(resolved)
            spec.reject_unused(**parameters)
            if selection is not None:
                lines.append(selection.describe())
            else:
                lines.append(f"algorithm: {resolved} (explicit)")
            plan_consulted = selection is not None
            plan: Optional[ExecutionPlan] = None
            if spec.needs_plan or selection is not None:
                plan = self.plan(
                    query,
                    decomposition=decomposition,
                    variable_order=variable_order,
                    cache_capacity=cache_capacity,
                    policy=policy,
                )
                plan_consulted = plan_consulted or decomposition is None
                lines.append("")
                lines.append(plan.describe())
        if resolved in ("clftj", "pclftj") and plan is not None:
            capacity = (
                plan.cache_capacity
                if plan.cache_capacity is not None
                else "unbounded"
            )
            scope = (
                "worker-local persistent caches (one per pool worker)"
                if resolved == "pclftj" or parallel is not None
                else "one cache per execution (prepare() keeps it warm)"
            )
            lines.append("")
            lines.append(
                f"adhesion caching: policy={type(plan.policy).__name__}, "
                f"capacity={capacity}, {scope}"
            )
        if resolved in ("plftj", "pclftj") or parallel is not None:
            lines.append("")
            lines.append(
                self._describe_partitions(
                    query,
                    variable_order if variable_order is not None
                    else (plan.variable_order if plan is not None else None),
                    parallel,
                    parallel_backend,
                    parallel_mode,
                )
            )
        if decomposition is not None:
            plan_state = "bypassed (explicit decomposition)"
        elif not plan_consulted:
            plan_state = "not planned (algorithm plans nothing)"
        elif accounting.get("plan_builds"):
            plan_state = "newly planned"
        else:
            plan_state = "cached"
        lines.append("")
        lines.append(
            "plan cache: "
            f"{self.database.plan_cache_size()} plan(s) cached, "
            f"{self.database.plan_builds} build(s), "
            f"{self.database.plan_cache_hits} hit(s); "
            f"this query: {plan_state}"
        )
        lines.append(
            "index cache: "
            f"{self.database.index_cache_size()} index(es) cached, "
            f"{self.database.index_builds} build(s), "
            f"{self.database.index_cache_hits} hit(s), "
            f"{self.database.index_patches} delta patch(es), "
            f"{self.database.index_compactions} compaction(s)"
        )
        lines.append(
            "compiled drivers: "
            f"{self.database.compiled_cache_size()} driver(s) cached, "
            f"{self.database.compiled_builds} build(s), "
            f"{self.database.compiled_cache_hits} hit(s); "
            f"this query: "
            f"{self._compiled_state(query, resolved, variable_order, compile, plan)}"
        )
        if timeout is not None:
            lines.append(
                f"timeout: {timeout:.6g}s cooperative deadline "
                "(raises QueryTimeoutError; checked at morsel boundaries, "
                "in interpreted recursion and in compiled loop bodies)"
            )
        budget = self.database.memory_budget_bytes
        if budget is not None:
            footprint = self.database.memory_footprint()
            state = "over budget" if footprint > budget else "within budget"
            lines.append(
                f"memory budget: {budget} bytes, tracked footprint "
                f"{footprint} bytes ({state}; over-budget executions degrade "
                "in order: disable adhesion caching -> evict compiled "
                "drivers/indexes -> serial fallback)"
            )
        return "\n".join(lines)

    # --------------------------------------------------------------- internals
    def _describe_partitions(
        self,
        query: ConjunctiveQuery,
        variable_order: Optional[Sequence[Variable]],
        parallel: Optional[object],
        parallel_backend: Optional[str],
        parallel_mode: Optional[str],
    ) -> str:
        """One explain line describing the morsel/worker layout.

        Reads through the same memoised plan as execution
        (:func:`repro.engine.parallel.cached_partition_plan`), so the bounds
        shown here are exactly the bounds the next execution will use.
        """
        from repro.engine.parallel import MIN_MORSEL_KEYS, cached_partition_plan

        order = (
            tuple(variable_order)
            if variable_order is not None
            else tuple(query.variables)
        )
        mode = parallel_mode or "morsel"
        if parallel is None or parallel is True:
            workers = self.selector.recommend_workers(query, order)
        else:
            workers = max(int(parallel), 1)
        if mode == "static" or workers <= 1:
            morsels, min_keys = workers, 1
        else:
            morsels = self.selector.recommend_morsels(query, order, workers=workers)
            min_keys = MIN_MORSEL_KEYS
        plan = cached_partition_plan(
            self.database,
            self.selector.catalog,
            query,
            order,
            morsels,
            min_keys_per_range=min_keys,
        )
        backend = parallel_backend or "threads"
        return (
            f"parallel: backend={backend}, mode={mode}, "
            f"workers={workers}, {plan.describe()}"
        )

    def _compiled_state(
        self,
        query: ConjunctiveQuery,
        algorithm: str,
        variable_order: Optional[Sequence[Variable]],
        compile: Optional[bool],
        plan: Optional[ExecutionPlan] = None,
    ) -> str:
        """The explain() account of this query's compiled-driver state."""
        from repro.engine.compiler import (
            COMPILED_ALGORITHMS,
            MAX_UNROLLED_CACHE_NODES,
            driver_cache_key,
        )

        if algorithm not in COMPILED_ALGORITHMS:
            return f"not applicable (algorithm {algorithm!r} runs interpreted)"
        if compile is False:
            return "disabled (compile=False; interpreted oracle path)"
        if algorithm in ("clftj", "pclftj"):
            if plan is None:
                return "will compile on first execution (count mode)"
            contracted = plan.decomposition.contract_ownerless_bags()
            order = tuple(plan.variable_order)
            probed = len({contracted.owner(v) for v in order}) - 1
            if probed > MAX_UNROLLED_CACHE_NODES:
                return (
                    f"unavailable (decomposition has {probed} probed nodes; "
                    f"unroll ceiling is {MAX_UNROLLED_CACHE_NODES})"
                )
            key = driver_cache_key(query, order, contracted)
            if self.database.has_compiled_driver(key):
                return "cached (count mode; evaluation runs interpreted)"
            return "will compile on first execution (count mode)"
        order = (
            tuple(variable_order)
            if variable_order is not None
            else tuple(query.variables)
        )
        key = driver_cache_key(query, order)
        if self.database.has_compiled_driver(key):
            return "cached"
        return "will compile on first execution"

    def _resolve_algorithm(
        self,
        query: ConjunctiveQuery,
        algorithm: str,
        parameters: Dict[str, object],
    ) -> Tuple[str, Optional[AlgorithmChoice]]:
        """Resolve ``"auto"`` through the selector; pass anything else through."""
        if algorithm != AUTO_ALGORITHM:
            return algorithm, None
        # A timeout is an execution bound, not a planning choice — auto
        # keeps accepting it (the resolved algorithm's own contract still
        # applies afterwards).
        provided = sorted(
            name
            for name, value in parameters.items()
            if value is not None and name != "timeout"
        )
        if provided:
            raise ValueError(
                f"algorithm 'auto' does not accept explicit planning parameters "
                f"({', '.join(provided)}); the selector owns those choices — "
                f"pick a concrete algorithm to set them"
            )
        plan = self.plan(query)
        selection = self.selector.choose(query, plan)
        return selection.algorithm, selection

    def _execute(
        self,
        query: ConjunctiveQuery,
        algorithm: str,
        mode: str,
        decomposition: Optional[TreeDecomposition] = None,
        variable_order: Optional[Sequence[Variable]] = None,
        cache_capacity: Optional[int] = None,
        policy: Optional[CachePolicy] = None,
        cache: Optional[AdhesionCache] = None,
        parallel: Optional[object] = None,
        parallel_backend: Optional[str] = None,
        parallel_mode: Optional[str] = None,
        compile: Optional[bool] = None,
        timeout: Optional[float] = None,
        selection: Optional[AlgorithmChoice] = None,
    ) -> ExecutionResult:
        """One execution through registry lookup, planning and the executor."""
        with self.database.execution_scope() as scope:
            return self._execute_scoped(
                query,
                algorithm,
                mode,
                scope,
                decomposition=decomposition,
                variable_order=variable_order,
                cache_capacity=cache_capacity,
                policy=policy,
                cache=cache,
                parallel=parallel,
                parallel_backend=parallel_backend,
                parallel_mode=parallel_mode,
                compile=compile,
                timeout=timeout,
                selection=selection,
            )

    def _execute_scoped(
        self,
        query: ConjunctiveQuery,
        algorithm: str,
        mode: str,
        scope,
        decomposition: Optional[TreeDecomposition] = None,
        variable_order: Optional[Sequence[Variable]] = None,
        cache_capacity: Optional[int] = None,
        policy: Optional[CachePolicy] = None,
        cache: Optional[AdhesionCache] = None,
        parallel: Optional[object] = None,
        parallel_backend: Optional[str] = None,
        parallel_mode: Optional[str] = None,
        compile: Optional[bool] = None,
        timeout: Optional[float] = None,
        selection: Optional[AlgorithmChoice] = None,
    ) -> ExecutionResult:
        """The body of :meth:`_execute`, accounting into ``scope``.

        Every cache/build counter bump this execution causes — in this
        thread, or in a pool worker thread running its morsels — is
        recorded in ``scope``, so the per-run cache-delta metadata stays
        correct under concurrent executions (before/after reads of the
        global counters would attribute overlapping executions' builds to
        each other).
        """
        timeout = _validated_timeout(timeout)
        parameters: Dict[str, object] = {
            "decomposition": decomposition,
            "variable_order": variable_order,
            "cache_capacity": cache_capacity,
            "policy": policy,
            "cache": cache,
            "parallel": parallel,
            "parallel_backend": parallel_backend,
            "parallel_mode": parallel_mode,
            "compile": compile,
            "timeout": timeout,
        }
        # The result keeps the caller's label ("auto" stays "auto"); the
        # resolved name lands in metadata["selected_algorithm"].
        label = algorithm
        if selection is None:
            algorithm, selection = self._resolve_algorithm(query, algorithm, parameters)
        spec = algorithm_spec(algorithm)
        spec.reject_unused(**parameters)

        # The deadline starts here so planning/compilation count against it
        # too — a query cannot blow its budget inside build().
        deadline = Deadline.start(timeout) if timeout is not None else None

        # Memory-budget degradation (after validation, before planning):
        # over budget, progressively give up memory-hungry machinery in the
        # documented order instead of crashing.  Each step is recorded in
        # metadata["degradations"].
        degradations: list = []
        budget = self.database.memory_budget_bytes
        if budget is not None:
            footprint = self.database.memory_footprint()
            if footprint > budget:
                # Step 1: stop growing (and drop) adhesion caches.
                if cache is not None:
                    cache.invalidate()
                if spec.name in ("clftj", "pclftj"):
                    cache_capacity = 0
                degradations.append(
                    f"adhesion caching disabled (footprint {footprint} "
                    f"> budget {budget} bytes)"
                )
                footprint = self.database.memory_footprint()
            if footprint > budget:
                # Step 2: evict cold compiled drivers and cached indexes.
                self.database.clear_compiled_cache()
                self.database.clear_index_cache()
                degradations.append(
                    "evicted compiled drivers and cached indexes "
                    f"(footprint {footprint} > budget {budget} bytes)"
                )
                footprint = self.database.memory_footprint()
            if footprint > budget:
                # Step 3: give up parallel amplification (per-worker caches,
                # result buffers); dedicated p* algorithms degrade through
                # the selector's worker recommendation instead.
                if parallel not in (None, False):
                    parallel = 1
                degradations.append(
                    "parallel execution restricted to one worker "
                    f"(footprint {footprint} > budget {budget} bytes)"
                )

        counter = OperationCounter()
        plan: Optional[ExecutionPlan] = None
        if spec.needs_plan:
            plan = self.plan(
                query,
                decomposition=decomposition,
                variable_order=variable_order,
                cache_capacity=cache_capacity,
                policy=policy,
            )
        executor: Executor = spec.factory(
            ExecutorRequest(
                query=query,
                database=self.database,
                counter=counter,
                plan=plan,
                variable_order=tuple(variable_order) if variable_order is not None else None,
                cache=cache,
                parallel=parallel,
                parallel_backend=parallel_backend,
                parallel_mode=parallel_mode,
                selector=self.selector,
                compile=compile,
                deadline=deadline,
            )
        )
        # The cooperative deadline travels inside the request (factories
        # that construct schedulers wire it at construction) and is then
        # re-assigned UNCONDITIONALLY: interpreted recursion, compiled
        # drivers and the parallel scheduler all read ``executor.deadline``,
        # and overwriting — even with ``None`` — guarantees an executor can
        # never inherit a previous execution's clock, concurrent or not
        # (``reject_unused`` above guarantees the algorithm honours the
        # deadline whenever a timeout was passed).
        executor.deadline = deadline
        # Two-phase build/execute: compile (or cache-hit) the specialized
        # driver before the clock starts, so codegen cost never pollutes
        # measured runtimes — the compiled_builds metadata reports it.
        build = getattr(executor, "build", None)
        if build is not None:
            build()
        if deadline is not None:
            deadline.check()

        dictionary = self.database.dictionary
        decodes_before = dictionary.decodes
        rows = None
        coded_rows = None
        started = time.perf_counter()
        if mode == "count":
            value = executor.count()
        elif mode == "evaluate":
            evaluate_coded = getattr(executor, "evaluate_coded", None)
            if evaluate_coded is not None:
                # Trie-family executors stream code tuples; materialise them
                # as-is and let the result decode lazily on first access —
                # a result whose rows are never read costs zero decodes.
                coded_rows = [tuple(row) for row in evaluate_coded()]
                value = len(coded_rows)
            else:
                rows = [tuple(row) for row in executor.evaluate()]
                value = len(rows)
        else:
            raise ValueError(f"unknown mode {mode!r}; use 'count' or 'evaluate'")
        elapsed = time.perf_counter() - started

        result = self._result(
            query, label, value, elapsed, executor, plan, selection, scope
        )
        result.metadata["decodes"] = dictionary.decodes - decodes_before
        if degradations:
            result.metadata["degradations"] = degradations
        if timeout is not None:
            result.metadata["timeout"] = timeout
        if coded_rows is not None:
            result.set_coded_rows(coded_rows, dictionary)
        elif rows is not None:
            result.rows = rows
        return result

    def _result(
        self,
        query: ConjunctiveQuery,
        algorithm: str,
        count: int,
        elapsed: float,
        executor: Executor,
        plan: Optional[ExecutionPlan],
        selection: Optional[AlgorithmChoice],
        scope,
    ) -> ExecutionResult:
        metadata: Dict[str, object] = {}
        if plan is not None:
            metadata["num_bags"] = plan.decomposition.num_nodes
            metadata["max_adhesion_size"] = plan.decomposition.max_adhesion_size
        metadata.update(executor.execution_metadata())
        if selection is not None:
            metadata["selected_algorithm"] = selection.algorithm
            metadata["selector_costs"] = {
                name: round(cost, 2) for name, cost in selection.costs.items()
            }
        # Per-run cache deltas come from the execution's own accounting
        # scope, never from diffing the global counters — concurrent
        # executions would misattribute each other's builds otherwise.
        metadata["index_builds"] = scope.get("index_builds")
        metadata["index_cache_hits"] = scope.get("index_cache_hits")
        metadata["plan_builds"] = scope.get("plan_builds")
        metadata["plan_cache_hits"] = scope.get("plan_cache_hits")
        metadata["compiled_builds"] = scope.get("compiled_builds")
        metadata["compiled_cache_hits"] = scope.get("compiled_cache_hits")
        # Index mutations observed during this execution (an executor never
        # mutates, but a caller interleaving updates on this thread sees
        # them attributed to the run that noticed them).
        if scope.get("index_patches"):
            metadata["index_patches"] = scope.get("index_patches")
        if scope.get("index_compactions"):
            metadata["index_compactions"] = scope.get("index_compactions")
        return ExecutionResult(
            algorithm=algorithm,
            query_name=query.name,
            count=count,
            elapsed_seconds=elapsed,
            counter=executor.counter,
            variable_order=tuple(executor.variable_order),
            metadata=metadata,
        )
