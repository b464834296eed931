"""The executor protocol and the per-algorithm factory registry.

Every join algorithm in this repository is exposed to the engine through one
uniform :class:`Executor` interface: ``count()`` returns ``|q(D)|`` and
``evaluate()`` yields result rows as tuples following the executor's declared
``variable_order``.  The engine never dispatches on concrete classes — it
looks an :class:`AlgorithmSpec` up by name, asks the spec which planning
parameters the algorithm actually consumes (so unused parameters are
rejected loudly instead of silently dropped), and calls the spec's factory
with an :class:`ExecutorRequest`.

New algorithms plug in with :func:`register_algorithm`; nothing else in the
engine, CLI or benchmark harness needs to change.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterator,
    Optional,
    Sequence,
    Tuple,
)

try:  # pragma: no cover - Protocol is standard from 3.8 on
    from typing import Protocol, runtime_checkable
except ImportError:  # pragma: no cover
    Protocol = object  # type: ignore[assignment]

    def runtime_checkable(cls):  # type: ignore[misc]
        return cls

from repro.baselines.binary_join import PairwiseHashJoin
from repro.baselines.generic_join import GenericJoin
from repro.baselines.yannakakis import YannakakisTreeJoin
from repro.core.cache import AdhesionCache
from repro.core.clftj import CachedLeapfrogTrieJoin
from repro.core.instrumentation import OperationCounter
from repro.core.lftj import LeapfrogTrieJoin
from repro.engine.faults import Deadline
from repro.engine.planner import ExecutionPlan
from repro.query.atoms import ConjunctiveQuery
from repro.query.terms import Variable
from repro.storage.database import Database

#: Planning/execution parameters an algorithm may consume.  Everything a
#: spec does not list is rejected with ``ValueError`` when passed explicitly.
PARAMETERS: Tuple[str, ...] = (
    "decomposition",
    "variable_order",
    "cache_capacity",
    "policy",
    "cache",
    "parallel",
    "parallel_backend",
    "parallel_mode",
    "compile",
    "timeout",
)


@runtime_checkable
class Executor(Protocol):
    """What the engine needs from any join algorithm.

    ``evaluate()`` must yield rows as tuples whose positions follow
    ``variable_order``; ``execution_metadata()`` reports per-algorithm facts
    that the engine merges into the result metadata.

    Executors running over the dictionary-encoded indexes additionally
    expose an ``evaluate_coded()`` generator yielding rows of int codes; the
    engine then collects codes and defers decoding to the result boundary
    (:class:`repro.engine.results.ExecutionResult.rows`), so count-only
    executions and untouched result sets never decode.  The member is
    optional — the engine duck-types it and falls back to plain
    ``evaluate()``.
    """

    counter: OperationCounter
    variable_order: Tuple[Variable, ...]

    def count(self) -> int: ...

    def evaluate(self) -> Iterator[Tuple[object, ...]]: ...

    def execution_metadata(self) -> Dict[str, object]: ...


@dataclass
class ExecutorRequest:
    """Everything a factory may need to build one executor.

    ``parallel`` carries the worker request for the morsel-parallel
    executor: an ``int`` pins the worker count, ``True`` asks for an
    automatic count (the cost-based ``selector``, when present, charges a
    per-worker engagement cost so tiny queries stay serial), ``None`` means
    serial execution.  ``parallel_backend`` picks ``"threads"`` (default)
    or ``"processes"``; ``parallel_mode`` picks ``"morsel"`` (default:
    over-partitioned ranges with work stealing and adaptive splitting) or
    ``"static"`` (one range per worker, PR 5's scheduling discipline).

    ``deadline`` is this execution's cooperative deadline (or ``None``).
    It travels in the request — not as a post-construction patch — so a
    freshly built executor can never observe another execution's clock:
    the engine assigns ``executor.deadline`` from the request
    unconditionally, overwriting whatever a constructor (or a hypothetical
    future executor cache) left there.
    """

    query: ConjunctiveQuery
    database: Database
    counter: OperationCounter
    plan: Optional[ExecutionPlan] = None
    variable_order: Optional[Tuple[Variable, ...]] = None
    cache: Optional[AdhesionCache] = None
    parallel: Optional[object] = None
    parallel_backend: Optional[str] = None
    parallel_mode: Optional[str] = None
    selector: Optional[object] = None
    compile: Optional[bool] = None
    deadline: Optional[Deadline] = None


@dataclass(frozen=True)
class AlgorithmSpec:
    """One registered algorithm: its factory plus its parameter contract.

    ``needs_plan`` tells the engine to run the planner (decomposition +
    strongly compatible order) before calling the factory; ``accepts`` lists
    the :data:`PARAMETERS` the algorithm consumes.
    """

    name: str
    factory: Callable[[ExecutorRequest], Executor]
    description: str
    needs_plan: bool = False
    accepts: FrozenSet[str] = field(default_factory=frozenset)

    def reject_unused(self, **parameters: object) -> None:
        """Raise ``ValueError`` for any explicitly-passed parameter the
        algorithm does not consume — user intent must never be dropped
        silently."""
        for parameter, value in parameters.items():
            if value is not None and parameter not in self.accepts:
                accepted = ", ".join(sorted(self.accepts)) or "none"
                raise ValueError(
                    f"algorithm {self.name!r} does not use the {parameter!r} "
                    f"parameter (accepted parameters: {accepted}); drop it or "
                    f"pick an algorithm that honours it"
                )


class RowStreamAdapter:
    """Adapts executors that yield assignment mappings (YTD, pairwise) to the
    tuple-stream protocol.

    The wrapped executor must provide ``count()``, ``evaluate_tuples(order)``
    and ``execution_metadata()``; rows are streamed in the adapter's declared
    ``variable_order`` (the query's textual order).
    """

    def __init__(self, inner, variable_order: Sequence[Variable]) -> None:
        self.inner = inner
        self.variable_order: Tuple[Variable, ...] = tuple(variable_order)

    @property
    def counter(self) -> OperationCounter:
        return self.inner.counter

    def count(self) -> int:
        return self.inner.count()

    def evaluate(self) -> Iterator[Tuple[object, ...]]:
        for row in self.inner.evaluate_tuples(self.variable_order):
            yield row

    def execution_metadata(self) -> Dict[str, object]:
        return self.inner.execution_metadata()


# ---------------------------------------------------------------- factories
def _build_parallel(request: ExecutorRequest, inner: str) -> Executor:
    """Build a morsel-parallel executor around ``inner``."""
    from repro.engine.parallel import ParallelExecutor

    workers = request.parallel
    if workers is True:
        workers = None  # auto: selector-recommended (or usable core count)
    return ParallelExecutor(
        request.query,
        request.database,
        variable_order=request.variable_order,
        counter=request.counter,
        inner=inner,
        workers=workers,
        backend=request.parallel_backend or "threads",
        mode=request.parallel_mode or "morsel",
        selector=request.selector,
        compile=request.compile,
        plan=request.plan,
        deadline=request.deadline,
    )


def _check_parallel_params(request: ExecutorRequest) -> bool:
    """Should this request route through the parallel executor?

    ``parallel=False`` is an explicit request for serial execution, same
    as ``None``; ``True`` asks for an automatic worker count; any ``int``
    pins it.
    """
    if request.parallel is not None and request.parallel is not False:
        return True
    if request.parallel_backend is not None:
        raise ValueError(
            "parallel_backend requires parallel= (a worker count or True)"
        )
    if request.parallel_mode is not None:
        raise ValueError(
            "parallel_mode requires parallel= (a worker count or True)"
        )
    return False


def _build_lftj(request: ExecutorRequest) -> Executor:
    if _check_parallel_params(request):
        return _build_parallel(request, "lftj")
    if request.compile is False:
        # The interpreted path, retained as the differential oracle.
        return LeapfrogTrieJoin(
            request.query, request.database, request.variable_order, request.counter
        )
    from repro.engine.compiler import CompiledTrieJoin

    return CompiledTrieJoin(
        request.query, request.database, request.variable_order, request.counter
    )


def _build_clftj(request: ExecutorRequest) -> Executor:
    plan = request.plan
    if _check_parallel_params(request):
        if request.cache is not None:
            raise ValueError(
                "clftj cannot combine cache= with parallel=: parallel "
                "workers keep their own persistent adhesion caches"
            )
        return _build_parallel(request, "clftj")
    if request.compile is False:
        # The interpreted path, retained as the differential oracle.
        return CachedLeapfrogTrieJoin(
            request.query,
            request.database,
            plan.decomposition,
            plan.variable_order,
            policy=plan.policy,
            cache=request.cache if request.cache is not None else plan.make_cache(),
            counter=request.counter,
        )
    from repro.engine.compiler import CompiledCachedTrieJoin

    return CompiledCachedTrieJoin(
        request.query,
        request.database,
        plan.decomposition,
        plan.variable_order,
        policy=plan.policy,
        cache=request.cache if request.cache is not None else plan.make_cache(),
        counter=request.counter,
    )


def _build_ytd(request: ExecutorRequest) -> Executor:
    inner = YannakakisTreeJoin(
        request.query, request.database, request.plan.decomposition, request.counter
    )
    return RowStreamAdapter(inner, request.query.variables)


def _build_generic_join(request: ExecutorRequest) -> Executor:
    if _check_parallel_params(request):
        return _build_parallel(request, "generic_join")
    return GenericJoin(
        request.query, request.database, request.variable_order, request.counter
    )


def _build_plftj(request: ExecutorRequest) -> Executor:
    # Dedicated name for the parallel LFTJ: parallel even without an
    # explicit parallel= (shard count then comes from the selector).
    return _build_parallel(request, "lftj")


def _build_pclftj(request: ExecutorRequest) -> Executor:
    # Dedicated name for the parallel CLFTJ: morsel-parallel cached trie
    # join with worker-local persistent adhesion caches.
    return _build_parallel(request, "clftj")


def _build_pairwise(request: ExecutorRequest) -> Executor:
    inner = PairwiseHashJoin(request.query, request.database, request.counter)
    return RowStreamAdapter(inner, request.query.variables)


# ----------------------------------------------------------------- registry
_REGISTRY: Dict[str, AlgorithmSpec] = {}


def register_algorithm(spec: AlgorithmSpec, replace: bool = False) -> None:
    """Register ``spec`` under its name; refuses silent overwrites."""
    if spec.name in _REGISTRY and not replace:
        raise ValueError(f"algorithm {spec.name!r} is already registered")
    _REGISTRY[spec.name] = spec


def algorithm_spec(name: str) -> AlgorithmSpec:
    """Look an algorithm up by name, with a helpful error for unknown names."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown algorithm {name!r}; choose one of {registered_algorithms()}"
        ) from None


def registered_algorithms() -> Tuple[str, ...]:
    """Names of all registered algorithms, in registration order."""
    return tuple(_REGISTRY)


register_algorithm(
    AlgorithmSpec(
        name="lftj",
        factory=_build_lftj,
        description="vanilla Leapfrog Trie Join (Figure 1)",
        accepts=frozenset(
            {
                "variable_order",
                "parallel",
                "parallel_backend",
                "parallel_mode",
                "compile",
                "timeout",
            }
        ),
    )
)
register_algorithm(
    AlgorithmSpec(
        name="clftj",
        factory=_build_clftj,
        description="Cached Leapfrog Trie Join over a tree decomposition (Figure 2)",
        needs_plan=True,
        accepts=frozenset(
            {
                "decomposition",
                "variable_order",
                "cache_capacity",
                "policy",
                "cache",
                "parallel",
                "parallel_backend",
                "parallel_mode",
                "compile",
                "timeout",
            }
        ),
    )
)
register_algorithm(
    AlgorithmSpec(
        name="ytd",
        factory=_build_ytd,
        description="Yannakakis over a tree decomposition with per-bag GenericJoin",
        needs_plan=True,
        accepts=frozenset({"decomposition"}),
    )
)
register_algorithm(
    AlgorithmSpec(
        name="generic_join",
        factory=_build_generic_join,
        description="NPRR-style worst-case-optimal join over hash prefix indexes",
        accepts=frozenset(
            {"variable_order", "parallel", "parallel_backend", "parallel_mode"}
        ),
    )
)
register_algorithm(
    AlgorithmSpec(
        name="pairwise",
        factory=_build_pairwise,
        description="left-deep pairwise hash joins with a greedy optimiser",
    )
)
register_algorithm(
    AlgorithmSpec(
        name="plftj",
        factory=_build_plftj,
        description=(
            "partition-parallel Leapfrog Trie Join (top-variable sharding "
            "over shared tries; threads or fork-based processes)"
        ),
        accepts=frozenset(
            {
                "variable_order",
                "parallel",
                "parallel_backend",
                "parallel_mode",
                "compile",
                "timeout",
            }
        ),
    )
)
register_algorithm(
    AlgorithmSpec(
        name="pclftj",
        factory=_build_pclftj,
        description=(
            "partition-parallel Cached Leapfrog Trie Join (morsel-driven, "
            "worker-local persistent adhesion caches; threads or fork)"
        ),
        needs_plan=True,
        accepts=frozenset(
            {
                "decomposition",
                "variable_order",
                "cache_capacity",
                "policy",
                "parallel",
                "parallel_backend",
                "parallel_mode",
                "compile",
                "timeout",
            }
        ),
    )
)
