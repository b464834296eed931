"""Persistent morsel-driven worker pools (threads and forked processes).

PR 5's parallel executor paid scheduling setup on *every* execution: a fresh
``ThreadPoolExecutor``, or one ``fork`` per shard.  With PR 6's compiled
drivers making per-shard compute 4-8x cheaper, that per-query setup and the
static partition skew became the dominant parallel cost.  This module keeps
the workers alive instead: a :class:`WorkerPool` is owned by the
:class:`~repro.storage.database.Database`, survives across queries, and runs
*morsels* — many fine-grained sub-ranges of the top join variable — with
work stealing, so a lopsided key space keeps every worker busy anyway
(morsel-driven parallelism in the sense of Leis et al.).

Two backends implement the same :meth:`WorkerPool.run` contract:

* :class:`ThreadWorkerPool` — long-lived daemon threads, one deque per
  worker.  Tasks are dealt round-robin; a worker pops from the *head* of its
  own deque and, when empty, steals from the *tail* of the fullest other
  deque.  Threads never go stale across database mutations (shared memory).
* :class:`ForkWorkerPool` — workers forked **once** and re-armed over a
  control pipe per job, amortizing fork + copy-on-write page-table setup
  across queries.  Tasks flow through one shared queue (pulling is
  self-balancing; a task executed off its round-robin home worker counts as
  a steal).  Forked workers snapshot the database at fork time, so the pool
  records a staleness key (data version, index/compiled builds, dictionary
  size) and transparently re-forks when the parent built new state — warm
  repeated queries re-use the same workers with **zero** new spawns (the
  ``spawns`` counter is the proof, asserted in tests).

**Adaptive splitting**: when a worker's previous morsel ran longer than the
job's ``split_threshold``, it halves any subsequent task that still spans
enough dictionary codes and requeues both halves instead of running the
original — a mis-estimated hot range gets re-fed to the whole pool
mid-flight.  Split halves carry a binary ``path`` suffix, so sorting results
by ``(index, path)`` reproduces the exact planner range order no matter
which worker ran what: the merged row stream is byte-identical to the
serial one under any stealing/splitting schedule.

**Locking model** (mirrors the conventions documented in
:mod:`repro.engine.parallel` and :class:`~repro.storage.database.Database`):

* one ``Condition`` guards all thread-pool scheduling state (deques,
  pending count, per-worker busy time, steal/split counters); task
  execution itself runs outside it;
* ``run()`` serialises on a submit lock — one job at a time per pool;
  concurrent engine calls over one database queue up rather than interleave
  (a job's runner must never submit to the same pool: that would deadlock);
* lifecycle (``close()``) takes a separate lock, is idempotent, and briefly
  acquires the submit lock so an in-flight job drains before teardown —
  exiting a pool's context manager mid-query therefore finishes the query;
* forked children replace the inherited ``database._lock`` (a parent thread
  that held it at fork time does not exist in the child and would never
  release it) — see :func:`reinitialise_child_locks`;
* every pool registers in a module-level ``WeakSet`` closed by one
  ``atexit`` hook, so forgotten pools cannot leak forked children past
  interpreter shutdown, while garbage collection of a database (and its
  pools) stays possible.

The parent collects fork-backend results with a **bounded-timeout
heartbeat**: every ``HEARTBEAT_SECONDS`` without a result it polls worker
liveness, so a worker that dies between tasks is detected within a short
deadline instead of hanging the merge forever.

**Fault tolerance** (PR 9): a detected death no longer fails the job.  The
parent joins the dead workers, forks replacements armed with the in-flight
job, and re-enqueues every morsel not yet accounted for — morsel identity
is ``(index, path)``, so retried results sort back into the deterministic
merge and duplicates (a morsel that was merely in flight elsewhere) park
harmlessly as orphans.  A morsel that repeatedly kills its worker is a
poison pill: per-key retries are bounded by ``MAX_MORSEL_RETRIES`` with
exponential backoff, and only an exhausted budget raises
:class:`~repro.engine.faults.WorkerFailureError`.  The thread backend
applies the same per-morsel retry discipline to runner exceptions.  Jobs
can also carry a :class:`~repro.engine.faults.Deadline`; the parent checks
it at every morsel boundary, cancels queued morsels on expiry, drains the
in-flight ones, and raises
:class:`~repro.engine.faults.QueryTimeoutError` with the pool left
immediately reusable.

**Liveness tunables** — ``HEARTBEAT_SECONDS``, ``DEAD_WORKER_GRACE`` and
``MAX_MORSEL_RETRIES`` can be overridden via the ``REPRO_HEARTBEAT_SECONDS``,
``REPRO_DEAD_WORKER_GRACE`` and ``REPRO_MAX_MORSEL_RETRIES`` environment
variables (mirroring ``REPRO_KERNEL_CROSSOVER``; invalid or out-of-range
values fall back to the defaults).  Calibration: the defaults detect a dead
worker within ``DEAD_WORKER_GRACE x HEARTBEAT_SECONDS`` = 0.5s, which is
well under the cheapest re-fork (~5ms) amortised over a typical morsel
(1-50ms) — lowering the heartbeat below ~0.05s makes the parent burn CPU
polling, raising it above ~1s lets a crashed worker stall short queries
noticeably.  ``MAX_MORSEL_RETRIES=3`` tolerates three unlucky co-locations
of a morsel with a crashing neighbour while a genuine poison pill fails
within ~4 heartbeat windows; ``0`` disables retries (fail on first death).
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import threading
import time
import weakref
from collections import deque
from dataclasses import dataclass, field
from queue import Empty
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.engine.faults import (
    Deadline,
    PoolClosedError,
    QueryTimeoutError,
    WorkerFailureError,
    fault_point,
)

#: Supported pool backends (mirrors ``PARALLEL_BACKENDS``).
POOL_BACKENDS: Tuple[str, ...] = ("threads", "processes")


def _env_float(name: str, default: float) -> float:
    """A positive float override from the environment, else ``default``."""
    raw = os.environ.get(name, "")
    if not raw:
        return default
    try:
        value = float(raw)
    except ValueError:
        return default
    return value if value > 0 else default


def _env_int(name: str, default: int, minimum: int = 0) -> int:
    """An integer override (``>= minimum``) from the environment."""
    raw = os.environ.get(name, "")
    if not raw:
        return default
    try:
        value = int(raw)
    except ValueError:
        return default
    return value if value >= minimum else default


#: Parent-side result-poll timeout; also the worker-liveness heartbeat —
#: a dead fork worker is noticed within a couple of these.  Overridable
#: via ``REPRO_HEARTBEAT_SECONDS`` (see the module docstring).
HEARTBEAT_SECONDS: float = _env_float("REPRO_HEARTBEAT_SECONDS", 0.25)

#: Child-side task-queue poll; bounds how long a fork worker takes to
#: notice the end-of-job (or close) message on its control pipe.
WORKER_POLL_SECONDS: float = 0.05

#: Consecutive silent heartbeats with a dead worker before recovery kicks
#: in (grace for results already in flight from other workers).
#: Overridable via ``REPRO_DEAD_WORKER_GRACE``.
DEAD_WORKER_GRACE: int = _env_int("REPRO_DEAD_WORKER_GRACE", 2, minimum=1)

#: Per-morsel retry budget after worker deaths or runner errors; an
#: exhausted budget raises ``WorkerFailureError`` (poison-pill detection).
#: Overridable via ``REPRO_MAX_MORSEL_RETRIES``; ``0`` disables retries.
MAX_MORSEL_RETRIES: int = _env_int("REPRO_MAX_MORSEL_RETRIES", 3, minimum=0)

#: Base of the exponential backoff applied before re-feeding a morsel
#: whose worker died more than once (caps at one second).
RETRY_BACKOFF_SECONDS: float = 0.05

#: Smallest code span the adaptive splitter will halve.
MIN_SPLIT_SPAN: int = 2


def available_workers() -> int:
    """Usable cores for sizing pools.

    ``len(os.sched_getaffinity(0))`` respects container CPU pinning (CI
    runners, the 1-core bench container); ``os.cpu_count()`` is the fallback
    on platforms without affinity support.
    """
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux fallback
        return max(1, os.cpu_count() or 1)


# --------------------------------------------------------------------------
# Job/task/result dataclasses (picklable: they cross the fork pipe).
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class MorselTask:
    """One unit of work: planner range ``index``, split ``path``, ``[lo, hi)``.

    ``path`` is ``()`` for a planner-produced morsel; each adaptive split
    appends ``0`` (left half) or ``1`` (right half), so lexicographic
    ``(index, path)`` order equals key-range order.
    """

    index: int
    path: Tuple[int, ...]
    lo: object
    hi: object


@dataclass
class TaskOutcome:
    """What a job's runner returns for one task.

    ``stats`` is an optional runner-defined observability payload (e.g. the
    worker-local adhesion-cache state after a CLFTJ morsel); the pool passes
    it through untouched.
    """

    value: int
    rows: Optional[List[Tuple[object, ...]]]
    counter: object
    stats: Optional[dict] = None


@dataclass
class MorselResult:
    """One completed task, with scheduling attribution."""

    index: int
    path: Tuple[int, ...]
    lo: object
    hi: object
    value: int
    rows: Optional[List[Tuple[object, ...]]]
    counter: object
    elapsed: float
    worker: int
    stolen: bool
    stats: Optional[dict] = None


@dataclass
class MorselJob:
    """Everything one :meth:`WorkerPool.run` call needs.

    ``runner`` must be a **module-level** callable ``(database, spec, task)
    -> TaskOutcome`` (the fork backend pickles it by reference); ``spec`` is
    an arbitrary picklable object threaded through to every task.  A
    ``split_threshold`` of ``None`` (or a ``split_domain`` of ``None``)
    disables adaptive splitting; ``allow_steal=False`` pins thread-backend
    tasks to their round-robin workers (the *static* scheduling mode).
    ``deadline`` makes the pool cancel the job cooperatively once the
    instant passes; ``max_retries`` overrides ``MAX_MORSEL_RETRIES``.
    """

    spec: object
    runner: Callable[[object, object, MorselTask], TaskOutcome]
    tasks: Sequence[MorselTask]
    allow_steal: bool = True
    split_threshold: Optional[float] = None
    min_split_span: int = MIN_SPLIT_SPAN
    split_domain: Optional[Tuple[int, int]] = None
    deadline: Optional[Deadline] = None
    max_retries: Optional[int] = None
    #: The submitting execution's cache-accounting scopes
    #: (:meth:`repro.storage.database.Database.active_scopes`).  Thread
    #: workers adopt them around each morsel so worker-side index/driver
    #: cache hits stay attributed to the execution that caused them.  Never
    #: crosses the fork pipe (fork children bump copy-on-write counters the
    #: parent never reads).
    scopes: Optional[Sequence[object]] = None


def _job_max_retries(job: MorselJob) -> int:
    return MAX_MORSEL_RETRIES if job.max_retries is None else job.max_retries


@dataclass
class JobReport:
    """The merged outcome of one job: ordered results plus scheduling stats."""

    results: List[MorselResult]
    steals: int
    splits: int
    worker_busy: List[float]
    wall_seconds: float
    workers: int
    #: Replacement workers forked mid-job after detected deaths.
    worker_restarts: int = 0
    #: Morsels re-enqueued after a worker death or a runner error.
    morsel_retries: int = 0


@dataclass(frozen=True)
class _JobPayload:
    """The per-job message broadcast to every fork worker's control pipe."""

    spec: object
    runner: Callable[[object, object, MorselTask], TaskOutcome]
    split_threshold: Optional[float]
    min_split_span: int
    split_domain: Optional[Tuple[int, int]]
    size: int


def split_task(
    task: MorselTask,
    domain: Optional[Tuple[int, int]],
    min_span: int,
) -> Optional[Tuple[MorselTask, MorselTask]]:
    """Halve ``task``'s code range, or ``None`` when it cannot be split.

    Open ends resolve against ``domain`` (the dictionary's code span at
    submit time) for the midpoint only; the halves keep the original open
    bounds so late-appended codes stay covered.  Raw (non-integer) key
    spaces have no midpoint and never split.
    """
    if domain is None:
        return None
    lo = task.lo if task.lo is not None else domain[0]
    hi = task.hi if task.hi is not None else domain[1]
    if not isinstance(lo, int) or not isinstance(hi, int):
        return None
    if hi - lo < max(2, min_span):
        return None
    mid = (lo + hi) // 2
    left = MorselTask(task.index, task.path + (0,), task.lo, mid)
    right = MorselTask(task.index, task.path + (1,), mid, task.hi)
    return left, right


def reinitialise_child_locks(database) -> None:
    """Replace locks a forked child inherited in unknown state.

    The fork may happen while *another* parent thread holds the database
    lock (engines are documented as thread-shareable); that thread does not
    exist in the child, so the inherited lock would never be released.  The
    child is single-threaded, so a fresh lock is safe.
    """
    database._lock = threading.RLock()


# --------------------------------------------------------------------------
# Lifecycle registry: one atexit hook, weak references only.
# --------------------------------------------------------------------------

_ALL_POOLS: "weakref.WeakSet[WorkerPool]" = weakref.WeakSet()


def _close_all_pools() -> None:
    """Close every live pool (atexit: forked children must never outlive us)."""
    for pool in list(_ALL_POOLS):
        try:
            pool.close()
        except Exception:  # pragma: no cover - shutdown must never raise
            pass


atexit.register(_close_all_pools)


# --------------------------------------------------------------------------
# The pool base class.
# --------------------------------------------------------------------------


class WorkerPool:
    """A persistent worker pool bound to one database.

    Subclasses implement ``_run_job`` and ``_shutdown``; this base owns the
    uniform lifecycle: lazy spawn, one-job-at-a-time submission, idempotent
    ``close()`` (also via context manager, ``__del__`` and the module atexit
    hook), and the observability counters ``spawns`` (workers ever started
    — the persistence proof), ``jobs_run`` and ``worker_restarts``.
    """

    backend: str = "none"

    def __init__(self, database, size: int) -> None:
        if size < 1:
            raise ValueError("worker pool size must be >= 1")
        self.database = database
        self.size = int(size)
        #: Workers ever started; flat across warm re-use, the counter the
        #: persistent-pool tests assert on.
        self.spawns = 0
        self.jobs_run = 0
        #: Stale/dead re-fork events plus mid-job replacement workers.
        self.worker_restarts = 0
        #: Morsels ever re-enqueued after a death or a runner error.
        self.morsel_retries = 0
        self._closed = False
        #: Set when close() gave up waiting on an in-flight (failing) job;
        #: the job's collection loop notices and aborts cleanly instead of
        #: raising secondary errors off torn-down queues.
        self._abandoned = False
        self._submit_lock = threading.Lock()
        self._lifecycle_lock = threading.Lock()
        _ALL_POOLS.add(self)

    # ------------------------------------------------------------- lifecycle
    @property
    def closed(self) -> bool:
        """True once :meth:`close` ran; a closed pool refuses new jobs."""
        return self._closed

    def close(self, drain_timeout: float = 5.0) -> None:
        """Tear the workers down; idempotent and safe to call from atexit.

        An in-flight job is drained first (a wait on the submit lock
        bounded by ``drain_timeout`` seconds), so closing a pool mid-query
        finishes the query rather than corrupting it; only then are workers
        stopped.  A job still in flight when the drain gives up is
        abandoned: *its own* ``run()`` call raises
        :class:`~repro.engine.faults.PoolClosedError` — ``close()`` itself
        never raises and never hangs, whichever thread calls it.
        """
        with self._lifecycle_lock:
            if self._closed:
                return
            self._closed = True
            self._shutdown(drain_timeout)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *_exc) -> bool:
        self.close()
        return False

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:
            pass

    # ------------------------------------------------------------- execution
    def run(self, job: MorselJob) -> JobReport:
        """Execute every task of ``job``; block until the merged report.

        Jobs serialise on the submit lock (see the module docstring's
        locking model).  Results come back sorted by ``(index, path)`` —
        planner range order — regardless of scheduling.
        """
        if self._closed:
            raise PoolClosedError(f"{self!r} is closed")
        with self._submit_lock:
            if self._closed:
                raise PoolClosedError(f"{self!r} is closed")
            started = time.perf_counter()
            report = self._run_job(job)
            report.wall_seconds = time.perf_counter() - started
            self.jobs_run += 1
            return report

    # ------------------------------------------------------------ subclasses
    def _run_job(self, job: MorselJob) -> JobReport:
        raise NotImplementedError

    def _shutdown(self, drain_timeout: float = 5.0) -> None:
        raise NotImplementedError

    def _drain_submit_lock(self, timeout: float = 5.0) -> bool:
        """Wait (bounded) for an in-flight job before teardown."""
        timeout = max(0.0, float(timeout))
        acquired = self._submit_lock.acquire(timeout=timeout)
        if acquired:
            self._submit_lock.release()
        return acquired

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return (
            f"{type(self).__name__}(size={self.size}, spawns={self.spawns}, "
            f"jobs={self.jobs_run}, {state})"
        )


# --------------------------------------------------------------------------
# Thread backend: per-worker deques with real tail-stealing.
# --------------------------------------------------------------------------


class _ThreadJob:
    """Mutable scheduling state of one thread-backend job (guarded by the
    pool condition)."""

    def __init__(self, job: MorselJob, size: int) -> None:
        self.job = job
        self.deques: List[deque] = [deque() for _ in range(size)]
        self.pending = 0
        self.results: List[MorselResult] = []
        self.errors: List[Tuple[int, Tuple[int, ...], str]] = []
        self.busy = [0.0] * size
        self.steals = 0
        self.splits = 0
        self.retries: Dict[Tuple[int, Tuple[int, ...]], int] = {}
        self.morsel_retries = 0
        #: Set once any task ran past the split threshold; wide tasks taken
        #: after that are halved and requeued instead of run.
        self.hot = False
        #: Set when the job's deadline expired; queued tasks were discarded
        #: and only in-flight ones drain.
        self.cancelled = False
        self.finished = False


class ThreadWorkerPool(WorkerPool):
    """Long-lived daemon threads over per-worker deques with tail-stealing."""

    backend = "threads"

    def __init__(self, database, size: int) -> None:
        super().__init__(database, size)
        self._cond = threading.Condition()
        self._workers: List[threading.Thread] = []
        self._state: Optional[_ThreadJob] = None
        self._closing = False

    # ------------------------------------------------------------- internals
    def _ensure_workers(self) -> None:
        if self._workers:
            return
        for wid in range(self.size):
            worker = threading.Thread(
                target=self._worker_main,
                args=(wid,),
                name=f"repro-pool-{wid}",
                daemon=True,
            )
            worker.start()
            self._workers.append(worker)
            self.spawns += 1

    def _run_job(self, job: MorselJob) -> JobReport:
        tasks = list(job.tasks)
        state = _ThreadJob(job, self.size)
        if not tasks:
            return JobReport([], 0, 0, list(state.busy), 0.0, self.size)
        self._ensure_workers()
        try:
            with self._cond:
                for position, task in enumerate(tasks):
                    state.deques[position % self.size].append(task)
                state.pending = len(tasks)
                self._state = state
                self._cond.notify_all()
                while not state.finished:
                    if self._abandoned:
                        break
                    wait_for = 0.5
                    if job.deadline is not None and not state.cancelled:
                        wait_for = max(
                            0.005, min(wait_for, job.deadline.remaining())
                        )
                    self._cond.wait(timeout=wait_for)
                    if (
                        job.deadline is not None
                        and not state.cancelled
                        and not state.finished
                        and job.deadline.expired()
                    ):
                        # Cancel: discard queued morsels, drain in-flight
                        # ones (they decrement pending on completion).
                        state.cancelled = True
                        cleared = sum(len(dq) for dq in state.deques)
                        for dq in state.deques:
                            dq.clear()
                        state.pending -= cleared
                        if state.pending <= 0:
                            state.finished = True
                            self._cond.notify_all()
        finally:
            with self._cond:
                self._state = None
                self._cond.notify_all()
        if self._abandoned and not state.finished:
            raise PoolClosedError(
                "worker pool closed while a job was in flight"
            )
        if state.cancelled:
            raise QueryTimeoutError(job.deadline.timeout)
        if state.errors:
            state.errors.sort()
            details = "; ".join(
                f"morsel {index}{list(path)!r}: {text}"
                for index, path, text in state.errors
            )
            raise WorkerFailureError(
                f"morsel worker(s) failed: {details}",
                diagnostics=[
                    f"morsel {index}{list(path)!r}: {text}"
                    for index, path, text in state.errors
                ],
            )
        results = sorted(state.results, key=lambda r: (r.index, r.path))
        return JobReport(
            results,
            state.steals,
            state.splits,
            list(state.busy),
            0.0,
            self.size,
            worker_restarts=0,
            morsel_retries=state.morsel_retries,
        )

    def _worker_main(self, wid: int) -> None:
        fault_point("pool.worker_start")
        cond = self._cond
        while True:
            with cond:
                state = self._state
                task: Optional[MorselTask] = None
                stolen = False
                if state is not None and not state.finished:
                    task, stolen = self._take(state, wid)
                if task is None:
                    if self._closing and (state is None or state.finished):
                        return
                    cond.wait(timeout=0.5)
                    continue
            self._handle(state, task, stolen, wid)

    def _take(
        self, state: _ThreadJob, wid: int
    ) -> Tuple[Optional[MorselTask], bool]:
        """Pop from the own deque head, else steal from the fullest tail.

        Caller holds the pool condition.
        """
        own = state.deques[wid]
        if own:
            return own.popleft(), False
        if state.job.allow_steal:
            victim = max(
                (dq for dq in state.deques if dq), key=len, default=None
            )
            if victim is not None:
                return victim.pop(), True
        return None, False

    def _handle(
        self, state: _ThreadJob, task: MorselTask, stolen: bool, wid: int
    ) -> None:
        job = state.job
        if state.hot and job.split_threshold is not None:
            halves = split_task(task, job.split_domain, job.min_split_span)
            if halves is not None:
                left, right = halves
                with self._cond:
                    state.pending += 1
                    state.splits += 1
                    own = state.deques[wid]
                    # Head of the own deque: the owner continues depth-first
                    # on the left half while the right half sits stealable.
                    own.appendleft(right)
                    own.appendleft(left)
                    self._cond.notify_all()
                return
        started = time.perf_counter()
        try:
            fault_point("pool.before_morsel")
            with self.database.adopt_scopes(job.scopes):
                outcome = job.runner(self.database, job.spec, task)
        except BaseException as error:  # noqa: BLE001 - reported to submitter
            key = (task.index, task.path)
            with self._cond:
                # Per-morsel retry discipline for transient errors; a
                # deadline expiry is never transient and a cancelled job
                # must drain, not grow.
                retriable = (
                    not isinstance(error, QueryTimeoutError)
                    and not state.cancelled
                    and state.retries.get(key, 0) < _job_max_retries(job)
                )
                if retriable:
                    state.retries[key] = state.retries.get(key, 0) + 1
                    state.morsel_retries += 1
                    self.morsel_retries += 1
                    state.deques[wid].append(task)
                    self._cond.notify_all()
                else:
                    state.errors.append(
                        (task.index, task.path, f"{type(error).__name__}: {error}")
                    )
                    self._finish_one(state)
            return
        elapsed = time.perf_counter() - started
        with self._cond:
            state.busy[wid] += elapsed
            if (
                job.split_threshold is not None
                and elapsed >= job.split_threshold
            ):
                state.hot = True
            if stolen:
                state.steals += 1
            state.results.append(
                MorselResult(
                    index=task.index,
                    path=task.path,
                    lo=task.lo,
                    hi=task.hi,
                    value=outcome.value,
                    rows=outcome.rows,
                    counter=outcome.counter,
                    elapsed=elapsed,
                    worker=wid,
                    stolen=stolen,
                    stats=outcome.stats,
                )
            )
            self._finish_one(state)

    def _finish_one(self, state: _ThreadJob) -> None:
        """Decrement pending under the condition; wake everyone on zero."""
        state.pending -= 1
        if state.pending == 0:
            state.finished = True
            self._cond.notify_all()

    def _shutdown(self, drain_timeout: float = 5.0) -> None:
        if not self._drain_submit_lock(timeout=drain_timeout):
            self._abandoned = True
        with self._cond:
            self._closing = True
            self._cond.notify_all()
        for worker in self._workers:
            worker.join(timeout=2.0)
        self._workers = []


# --------------------------------------------------------------------------
# Fork backend: workers survive across queries, re-armed via a task pipe.
# --------------------------------------------------------------------------


class _CloseWorker(Exception):
    """Raised inside a fork worker to unwind out of an active job."""


def _fork_worker_main(pool: "ForkWorkerPool", wid: int, conn) -> None:
    """Entry point of one forked worker; loops over jobs until closed.

    Runs with the whole parent state inherited by copy-on-write — the
    database, its warm index and compiled-driver caches, and the pool's
    queues; only control messages and results ever cross a pipe.
    """
    reinitialise_child_locks(pool.database)
    fault_point("pool.worker_start")
    try:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                return
            if message[0] == "close":
                return
            if message[0] == "job":
                try:
                    _serve_job(pool, wid, conn, message[1])
                except _CloseWorker:
                    return
    finally:
        try:
            conn.close()
        except OSError:  # pragma: no cover
            pass


def _serve_job(pool: "ForkWorkerPool", wid: int, conn, payload: _JobPayload) -> None:
    """Pull tasks from the shared queue until the parent ends the job."""
    task_queue = pool._task_queue
    result_queue = pool._result_queue
    busy = 0.0
    hot = False
    while True:
        try:
            task = task_queue.get(timeout=WORKER_POLL_SECONDS)
        except Empty:
            if conn.poll():
                message = conn.recv()
                if message[0] == "end":
                    conn.send(("ack", wid, busy))
                    return
                if message[0] == "close":
                    raise _CloseWorker()
            continue
        if hot and payload.split_threshold is not None:
            halves = split_task(task, payload.split_domain, payload.min_split_span)
            if halves is not None:
                left, right = halves
                result_queue.put(
                    (
                        "split",
                        (task.index, task.path),
                        (left.index, left.path),
                        (right.index, right.path),
                    )
                )
                task_queue.put(left)
                task_queue.put(right)
                continue
        started = time.perf_counter()
        try:
            fault_point("pool.before_morsel")
            outcome = payload.runner(pool.database, payload.spec, task)
        except BaseException as error:  # noqa: BLE001 - crosses the process boundary
            result_queue.put(
                (
                    "error",
                    (task.index, task.path),
                    f"{type(error).__name__}: {error}",
                )
            )
            continue
        elapsed = time.perf_counter() - started
        busy += elapsed
        if payload.split_threshold is not None and elapsed >= payload.split_threshold:
            hot = True
        result_queue.put(
            (
                "result",
                MorselResult(
                    index=task.index,
                    path=task.path,
                    lo=task.lo,
                    hi=task.hi,
                    value=outcome.value,
                    rows=outcome.rows,
                    counter=outcome.counter,
                    elapsed=elapsed,
                    worker=wid,
                    stolen=wid != task.index % payload.size,
                    stats=outcome.stats,
                ),
            )
        )


class _ForkJobTracker:
    """Order-independent completion bookkeeping for one fork-backend job.

    Messages from different workers may arrive in any interleaving — a
    split half's result can land before its split announcement.  The
    tracker keeps a live ``expected`` key set; early arrivals park as
    orphans and are absorbed the moment their key becomes live, so the job
    completes exactly when every planner range is tiled by results.

    It also keeps a ``key -> MorselTask`` map so worker-failure recovery
    can re-enqueue any still-expected morsel.  Split messages carry only
    keys, but the halves are recomputed parent-side with the same
    deterministic :func:`split_task` the child used — identical inputs,
    identical halves.
    """

    def __init__(
        self,
        tasks: Sequence[MorselTask],
        split_domain: Optional[Tuple[int, int]] = None,
        min_split_span: int = MIN_SPLIT_SPAN,
    ) -> None:
        self.expected: Set[Tuple[int, Tuple[int, ...]]] = set()
        self.results: List[MorselResult] = []
        self.errors: List[Tuple[Tuple[int, Tuple[int, ...]], str]] = []
        self.splits = 0
        self.tasks: Dict[Tuple[int, Tuple[int, ...]], MorselTask] = {}
        self._domain = split_domain
        self._min_span = min_split_span
        self._orphans: Dict[Tuple[int, Tuple[int, ...]], tuple] = {}
        self._orphan_splits: Dict[Tuple[int, Tuple[int, ...]], tuple] = {}
        for task in tasks:
            self.expected.add((task.index, task.path))
            self.tasks[(task.index, task.path)] = task

    @property
    def done(self) -> bool:
        return not self.expected

    def absorb(self, message: tuple) -> None:
        kind = message[0]
        if kind == "split":
            key = message[1]
            if key in self.expected:
                self.expected.discard(key)
                self._apply_split(message)
            else:
                self._orphan_splits[key] = message
            return
        key = message[1] if kind == "error" else (
            message[1].index,
            message[1].path,
        )
        if key in self.expected:
            self.expected.discard(key)
            self._complete(message)
        else:
            self._orphans[key] = message

    def _apply_split(self, message: tuple) -> None:
        self.splits += 1
        parent = self.tasks.get(message[1])
        if parent is not None:
            halves = split_task(parent, self._domain, self._min_span)
            if halves is not None:
                for half in halves:
                    self.tasks[(half.index, half.path)] = half
        for half_key in (message[2], message[3]):
            self._register(half_key)

    def _register(self, key: Tuple[int, Tuple[int, ...]]) -> None:
        if key in self._orphans:
            self._complete(self._orphans.pop(key))
            return
        if key in self._orphan_splits:
            self._apply_split(self._orphan_splits.pop(key))
            return
        self.expected.add(key)

    def _complete(self, message: tuple) -> None:
        if message[0] == "result":
            self.results.append(message[1])
        else:
            self.errors.append((message[1], message[2]))


class ForkWorkerPool(WorkerPool):
    """Forked workers that survive across queries, re-armed per job.

    Fork happens lazily on the first job — *after* the parent built the
    query's indexes and compiled driver, so children inherit warm caches by
    copy-on-write.  A staleness key re-forks the set when the parent built
    new state since; warm repeats spawn nothing.
    """

    backend = "processes"

    def __init__(self, database, size: int) -> None:
        super().__init__(database, size)
        self._context = multiprocessing.get_context("fork")
        self._processes: List = []
        self._pipes: List = []
        self._task_queue = None
        self._result_queue = None
        self._fork_key: Optional[tuple] = None

    # ------------------------------------------------------------- internals
    def _state_key(self) -> tuple:
        """Everything whose parent-side growth a forked child cannot see.

        A change re-forks the workers on the next job; unchanged warm
        executions keep the same children (and their COW page tables).
        """
        database = self.database
        return (
            database.data_version,
            database.index_builds,
            database.compiled_builds,
            len(database.dictionary),
        )

    def _ensure_workers(self) -> None:
        if self._processes:
            stale = self._state_key() != self._fork_key
            dead = any(not process.is_alive() for process in self._processes)
            if stale or dead:
                self._stop_workers()
                self.worker_restarts += 1
        if self._processes:
            return
        self._task_queue = self._context.Queue()
        self._result_queue = self._context.Queue()
        self._fork_key = self._state_key()
        for wid in range(self.size):
            parent_conn, child_conn = self._context.Pipe()
            process = self._context.Process(
                target=_fork_worker_main,
                args=(self, wid, child_conn),
                daemon=True,
            )
            process.start()
            child_conn.close()
            self._processes.append(process)
            self._pipes.append(parent_conn)
            self.spawns += 1

    def _run_job(self, job: MorselJob) -> JobReport:
        tasks = list(job.tasks)
        if not tasks:
            return JobReport([], 0, 0, [0.0] * self.size, 0.0, self.size)
        self._ensure_workers()
        payload = _JobPayload(
            spec=job.spec,
            runner=job.runner,
            split_threshold=job.split_threshold,
            min_split_span=job.min_split_span,
            split_domain=job.split_domain,
            size=self.size,
        )
        for pipe in self._pipes:
            try:
                pipe.send(("job", payload))
            except (OSError, BrokenPipeError):
                # The worker died before (or while) receiving the payload —
                # e.g. killed during startup.  The heartbeat sweep below
                # detects the death and forks an armed replacement.
                pass
        for task in tasks:
            self._task_queue.put(task)
        tracker = _ForkJobTracker(tasks, job.split_domain, job.min_split_span)
        retries: Dict[Tuple[int, Tuple[int, ...]], int] = {}
        max_retries = _job_max_retries(job)
        job_restarts = 0
        job_retries = 0
        # Bounded-timeout heartbeat: a silent interval triggers a liveness
        # sweep, so a worker that died between tasks surfaces within
        # ~DEAD_WORKER_GRACE * HEARTBEAT_SECONDS.  Detected deaths are
        # *recovered from*: replacements are forked, lost morsels re-fed.
        silent_with_dead = 0
        while not tracker.done:
            if self._abandoned:
                raise PoolClosedError(
                    "worker pool closed while a job was in flight"
                )
            if job.deadline is not None and job.deadline.expired():
                busy = self._cancel_job()
                raise QueryTimeoutError(job.deadline.timeout)
            timeout = HEARTBEAT_SECONDS
            if job.deadline is not None:
                timeout = max(0.005, min(timeout, job.deadline.remaining()))
            try:
                message = self._result_queue.get(timeout=timeout)
            except Empty:
                fault_point("pool.heartbeat")
                dead = [
                    (wid, process.exitcode)
                    for wid, process in enumerate(self._processes)
                    if not process.is_alive()
                ]
                if not dead:
                    continue
                silent_with_dead += 1
                if silent_with_dead < DEAD_WORKER_GRACE:
                    continue
                silent_with_dead = 0
                lost = sorted(
                    key for key in tracker.expected if key in tracker.tasks
                )
                exhausted = [
                    key for key in lost if retries.get(key, 0) >= max_retries
                ]
                if exhausted:
                    # Poison pill: the same morsel keeps killing workers.
                    self._stop_workers()
                    worker_details = ", ".join(
                        f"worker {wid} exit code {code}" for wid, code in dead
                    )
                    morsel_details = ", ".join(
                        f"morsel {key[0]}{list(key[1])!r} "
                        f"({retries.get(key, 0)} retries)"
                        for key in exhausted
                    )
                    raise WorkerFailureError(
                        f"parallel worker(s) died mid-job: {worker_details}; "
                        f"retry budget exhausted for {morsel_details}",
                        diagnostics=[
                            f"worker {wid} exit code {code}"
                            for wid, code in dead
                        ],
                    )
                job_restarts += self._replace_workers(dead, payload)
                repeat = max((retries.get(key, 0) for key in lost), default=0)
                for key in lost:
                    retries[key] = retries.get(key, 0) + 1
                job_retries += len(lost)
                self.morsel_retries += len(lost)
                if repeat >= 1:
                    # The same morsel's worker died again: back off
                    # exponentially before re-feeding it.
                    time.sleep(
                        min(RETRY_BACKOFF_SECONDS * (2 ** (repeat - 1)), 1.0)
                    )
                # Re-enqueue after forking so the queue feeder is quiescent
                # at fork time.  Duplicates (morsels merely in flight on a
                # live worker) are safe: the tracker completes a key once
                # and parks later arrivals as orphans.
                for key in lost:
                    self._task_queue.put(tracker.tasks[key])
                continue
            except (OSError, ValueError, EOFError, AttributeError) as error:
                # close() tore the queues down under a job it abandoned.
                raise WorkerFailureError(
                    f"worker pool torn down mid-job: {error}"
                )
            silent_with_dead = 0
            if message[0] == "error":
                key = message[1]
                text = message[2]
                timed_out = text.partition(":")[0] == "QueryTimeoutError"
                retriable = (
                    not timed_out
                    and key in tracker.expected
                    and key in tracker.tasks
                    and retries.get(key, 0) < max_retries
                    and (job.deadline is None or not job.deadline.expired())
                )
                if retriable:
                    retries[key] = retries.get(key, 0) + 1
                    job_retries += 1
                    self.morsel_retries += 1
                    self._task_queue.put(tracker.tasks[key])
                    continue
            tracker.absorb(message)
        self._drain_queue(self._task_queue)  # duplicates from recovery
        busy = self._end_job()
        self._drain_queue(self._result_queue)  # orphan duplicate results
        if (
            job.deadline is not None
            and job.deadline.expired()
            and tracker.errors
        ):
            # Worker-side deadline checks surface as error messages; the
            # deadline itself is authoritative.
            raise QueryTimeoutError(job.deadline.timeout)
        if tracker.errors:
            tracker.errors.sort()
            details = "; ".join(
                f"morsel {key[0]}{list(key[1])!r}: {text}"
                for key, text in tracker.errors
            )
            raise WorkerFailureError(
                f"morsel worker(s) failed: {details}",
                diagnostics=[
                    f"morsel {key[0]}{list(key[1])!r}: {text}"
                    for key, text in tracker.errors
                ],
            )
        steals = sum(1 for result in tracker.results if result.stolen)
        results = sorted(tracker.results, key=lambda r: (r.index, r.path))
        return JobReport(
            results,
            steals,
            tracker.splits,
            busy,
            0.0,
            self.size,
            worker_restarts=job_restarts,
            morsel_retries=job_retries,
        )

    def _replace_workers(
        self, dead: List[Tuple[int, Optional[int]]], payload: _JobPayload
    ) -> int:
        """Join dead workers and fork replacements armed with the job.

        Replacements inherit the *current* parent state by copy-on-write
        (the parent has built nothing new mid-job: submissions serialise)
        and receive the in-flight job payload over their fresh pipe.  Lost
        morsels are re-enqueued by the caller *after* this returns, so the
        task queue's feeder thread is quiescent while forking.
        """
        replaced = 0
        for wid, _code in dead:
            self._processes[wid].join(timeout=0.2)
            try:
                self._pipes[wid].close()
            except OSError:  # pragma: no cover - already broken
                pass
            try:
                parent_conn, child_conn = self._context.Pipe()
                replacement = self._context.Process(
                    target=_fork_worker_main,
                    args=(self, wid, child_conn),
                    daemon=True,
                )
                replacement.start()
            except (OSError, RuntimeError, ValueError) as error:
                # Interpreter shutdown (or fd exhaustion): recovery is
                # impossible, fail the job cleanly.
                raise WorkerFailureError(
                    f"parallel worker(s) died mid-job and worker {wid} "
                    f"could not be replaced: {error}"
                )
            child_conn.close()
            self._processes[wid] = replacement
            self._pipes[wid] = parent_conn
            self.spawns += 1
            replaced += 1
            try:
                parent_conn.send(("job", payload))
            except (OSError, BrokenPipeError):
                # The replacement died immediately (repeat fault); the next
                # sweep sees it dead and the retry budget bounds the loop.
                pass
        self.worker_restarts += replaced
        return replaced

    def _cancel_job(self) -> List[float]:
        """Deadline cancellation: drop queued morsels, drain in-flight ones.

        The end-of-job handshake doubles as the drain — workers finish
        their current morsel, find the queue empty, and ack — so the pool
        is immediately reusable for the next query.
        """
        self._drain_queue(self._task_queue)
        busy = self._end_job()
        self._drain_queue(self._result_queue)
        return busy

    def _drain_queue(self, queue) -> None:
        if queue is None:
            return
        while True:
            try:
                queue.get_nowait()
            except (Empty, OSError, ValueError, EOFError):
                return

    def _end_job(self) -> List[float]:
        """End-of-job handshake: collect per-worker busy time, with a deadline.

        A worker that dies after its last task (before acking) is dropped
        and the set is marked stale so the next job re-forks.
        """
        for pipe in self._pipes:
            try:
                pipe.send(("end",))
            except (OSError, BrokenPipeError):
                pass
        busy = [0.0] * self.size
        waiting = set(range(self.size))
        deadline = time.monotonic() + 10.0
        while waiting and time.monotonic() < deadline:
            for wid in list(waiting):
                pipe = self._pipes[wid]
                try:
                    if pipe.poll(WORKER_POLL_SECONDS):
                        ack = pipe.recv()
                        if ack[0] == "ack":
                            busy[wid] = ack[2]
                            waiting.discard(wid)
                        continue
                except (EOFError, OSError):
                    waiting.discard(wid)
                    self._fork_key = None  # force re-fork next job
                    continue
                if not self._processes[wid].is_alive():
                    waiting.discard(wid)
                    self._fork_key = None
        if waiting:
            self._fork_key = None
        return busy

    def _stop_workers(self) -> None:
        for pipe in self._pipes:
            try:
                pipe.send(("close",))
            except (OSError, BrokenPipeError):
                pass
        for process in self._processes:
            process.join(timeout=1.0)
        for process in self._processes:
            if process.is_alive():
                process.terminate()
                process.join(timeout=1.0)
        for pipe in self._pipes:
            try:
                pipe.close()
            except OSError:  # pragma: no cover
                pass
        for queue in (self._task_queue, self._result_queue):
            if queue is not None:
                queue.close()
                queue.cancel_join_thread()
        self._processes = []
        self._pipes = []
        self._task_queue = None
        self._result_queue = None

    def _shutdown(self, drain_timeout: float = 5.0) -> None:
        if not self._drain_submit_lock(timeout=drain_timeout):
            # A failing job is still retrying; abandon it so close() (and
            # the atexit sweep) can never deadlock.  The job's collection
            # loop notices the flag and raises PoolClosedError cleanly.
            self._abandoned = True
        self._stop_workers()


# --------------------------------------------------------------------------
# Factory.
# --------------------------------------------------------------------------


def create_worker_pool(database, backend: str, size: int) -> WorkerPool:
    """Build a pool for ``backend`` (``"threads"`` or ``"processes"``).

    Callers wanting the fork backend on a platform without ``fork`` should
    fall back to threads *before* calling (as the parallel executor does);
    asking for it anyway raises.
    """
    if backend == "threads":
        return ThreadWorkerPool(database, size)
    if backend == "processes":
        if "fork" not in multiprocessing.get_all_start_methods():
            raise ValueError(
                "the 'processes' pool backend requires the fork start method"
            )
        return ForkWorkerPool(database, size)
    raise ValueError(
        f"unknown pool backend {backend!r}; choose one of {POOL_BACKENDS}"
    )
