"""Plan-compiled execution: specialize the hot join loop per query shape.

The interpreted :class:`~repro.core.lftj.LeapfrogTrieJoin` dispatches every
join level through generic per-variable Python — iterator method calls,
participant-list indirection, per-key counter bookkeeping.  This module
closes the plan -> compile -> execute split: from a planned (query,
variable order) over the dictionary-encoded tries it *generates Python
source* with the variable order unrolled into straight-line nested loops,
compiles it once via ``exec`` (pure stdlib), and caches the result in the
database's compiled-driver cache under the name-erased query signature.

What the generated driver does differently from the interpreter:

* trie cursors disappear — the driver captures each atom's flat trie
  columns (key arrays, numpy views, child-range arrays) at compile time and
  navigates with plain array indexing, so there are no ``open``/``up``/
  ``advance_to`` method calls on the hot path;
* the batched kernels (:func:`~repro.core.leapfrog.run_intersect`,
  ``run_count``, ``run_keys`` — the run-level cores behind
  ``intersect_positions`` / ``intersect_count`` / ``intersect_keys``) are
  pre-bound as default arguments, and the two-run leaf intersection is
  inlined with the numpy/two-pointer crossover decided from the compile-time
  :data:`~repro.core.leapfrog.KERNEL_CROSSOVER`;
* loop-invariant runs are hoisted: a run whose parent key was bound at an
  earlier depth is computed right after that binding, not once per
  iteration of intermediate loops (the interpreter re-gathers it each time);
* operation counters accumulate in local integers and flush once at the
  end — the arithmetic replicates the interpreted cost model *exactly*, so
  instrumented comparisons (e.g. CLFTJ-vs-LFTJ memory traffic) are
  unaffected by compilation;
* count and evaluate variants are generated separately, and both take a
  ``[lo, hi)`` code range over the top variable, so every ``plftj`` shard
  reuses one compiled driver parameterized by its range.

Because the driver holds direct references to trie columns, it is only
valid while those columns are current: the database drops cached drivers on
relation replacement, inserts/deletes *and* delta compaction (compaction
swaps the backing arrays without a version bump).  Queries whose tries
carry unmerged deltas fall back to the interpreted path — which is also
kept, behind ``compile=False``, as the differential oracle for the compiled
results.

The generated source is inspectable: ``CompiledTrieJoin.debug_source()``
(or ``CompiledDriver.debug_source``) returns it verbatim.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core import leapfrog
from repro.core.cache import AdhesionCache, CachePolicy
from repro.core.instrumentation import OperationCounter
from repro.core.leapfrog import (
    _pair_intersection_count,
    run_count,
    run_intersect,
    run_keys,
)
from repro.decomposition.tree_decomposition import TreeDecomposition
from repro.engine.faults import QueryTimeoutError, fault_point
from repro.engine.parallel import (
    _BoundedCachedLeapfrogTrieJoin,
    _BoundedLeapfrogTrieJoin,
)
from repro.query.atoms import ConjunctiveQuery
from repro.query.terms import Variable
from repro.storage.database import Database
from repro.storage.dictionary import numpy
from repro.storage.trie import TrieIndex
from repro.storage.views import query_signature

#: Algorithms that execute through compiled drivers (``compile`` parameter).
COMPILED_ALGORITHMS: Tuple[str, ...] = ("lftj", "plftj", "clftj", "pclftj")

#: CLFTJ drivers unroll one cache probe/store site per decomposition node
#: entered below the root; decompositions with more probed nodes than this
#: fall back to the interpreted executor (generated source growth is linear
#: in probe sites but each site nests, and real plans stay far below this).
MAX_UNROLLED_CACHE_NODES: int = 6

#: Interior-loop iterations between deadline clock reads in generated
#: drivers.  The check is counter-gated so the no-deadline path costs one
#: ``is None`` test per iteration of the *outer* loops only (the fused leaf
#: kernels stay untouched), while an expired deadline is still noticed
#: within a bounded slice of work.
COMPILED_DEADLINE_STRIDE: int = 1024


def decomposition_fingerprint(
    decomposition: TreeDecomposition, variable_order: Sequence[Variable]
) -> Tuple[object, ...]:
    """A structural key for (decomposition, order): shape in depth space.

    Per preorder node: its id, its owned depths, its adhesion depths, and
    its parent's preorder rank.  Node ids are deliberately *included* (not
    rank-erased): compiled CLFTJ drivers bake ``cache.get(node_id, ...)``
    literals into the generated source, and the adhesion caches they warm
    are shared with interpreted executions keyed by the same ids — erasing
    them could let two id-labelings of one shape collide on a cache.
    """
    depth_of = {variable: depth for depth, variable in enumerate(variable_order)}
    ranks = {node: rank for rank, node in enumerate(decomposition.preorder())}
    parts = []
    for node in decomposition.preorder():
        parent = decomposition.parent(node)
        parts.append(
            (
                node,
                tuple(sorted(depth_of[v] for v in decomposition.owned_variables(node))),
                tuple(sorted(depth_of[v] for v in decomposition.adhesion(node))),
                ranks[parent] if parent is not None else -1,
            )
        )
    return tuple(parts)


def driver_cache_key(
    query: ConjunctiveQuery,
    variable_order: Sequence[Variable],
    decomposition: Optional[TreeDecomposition] = None,
) -> Tuple[object, ...]:
    """The compiled-driver cache key: name-erased signature + order shape.

    Two queries that differ only in variable/query names share a key — and
    correctly share a driver, because the signature pins the relations,
    constants and join structure, and the order positions pin the loop
    nesting.  The key deliberately omits data versions: the database's
    compiled cache drops entries on any mutation of an involved relation.

    CLFTJ drivers additionally pin the (contracted) decomposition shape —
    probe/store sites are unrolled per node, so two decompositions of one
    query need two drivers.
    """
    positions = {variable: index for index, variable in enumerate(query.variables)}
    key: Tuple[object, ...] = (
        "compiled",
        query_signature(query),
        tuple(positions[variable] for variable in variable_order),
    )
    if decomposition is not None:
        key += ("clftj", decomposition_fingerprint(decomposition, variable_order))
    return key


def _pure_main(trie) -> Optional[TrieIndex]:
    """The delta-free columnar index behind ``trie``, or ``None``.

    Compiled drivers read raw columns, so an LSM trie qualifies only when
    its delta level is empty (reads then bypass the merging iterator
    entirely); its ``main`` is the capturable index.
    """
    if getattr(trie, "has_deltas", False):
        return None
    base = getattr(trie, "main", None)
    if base is None:
        base = trie
    return base if isinstance(base, TrieIndex) else None


def _atom_bundle(base: TrieIndex) -> Tuple[object, ...]:
    """Flatten one trie's columns into the tuple the generated code unpacks.

    Layout per level ``l``: keys, numpy view (or ``None``), and — below the
    last level — the child begin/end range arrays.  The generated unpack
    statement is emitted against exactly this layout.
    """
    np_keys = base._np_keys
    parts: List[object] = []
    for level in range(base.depth):
        parts.append(base._keys[level])
        parts.append(np_keys[level] if np_keys is not None else None)
        if level + 1 < base.depth:
            parts.append(base._child_begin[level])
            parts.append(base._child_end[level])
    return tuple(parts)


@dataclass
class CompiledDriver:
    """One compiled (count + evaluate) driver over captured trie columns."""

    key: Tuple[object, ...]
    query_name: str
    variable_names: Tuple[str, ...]
    relation_versions: Dict[str, int]
    crossover: int
    _columns: Tuple[Tuple[object, ...], ...]
    _sources: Dict[str, str]
    _functions: Dict[str, Callable]

    def count(self, counter: OperationCounter, lo=None, hi=None, deadline=None) -> int:
        """Run the generated count loop over codes in ``[lo, hi)``."""
        return self._functions["count"](self._columns, counter, lo, hi, deadline)

    def evaluate(self, counter: OperationCounter, lo=None, hi=None, deadline=None):
        """Yield coded result rows (variable-order positions) in ``[lo, hi)``."""
        return self._functions["evaluate"](self._columns, counter, lo, hi, deadline)

    def debug_source(self, mode: str = "count") -> str:
        """The generated Python source for ``mode`` (``count``/``evaluate``)."""
        if mode not in self._sources:
            raise ValueError(
                f"unknown driver mode {mode!r}; choose one of "
                f"{tuple(self._sources)}"
            )
        return self._sources[mode]

    def matches(self, database: Database) -> bool:
        """Is this driver still current for ``database``?

        Version-keyed: any replacement, insert/delete or compaction of an
        involved relation bumps (or re-bases) state the captured columns no
        longer reflect, and the database has then already dropped the
        cached entry — this check lets long-lived holders (prepared
        queries) notice without consulting the cache.
        """
        return all(
            database.relation_version(name) == version
            for name, version in self.relation_versions.items()
        )


# --------------------------------------------------------------------------
# Code generation.
# --------------------------------------------------------------------------


class _Codegen:
    """Emit one specialized driver function for a join structure.

    ``atom_depths[a]`` maps atom ``a``'s trie levels to global depths (one
    entry per level, strictly increasing); the generated function nests one
    loop per depth, intersecting the participating runs with the same
    kernels — and the same recorded cost arithmetic — as the interpreter.
    """

    def __init__(
        self,
        atom_depths: Sequence[Tuple[int, ...]],
        bundles: Sequence[Tuple[object, ...]],
        mode: str,
    ) -> None:
        self.atom_depths = tuple(atom_depths)
        self.num_variables = 1 + max(
            depth for depths in atom_depths for depth in depths
        )
        self.mode = mode
        self.bundles = tuple(bundles)
        self.lines: List[str] = []
        # Participants per depth: (atom, level) pairs in atom order.
        self.participants: List[List[Tuple[int, int]]] = [
            [] for _ in range(self.num_variables)
        ]
        for atom, depths in enumerate(self.atom_depths):
            for level, depth in enumerate(depths):
                self.participants[depth].append((atom, level))
        # Compile-time knowledge of which numpy views exist, per (atom, level).
        self.has_view: Dict[Tuple[int, int], bool] = {}
        for atom, depths in enumerate(self.atom_depths):
            bundle = self.bundles[atom]
            offset = 0
            for level in range(len(depths)):
                self.has_view[(atom, level)] = bundle[offset + 1] is not None
                offset += 4 if level + 1 < len(depths) else 2
        #: Hoisted structures keyed by the depth whose loop body builds
        #: them (``-1`` = prologue, cached across calls on the driver).
        self.hoist_builds: Dict[int, List[Tuple[str, str]]] = {}
        #: Depths whose key must be bound to a local even in count mode
        #: (CLFTJ adhesion keys are built from them); empty for plain LFTJ.
        self.key_depths: frozenset = frozenset()
        #: One-shot flag: the next entry record was already emitted by a
        #: cache-probe preamble (the interpreter records the recursive call
        #: *before* consulting the cache, so the probe owns that record).
        self._skip_entry_record = False
        self._plan_leaf_sets()
        self._plan_interior()

    def bind_depth(self, atom: int, level: int) -> int:
        """The depth whose loop body binds this participant's run.

        Level 0 runs are bound in the prologue (depth ``-1``); deeper runs
        bind where their parent level's position is assigned.
        """
        return self.atom_depths[atom][level - 1] if level >= 1 else -1

    def _plan_leaf_sets(self) -> None:
        """Plan the loop-invariant set hoist for the deepest count.

        A deepest-level run whose parent key binds at an *outer* depth is
        constant across the innermost loop, so counting its intersection
        with the varying runs by a per-iteration merge re-scans it every
        time.  Instead, build a ``set`` of each invariant run right where
        it binds, chain-intersect the invariant sets (still outside the
        innermost loop), and reduce the leaf count to one C-level
        ``set.intersection`` over the varying run only.  This changes how
        the match count ``m`` is computed, never its value — and the
        recorded costs depend only on run spans, which are untouched — so
        counter parity with the interpreter is preserved.
        """
        self.leaf_set_name: Optional[str] = None
        self.leaf_varying: List[Tuple[int, int]] = []
        deepest = self.num_variables - 1
        if self.mode != "count" or deepest < 1:
            return
        participants = self.participants[deepest]
        if len(participants) < 2:
            return
        invariant = sorted(
            (pair for pair in participants if self.bind_depth(*pair) < deepest - 1),
            key=lambda pair: self.bind_depth(*pair),
        )
        if not invariant:
            return
        self.leaf_varying = [
            pair for pair in participants if self.bind_depth(*pair) == deepest - 1
        ]
        previous = None
        for index, (atom, level) in enumerate(invariant):
            name = f"sl{index}"
            run_slice = f"K{atom}_{level}[lo{atom}_{level}:hi{atom}_{level}]"
            if previous is None:
                expression = f"set({run_slice})"
            else:
                expression = f"{previous}.intersection({run_slice})"
            self.hoist_builds.setdefault(self.bind_depth(atom, level), []).append(
                (name, expression)
            )
            previous = name
        self.leaf_set_name = previous

    def _plan_interior(self) -> None:
        """Plan driver-walk specializations for interior intersections.

        The same invariance argument as :meth:`_plan_leaf_sets`, applied to
        interior depths — with the twist that descending participants must
        also yield *positions*.  When exactly one participant's run was
        bound in the immediately enclosing loop (the *driver* — a child run,
        adjacency-sized by construction) and every other run bound earlier,
        the k-way merge collapses into a walk of the driver run gated by
        hoisted C-level lookups: a ``set`` per invariant participant that
        only filters, a position ``dict`` per invariant participant the walk
        descends through.  Keys come out in driver order, which is sorted —
        the same order the merge would produce.  Recorded costs again depend
        only on spans, so counter parity is preserved.
        """
        self.interior_plan: Dict[int, Dict[str, object]] = {}
        for depth in range(1, self.num_variables - 1):
            participants = self.participants[depth]
            if len(participants) < 2:
                continue
            latest = max(self.bind_depth(*pair) for pair in participants)
            drivers = [
                pair for pair in participants if self.bind_depth(*pair) == latest
            ]
            if len(drivers) != 1:
                continue
            filters = [pair for pair in participants if pair != drivers[0]]
            for atom, level in filters:
                bind = self.bind_depth(atom, level)
                if self.needs_positions(atom, level):
                    build = (
                        f"fd{atom}_{level}",
                        f"{{K{atom}_{level}[i]: i for i in "
                        f"range(lo{atom}_{level}, hi{atom}_{level})}}",
                    )
                else:
                    build = (
                        f"fs{atom}_{level}",
                        f"set(K{atom}_{level}"
                        f"[lo{atom}_{level}:hi{atom}_{level}])",
                    )
                self.hoist_builds.setdefault(bind, []).append(build)
            self.interior_plan[depth] = {
                "driver": drivers[0],
                "filters": filters,
            }

    # ------------------------------------------------------------- utilities
    def emit(self, indent: int, text: str) -> None:
        self.lines.append("    " * indent + text)

    def run_expr(self, atom: int, level: int) -> str:
        return (
            f"(K{atom}_{level}, V{atom}_{level}, "
            f"lo{atom}_{level}, hi{atom}_{level})"
        )

    def runs_expr(self, participants: Sequence[Tuple[int, int]]) -> str:
        inner = ", ".join(self.run_expr(atom, level) for atom, level in participants)
        if len(participants) == 1:
            inner += ","
        return f"({inner})"

    def span_expr(self, participants: Sequence[Tuple[int, int]]) -> str:
        return " + ".join(
            f"(hi{atom}_{level} - lo{atom}_{level})" for atom, level in participants
        )

    def needs_positions(self, atom: int, level: int) -> bool:
        """Does the walk descend through this participant (deeper level exists)?"""
        return level + 1 < len(self.atom_depths[atom])

    def emit_deadline_check(self, indent: int) -> None:
        """One counter-gated deadline check inside a loop body."""
        self.emit(indent, "if _dl_at is not None:")
        self.emit(indent + 1, "_dlt += 1")
        self.emit(indent + 1, f"if _dlt >= {COMPILED_DEADLINE_STRIDE}:")
        self.emit(indent + 2, "_dlt = 0")
        self.emit(indent + 2, "if _monotonic() >= _dl_at:")
        self.emit(indent + 3, "raise _TimeoutError(deadline.timeout)")

    # ------------------------------------------------------------ generation
    def generate(self) -> str:
        name = "_count" if self.mode == "count" else "_evaluate"
        self.emit(0, f"def {name}(columns, counter, lo=None, hi=None, deadline=None,")
        self.emit(
            0,
            "           _run_intersect=_run_intersect, _run_count=_run_count,",
        )
        self.emit(
            0,
            "           _run_keys=_run_keys, _pair_count=_pair_count, "
            "_np=_np, _bisect=_bisect, _hoist={}):",
        )
        self.prologue()
        self.emit_depth(0, 1)
        self.epilogue()
        return "\n".join(self.lines) + "\n"

    def prologue(self) -> None:
        for atom, depths in enumerate(self.atom_depths):
            names: List[str] = []
            for level in range(len(depths)):
                names.append(f"K{atom}_{level}")
                names.append(f"V{atom}_{level}")
                if level + 1 < len(depths):
                    names.append(f"B{atom}_{level}")
                    names.append(f"E{atom}_{level}")
            target = ", ".join(names)
            if len(names) == 1:
                target += ","
            self.emit(1, f"({target}) = columns[{atom}]")
        self.emit(1, "c_acc = 0; c_seek = 0; c_open = 0; c_rec = 1; c_res = 0")
        # Cooperative deadline: resolve the instant once, check already
        # expired deadlines immediately (so tiny inputs still time out),
        # then re-check once per stride of outer-loop iterations.  The
        # check is counter-neutral — compiled/interpreted counter parity
        # holds with and without a deadline.
        self.emit(1, "_dl_at = None if deadline is None else deadline.at")
        self.emit(1, "_dlt = 0")
        self.emit(1, "if _dl_at is not None and _monotonic() >= _dl_at:")
        self.emit(2, "raise _TimeoutError(deadline.timeout)")
        if self.mode == "count":
            self.emit(1, "total = 0")
        # Root runs of every atom are loop invariants of the whole function;
        # lengths are compile-time constants of the captured columns.
        for atom in range(len(self.atom_depths)):
            self.emit(
                1,
                f"lo{atom}_0 = 0; hi{atom}_0 = {len(self.bundles[atom][0])}",
            )
        # The shard range restricts exactly the depth-0 intersection, like
        # BoundedTrieIterator does on the interpreted parallel path.
        clamped = self.participants[0]
        self.emit(1, "if lo is not None:")
        for atom, _level in clamped:
            self.emit(2, f"lo{atom}_0 = _bisect(K{atom}_0, lo, lo{atom}_0, hi{atom}_0)")
        self.emit(1, "if hi is not None:")
        for atom, _level in clamped:
            self.emit(2, f"hi{atom}_0 = _bisect(K{atom}_0, hi, lo{atom}_0, hi{atom}_0)")
        # Prologue hoists derive only from the captured (immutable) columns,
        # so they are memoised on the function itself: every shard of a
        # plftj execution reuses them instead of rebuilding per call.
        for name, expression in self.hoist_builds.get(-1, ()):
            self.emit(1, f"{name} = _hoist.get({name!r})")
            self.emit(1, f"if {name} is None:")
            self.emit(2, f"{name} = {expression}")
            self.emit(2, f"_hoist[{name!r}] = {name}")

    def epilogue(self) -> None:
        self.emit(1, "counter.trie_accesses += c_acc")
        self.emit(1, "counter.trie_seeks += c_seek")
        self.emit(1, "counter.trie_opens += c_open")
        self.emit(1, "counter.recursive_calls += c_rec")
        self.emit(1, "counter.results_emitted += c_res")
        if self.mode == "count":
            self.emit(1, "return total")

    def emit_depth(self, depth: int, indent: int) -> None:
        if depth + 1 == self.num_variables:
            if self.mode == "count":
                self.emit_deepest_count(depth, indent)
            else:
                self.emit_deepest_evaluate(depth, indent)
            return
        self.emit_interior(depth, indent)

    def emit_interior(self, depth: int, indent: int) -> None:
        participants = self.participants[depth]
        count = len(participants)
        self.emit(indent, f"# depth {depth}: interior intersection")
        self.emit_entry_record(indent, depth)
        self.emit(indent, f"c_acc += {count}; c_open += {count}")
        self.emit(indent, f"st = {self.span_expr(participants)}")
        self.emit(indent, f"c_acc += st if st > 1 else 1; c_seek += {count}")
        plan = self.interior_plan.get(depth)
        if plan is not None:
            self.emit_interior_walk(depth, indent, plan)
            self.emit(indent, f"c_acc += {count}")
            return
        need = tuple(
            self.needs_positions(atom, level) for atom, level in participants
        )
        targets = ", ".join(
            f"ps{depth}_{atom}" if needed else "_unused"
            for (atom, _level), needed in zip(participants, need)
        )
        if count == 1:
            targets += ","
        need_literal = (
            "(" + ", ".join(str(flag) for flag in need)
            + ("," if count == 1 else "") + ")"
        )
        self.emit(
            indent,
            f"ks{depth}, ({targets}) = _run_intersect("
            f"{self.runs_expr(participants)}, {need_literal})",
        )
        self.emit(indent, f"for i{depth} in range(len(ks{depth})):")
        body = indent + 1
        self.emit_deadline_check(body)
        if self.mode == "evaluate" or depth in self.key_depths:
            self.emit(body, f"k{depth} = ks{depth}[i{depth}]")
        for atom, level in participants:
            if self.needs_positions(atom, level):
                self.emit(body, f"p{atom}_{level} = ps{depth}_{atom}[i{depth}]")
        self.emit_body_hoists(depth, body)
        self.emit_depth(depth + 1, body)
        self.emit_post_recursion(depth, body)
        self.emit(indent, f"c_acc += {count}")

    def emit_body_hoists(self, depth: int, body: int) -> None:
        # Hoisted child runs: every run whose parent key was just bound here
        # is computed now — including runs only consumed several loops
        # deeper, which the interpreter would re-gather per iteration.
        for atom, depths in enumerate(self.atom_depths):
            for level in range(1, len(depths)):
                if depths[level - 1] == depth:
                    parent = level - 1
                    self.emit(
                        body,
                        f"lo{atom}_{level} = B{atom}_{parent}[p{atom}_{parent}]; "
                        f"hi{atom}_{level} = E{atom}_{parent}[p{atom}_{parent}]",
                    )
        for name, expression in self.hoist_builds.get(depth, ()):
            self.emit(body, f"{name} = {expression}")

    def emit_interior_walk(
        self, depth: int, indent: int, plan: Dict[str, object]
    ) -> None:
        """The specialized interior: walk the driver run, gate on hoists.

        Replaces the k-way merge where exactly one run was bound by the
        enclosing loop — each driver key passes through C-level set/dict
        probes of the invariant runs, and positions for descending
        participants come from the hoisted dicts instead of merge output.
        """
        atom, level = plan["driver"]
        self.emit(
            indent,
            f"for i{depth} in range(lo{atom}_{level}, hi{atom}_{level}):",
        )
        body = indent + 1
        self.emit_deadline_check(body)
        self.emit(body, f"k{depth} = K{atom}_{level}[i{depth}]")
        for other, other_level in plan["filters"]:
            if self.needs_positions(other, other_level):
                self.emit(
                    body,
                    f"p{other}_{other_level} = "
                    f"fd{other}_{other_level}.get(k{depth})",
                )
                self.emit(body, f"if p{other}_{other_level} is None:")
                self.emit(body + 1, "continue")
            else:
                self.emit(body, f"if k{depth} not in fs{other}_{other_level}:")
                self.emit(body + 1, "continue")
        if self.needs_positions(atom, level):
            self.emit(body, f"p{atom}_{level} = i{depth}")
        self.emit_body_hoists(depth, body)
        self.emit_depth(depth + 1, body)
        self.emit_post_recursion(depth, body)

    def emit_leaf_count(
        self, participants: Sequence[Tuple[int, int]], indent: int
    ) -> None:
        """Bind ``m`` via the invariant-set plan when one exists."""
        if self.leaf_set_name is None:
            self.emit_count_of_runs(participants, indent)
            return
        final = self.leaf_set_name
        varying = self.leaf_varying
        if not varying:
            self.emit(indent, f"m = len({final})")
        elif len(varying) == 1:
            atom, level = varying[0]
            self.emit(
                indent,
                f"m = len({final}.intersection("
                f"K{atom}_{level}[lo{atom}_{level}:hi{atom}_{level}]))",
            )
        else:
            self.emit(
                indent,
                f"m = len({final}.intersection("
                f"_run_keys({self.runs_expr(varying)})))",
            )

    def emit_count_of_runs(
        self, participants: Sequence[Tuple[int, int]], indent: int
    ) -> None:
        """Bind ``m`` to the intersection size of the participants' runs.

        Mirrors ``_count_common``: inline span checks and the two-run
        numpy/two-pointer crossover; three or more runs go through the
        shared ``run_count`` kernel.
        """
        count = len(participants)
        if count == 1:
            atom, level = participants[0]
            self.emit(indent, f"m = hi{atom}_{level} - lo{atom}_{level}")
            return
        if count == 2:
            (a, al), (b, bl) = participants
            self.emit(indent, f"sa = hi{a}_{al} - lo{a}_{al}")
            self.emit(indent, f"sb = hi{b}_{bl} - lo{b}_{bl}")
            self.emit(indent, "if sa and sb:")
            use_numpy = (
                numpy is not None
                and self.has_view[(a, al)]
                and self.has_view[(b, bl)]
            )
            if use_numpy:
                self.emit(indent + 1, f"if sa + sb >= {leapfrog.KERNEL_CROSSOVER}:")
                self.emit(
                    indent + 2,
                    f"m = int(_np.intersect1d(V{a}_{al}[lo{a}_{al}:hi{a}_{al}], "
                    f"V{b}_{bl}[lo{b}_{bl}:hi{b}_{bl}], assume_unique=True).size)",
                )
                self.emit(indent + 1, "else:")
                self.emit(
                    indent + 2,
                    f"m = _pair_count(K{a}_{al}, lo{a}_{al}, hi{a}_{al}, "
                    f"K{b}_{bl}, lo{b}_{bl}, hi{b}_{bl})",
                )
            else:
                self.emit(
                    indent + 1,
                    f"m = _pair_count(K{a}_{al}, lo{a}_{al}, hi{a}_{al}, "
                    f"K{b}_{bl}, lo{b}_{bl}, hi{b}_{bl})",
                )
            self.emit(indent, "else:")
            self.emit(indent + 1, "m = 0")
            return
        self.emit(indent, f"m = _run_count({self.runs_expr(participants)})")

    def emit_deepest_count(self, depth: int, indent: int) -> None:
        participants = self.participants[depth]
        count = len(participants)
        fused = all(level >= 1 for _atom, level in participants)
        if fused:
            # The interpreter's fused leaf: one stateless child intersection
            # replaces the whole open/intersect/up cycle, charged with the
            # costs of the operations it elides (and the recursive call the
            # interior inline would have made).
            self.emit(indent, f"# depth {depth}: fused leaf count")
            self.emit(indent, f"st = {self.span_expr(participants)}")
            if count == 2:
                self.emit(indent, "c_acc += (st if st > 1 else 1) + 4")
            else:
                self.emit(indent, f"c_acc += (st if st > 1 else 1) + {2 * count}")
            self.emit(indent, f"c_seek += {count}; c_open += {count}")
            self.emit_leaf_count(participants, indent)
            self.emit_leaf_tally(indent, fused=True)
            return
        # Some participant first appears at the deepest depth: the fused
        # child read is unavailable and the interpreter recurses for real.
        self.emit(indent, f"# depth {depth}: leaf count (unfused)")
        self.emit_entry_record(indent, depth)
        self.emit(indent, f"c_acc += {count}; c_open += {count}")
        self.emit(indent, f"st = {self.span_expr(participants)}")
        self.emit(indent, f"c_acc += st if st > 1 else 1; c_seek += {count}")
        self.emit_leaf_count(participants, indent)
        self.emit_leaf_tally(indent, fused=False)
        self.emit(indent, f"c_acc += {count}")

    # ------------------------------------------------- subclass hook points
    def emit_entry_record(self, indent: int, depth: int) -> None:
        """The recursive-call record at a depth's entry (elided at depth 0).

        A probe preamble that already recorded the call (the interpreter
        records *before* consulting the cache) sets ``_skip_entry_record``
        so the record is not double-counted.
        """
        if depth <= 0:
            return
        if self._skip_entry_record:
            self._skip_entry_record = False
            return
        self.emit(indent, "c_rec += 1")

    def emit_leaf_tally(self, indent: int, fused: bool) -> None:
        """The deepest level's counter/total arithmetic for ``m`` matches.

        The fused variant also charges the recursive call the interior
        inline elided (``1 + m`` vs ``m``) — exactly the interpreter's
        fused-kernel bookkeeping.
        """
        if fused:
            self.emit(indent, "c_rec += 1 + m; c_res += m; total += m")
        else:
            self.emit(indent, "c_rec += m; c_res += m; total += m")

    def emit_post_recursion(self, depth: int, body: int) -> None:
        """Hook after each interior iteration's recursion (no-op for LFTJ)."""

    def emit_deepest_evaluate(self, depth: int, indent: int) -> None:
        participants = self.participants[depth]
        count = len(participants)
        self.emit(indent, f"# depth {depth}: deepest keys, one row per match")
        if depth > 0:
            self.emit(indent, "c_rec += 1")
        self.emit(indent, f"c_acc += {count}; c_open += {count}")
        self.emit(indent, f"st = {self.span_expr(participants)}")
        self.emit(indent, f"c_acc += st if st > 1 else 1; c_seek += {count}")
        self.emit(
            indent, f"ks{depth} = _run_keys({self.runs_expr(participants)})"
        )
        self.emit(indent, f"for k{depth} in ks{depth}:")
        self.emit_deadline_check(indent + 1)
        row = ", ".join(f"k{inner}" for inner in range(self.num_variables))
        if self.num_variables == 1:
            row += ","
        self.emit(indent + 1, "c_rec += 1; c_res += 1")
        self.emit(indent + 1, f"yield ({row})")
        self.emit(indent, f"c_acc += {count}")


def generate_source(
    atom_depths: Sequence[Tuple[int, ...]],
    bundles: Sequence[Tuple[object, ...]],
    mode: str,
) -> str:
    """Generate the specialized driver source for one mode."""
    return _Codegen(atom_depths, bundles, mode).generate()


def _compile_function(
    source: str, name: str, label: str, extra: Optional[Dict[str, object]] = None
) -> Callable:
    namespace = {
        "_run_intersect": run_intersect,
        "_run_count": run_count,
        "_run_keys": run_keys,
        "_pair_count": _pair_intersection_count,
        "_np": numpy,
        "_bisect": bisect_left,
        "_monotonic": time.monotonic,
        "_TimeoutError": QueryTimeoutError,
    }
    if extra:
        namespace.update(extra)
    fault_point("compiler.exec")
    code = compile(source, f"<compiled-driver:{label}>", "exec")
    exec(code, namespace)
    return namespace[name]


def compile_driver(
    query: ConjunctiveQuery,
    database: Database,
    variable_order: Sequence[Variable],
    atom_variables: Sequence[Tuple[Variable, ...]],
    pure_tries: Sequence[TrieIndex],
    key: Tuple[object, ...],
) -> CompiledDriver:
    """Generate, ``exec``-compile and wrap both driver variants."""
    depth_of = {variable: depth for depth, variable in enumerate(variable_order)}
    atom_depths = tuple(
        tuple(depth_of[variable] for variable in ordered)
        for ordered in atom_variables
    )
    bundles = tuple(_atom_bundle(base) for base in pure_tries)
    sources = {
        mode: generate_source(atom_depths, bundles, mode)
        for mode in ("count", "evaluate")
    }
    functions = {
        "count": _compile_function(
            sources["count"], "_count", f"{query.name}:count"
        ),
        "evaluate": _compile_function(
            sources["evaluate"], "_evaluate", f"{query.name}:evaluate"
        ),
    }
    return CompiledDriver(
        key=key,
        query_name=query.name,
        variable_names=tuple(variable.name for variable in variable_order),
        relation_versions=database.relation_versions(query.relation_names),
        crossover=leapfrog.KERNEL_CROSSOVER,
        _columns=bundles,
        _sources=sources,
        _functions=functions,
    )


# --------------------------------------------------------------------------
# CLFTJ code generation: the cached trie join, unrolled per decomposition.
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class _ClftjNodeShape:
    """One decomposition node's depth geometry under a compatible order."""

    node: int
    root: bool
    entry_depth: int
    last_own: int
    subtree_last: int
    adhesion_depths: Tuple[int, ...]
    children: Tuple[int, ...]


def _clftj_shapes(
    decomposition: TreeDecomposition, variable_order: Sequence[Variable]
) -> Tuple[Dict[int, _ClftjNodeShape], Tuple[int, ...]]:
    """Depth-space shapes per node, plus the owner of every depth.

    Strong compatibility makes every field well-defined straight-line data:
    each node's own depths are contiguous, its subtree occupies the
    contiguous block ``[entry_depth, subtree_last]``, and its adhesion
    depths (sorted by depth, the interpreter's key order) all precede its
    entry depth.
    """
    depth_of = {variable: depth for depth, variable in enumerate(variable_order)}
    shapes: Dict[int, _ClftjNodeShape] = {}
    owner_at_depth = tuple(
        decomposition.owner(variable) for variable in variable_order
    )
    for node in decomposition.preorder():
        own_depths = sorted(
            depth_of[variable]
            for variable in decomposition.owned_variables(node)
        )
        subtree_last = max(
            depth_of[variable]
            for variable in decomposition.subtree_variables(node)
        )
        adhesion = sorted(
            depth_of[variable] for variable in decomposition.adhesion(node)
        )
        shapes[node] = _ClftjNodeShape(
            node=node,
            root=decomposition.parent(node) is None,
            entry_depth=own_depths[0] if own_depths else -1,
            last_own=own_depths[-1] if own_depths else -1,
            subtree_last=subtree_last,
            adhesion_depths=tuple(adhesion),
            children=tuple(decomposition.children(node)),
        )
    return shapes, owner_at_depth


class _ClftjCodegen(_Codegen):
    """Emit the CLFTJ count driver: LFTJ loops + inlined probe/store sites.

    Per probed node (entered at depth > 0 — entered-at-0 nodes are never
    consulted, Figure 2's ``depth > 0`` guard), the node's entry depth gets
    a straight-line preamble: build the adhesion key tuple from the already
    bound ``k<depth>`` locals, probe the cache; on a hit multiply the
    running factor by the cached count and jump the emission to the
    continuation depth ``subtree_last + 1`` (always another node's entry
    depth, or the base case); on a miss run the ordinary loops with a
    per-node intermediate accumulator ``im<node>`` and offer it to the
    policy/cache on the way out.  The accumulator arithmetic replicates the
    interpreter's ``_intrmd`` dict exactly — including its
    persist-across-iterations staleness, since locals behave the same way —
    and every counter charge lands where the interpreter lands it, so
    compiled and interpreted CLFTJ agree on totals *and* on the full
    operation-counter vector.
    """

    def __init__(
        self,
        atom_depths: Sequence[Tuple[int, ...]],
        bundles: Sequence[Tuple[object, ...]],
        shapes: Dict[int, _ClftjNodeShape],
        owner_at_depth: Tuple[int, ...],
    ) -> None:
        self.shapes = shapes
        self.owner_at_depth = owner_at_depth
        super().__init__(atom_depths, bundles, "count")
        self.probed: Tuple[_ClftjNodeShape, ...] = tuple(
            shapes[node]
            for node in dict.fromkeys(owner_at_depth)
            if shapes[node].entry_depth > 0
        )
        self.tracked_nodes = {shape.node for shape in self.probed}
        self.shape_at_entry = {shape.entry_depth: shape for shape in self.probed}
        self.key_depths = frozenset(
            depth for shape in self.probed for depth in shape.adhesion_depths
        )
        #: The running multiplication factor as a source expression;
        #: rebound to a hit-branch local while emitting continuations.
        self.factor = "1"
        self._probe_serial = 0
        self._factor_serial = 0

    # ------------------------------------------------------------ generation
    def generate(self) -> str:
        self.emit(
            0,
            "def _count(columns, counter, cache, policy, "
            "lo=None, hi=None, deadline=None,",
        )
        self.emit(
            0,
            "           _run_intersect=_run_intersect, _run_count=_run_count,",
        )
        self.emit(
            0,
            "           _run_keys=_run_keys, _pair_count=_pair_count, "
            "_np=_np, _bisect=_bisect, _hoist={}):",
        )
        self.prologue()
        self.emit_depth(0, 1)
        self.epilogue()
        return "\n".join(self.lines) + "\n"

    def prologue(self) -> None:
        super().prologue()
        self.emit(
            1, "_cget = cache.get; _cput = cache.put; _should = policy.should_cache"
        )
        self.emit(1, "c_mat = 0")
        if self.probed:
            self.emit(
                1, "; ".join(f"im{shape.node} = 0" for shape in self.probed)
            )

    def epilogue(self) -> None:
        self.emit(1, "counter.tuples_materialized += c_mat")
        super().epilogue()

    def emit_depth(self, depth: int, indent: int) -> None:
        if depth == self.num_variables:
            # The base case a cache hit's continuation can land on: one
            # recursive call, ``factor`` result units.
            if self.factor == "1":
                self.emit(indent, "c_rec += 1; c_res += 1; total += 1")
            else:
                self.emit(
                    indent,
                    f"c_rec += 1; c_res += {self.factor}; "
                    f"total += {self.factor}",
                )
            return
        shape = self.shape_at_entry.get(depth)
        if shape is not None:
            self.emit_probe(depth, indent, shape)
            return
        super().emit_depth(depth, indent)

    def emit_probe(self, depth: int, indent: int, shape: _ClftjNodeShape) -> None:
        """The inlined cache consult at one probed node's entry depth."""
        pid = self._probe_serial
        self._probe_serial += 1
        node = shape.node
        if not shape.adhesion_depths:
            key = "()"
        elif len(shape.adhesion_depths) == 1:
            key = f"(k{shape.adhesion_depths[0]},)"
        else:
            key = "(" + ", ".join(f"k{d}" for d in shape.adhesion_depths) + ")"
        self.emit(indent, f"# node {node}: adhesion-cache probe")
        # The interpreter records the recursive call before consulting.
        self.emit(indent, "c_rec += 1")
        self.emit(indent, f"ak{pid} = {key}")
        self.emit(indent, f"cv{pid} = _cget({node}, ak{pid})")
        self.emit(indent, f"if cv{pid} is None:")
        body = indent + 1
        self.emit(body, f"im{node} = 0")
        self._skip_entry_record = True
        super().emit_depth(depth, body)
        self._skip_entry_record = False
        self.emit(body, f"if _should({node}, _AV{node}, ak{pid}, im{node}):")
        self.emit(body + 1, f"if _cput({node}, ak{pid}, im{node}):")
        self.emit(body + 2, "c_mat += 1")
        self.emit(indent, "else:")
        self.emit(body, f"im{node} = cv{pid}")
        fid = self._factor_serial
        self._factor_serial += 1
        if self.factor == "1":
            self.emit(body, f"f{fid} = cv{pid}")
        else:
            self.emit(body, f"f{fid} = {self.factor} * cv{pid}")
        saved = self.factor
        self.factor = f"f{fid}"
        self.emit_depth(shape.subtree_last + 1, body)
        self.factor = saved

    # ------------------------------------------------------------ hook impls
    def emit_leaf_tally(self, indent: int, fused: bool) -> None:
        if fused and self._skip_entry_record:
            # The probe preamble already recorded the entry call the fused
            # kernel folds into its ``1 + m``.
            self._skip_entry_record = False
            fused = False
        rec = "c_rec += 1 + m" if fused else "c_rec += m"
        if self.factor == "1":
            self.emit(indent, f"{rec}; c_res += m; total += m")
        else:
            self.emit(indent, f"fm = {self.factor} * m")
            self.emit(indent, f"{rec}; c_res += fm; total += fm")
        node = self.owner_at_depth[self.num_variables - 1]
        if node in self.tracked_nodes:
            # The deepest owner is always a decomposition leaf, so the
            # interpreter's ``matches * children_product`` is just ``m``.
            self.emit(indent, f"im{node} += m")

    def emit_post_recursion(self, depth: int, body: int) -> None:
        node = self.owner_at_depth[depth]
        shape = self.shapes[node]
        if node not in self.tracked_nodes or depth != shape.last_own:
            return
        if shape.children:
            product = " * ".join(f"im{child}" for child in shape.children)
            self.emit(body, f"im{node} += {product}")
        else:
            self.emit(body, f"im{node} += 1")


def generate_clftj_source(
    atom_depths: Sequence[Tuple[int, ...]],
    bundles: Sequence[Tuple[object, ...]],
    shapes: Dict[int, _ClftjNodeShape],
    owner_at_depth: Tuple[int, ...],
) -> str:
    """Generate the specialized CLFTJ count-driver source."""
    return _ClftjCodegen(atom_depths, bundles, shapes, owner_at_depth).generate()


@dataclass
class CompiledClftjDriver:
    """One compiled CLFTJ count driver over captured trie columns.

    Unlike :class:`CompiledDriver` the cache and policy stay *runtime*
    parameters: one driver serves every adhesion cache (serial, prepared,
    per-worker) of its (query shape, decomposition, order) key.
    """

    key: Tuple[object, ...]
    query_name: str
    variable_names: Tuple[str, ...]
    relation_versions: Dict[str, int]
    crossover: int
    probed_nodes: Tuple[int, ...]
    _columns: Tuple[Tuple[object, ...], ...]
    _sources: Dict[str, str]
    _functions: Dict[str, Callable]

    def count(
        self,
        counter: OperationCounter,
        cache: AdhesionCache,
        policy: CachePolicy,
        lo=None,
        hi=None,
        deadline=None,
    ) -> int:
        """Run the generated cached count loop over codes in ``[lo, hi)``."""
        return self._functions["count"](
            self._columns, counter, cache, policy, lo, hi, deadline
        )

    def debug_source(self, mode: str = "count") -> str:
        """The generated Python source (CLFTJ compiles the count mode only)."""
        if mode not in self._sources:
            raise ValueError(
                f"unknown driver mode {mode!r}; choose one of "
                f"{tuple(self._sources)}"
            )
        return self._sources[mode]

    def matches(self, database: Database) -> bool:
        """Is this driver still current for ``database``? (see CompiledDriver)"""
        return all(
            database.relation_version(name) == version
            for name, version in self.relation_versions.items()
        )


def compile_clftj_driver(
    query: ConjunctiveQuery,
    database: Database,
    decomposition: TreeDecomposition,
    variable_order: Sequence[Variable],
    atom_variables: Sequence[Tuple[Variable, ...]],
    pure_tries: Sequence[TrieIndex],
    key: Tuple[object, ...],
) -> CompiledClftjDriver:
    """Generate, ``exec``-compile and wrap the CLFTJ count driver.

    ``decomposition`` must already be contracted (the executor's) so the
    baked node ids line up with interpreted executors sharing the caches.
    """
    depth_of = {variable: depth for depth, variable in enumerate(variable_order)}
    atom_depths = tuple(
        tuple(depth_of[variable] for variable in ordered)
        for ordered in atom_variables
    )
    bundles = tuple(_atom_bundle(base) for base in pure_tries)
    shapes, owner_at_depth = _clftj_shapes(decomposition, variable_order)
    codegen = _ClftjCodegen(atom_depths, bundles, shapes, owner_at_depth)
    source = codegen.generate()
    # The policy protocol receives the adhesion *variables*; they are
    # compile-time constants of the plan, pre-bound per probed node.
    extra = {
        f"_AV{shape.node}": tuple(
            variable_order[depth] for depth in shape.adhesion_depths
        )
        for shape in codegen.probed
    }
    functions = {
        "count": _compile_function(
            source, "_count", f"{query.name}:clftj-count", extra
        )
    }
    return CompiledClftjDriver(
        key=key,
        query_name=query.name,
        variable_names=tuple(variable.name for variable in variable_order),
        relation_versions=database.relation_versions(query.relation_names),
        crossover=leapfrog.KERNEL_CROSSOVER,
        probed_nodes=tuple(shape.node for shape in codegen.probed),
        _columns=bundles,
        _sources={"count": source},
        _functions=functions,
    )


class CompiledCachedTrieJoin(_BoundedCachedLeapfrogTrieJoin):
    """CLFTJ executor that runs counts through a compiled driver when it can.

    Same two-phase protocol and fallback discipline as
    :class:`CompiledTrieJoin` — pending deltas run the inherited
    interpreted execution — plus two CLFTJ-specific rules:
    decompositions with more probed nodes than
    :data:`MAX_UNROLLED_CACHE_NODES` stay interpreted, and *evaluation*
    always runs interpreted (factorized-representation grafting is control
    flow the straight-line driver does not unroll; counting is where the
    paper's experiments live).  The driver is shared through the database's
    compiled cache under the decomposition-aware key, so serial runs,
    prepared queries and every pclftj morsel resolve to one compilation.
    """

    def __init__(
        self,
        query: ConjunctiveQuery,
        database: Database,
        decomposition: TreeDecomposition,
        variable_order: Optional[Sequence[Variable]] = None,
        policy: Optional[CachePolicy] = None,
        cache: Optional[AdhesionCache] = None,
        counter: Optional[OperationCounter] = None,
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
            lo=lo,
            hi=hi,
        )
        self._driver: Optional[CompiledClftjDriver] = None
        self._built = False
        self._compiled_reason: Optional[str] = None
        self._mode_reason: Optional[str] = None

    # -------------------------------------------------------------- compile
    def build(self) -> Optional[CompiledClftjDriver]:
        """Ensure a driver (or a fallback reason); idempotent."""
        if self._built:
            return self._driver
        self._built = True
        pure_tries = [_pure_main(trie) for trie in self._atom_tries]
        if any(base is None for base in pure_tries):
            self._compiled_reason = "unmerged deltas pending on an atom trie"
            return None
        probed = len(
            {self.decomposition.owner(variable) for variable in self.variable_order}
        ) - 1
        if probed > MAX_UNROLLED_CACHE_NODES:
            self._compiled_reason = (
                f"decomposition has {probed} probed nodes "
                f"(unroll ceiling is {MAX_UNROLLED_CACHE_NODES})"
            )
            return None
        key = driver_cache_key(self.query, self.variable_order, self.decomposition)
        try:
            self._driver = self.database.compiled_driver(
                key,
                self.query.relation_names,
                lambda: compile_clftj_driver(
                    self.query,
                    self.database,
                    self.decomposition,
                    self.variable_order,
                    self._atom_variables,
                    pure_tries,
                    key,
                ),
            )
        except Exception as error:  # degrade, never fail the query
            self._driver = None
            self._compiled_reason = f"compile failed: {error}"
        return self._driver

    @property
    def compiled(self) -> bool:
        """True when the next count() goes through a compiled driver."""
        return self.build() is not None

    def debug_source(self, mode: str = "count") -> Optional[str]:
        """Generated source for this query's driver (``None`` if interpreted)."""
        driver = self.build()
        return driver.debug_source(mode) if driver is not None else None

    # -------------------------------------------------------------- execute
    def count(self) -> int:
        driver = self.build()
        if driver is None:
            return super().count()
        self._mode_reason = None
        # The same per-execution cache/policy discipline as the interpreted
        # _prepare(): counts on the current counter, fresh policy state,
        # policy probes in code space.
        self.cache.bind_mode("count")
        self.cache.counter = self.counter
        self.policy.reset()
        self.policy.bind_space(self.database)
        lo, hi = self._range
        return driver.count(
            self.counter, self.cache, self.policy, lo, hi, self.deadline
        )

    def evaluate_coded(self):
        if self.build() is not None:
            self._mode_reason = (
                "evaluation runs interpreted (factorized-representation grafting)"
            )
        yield from super().evaluate_coded()

    # ------------------------------------------------------------- metadata
    def execution_metadata(self) -> Dict[str, object]:
        metadata = super().execution_metadata()
        compiled = (
            self._built and self._driver is not None and self._mode_reason is None
        )
        metadata["compiled"] = compiled
        reason = self._mode_reason or self._compiled_reason
        if self._built and not compiled and reason:
            metadata["compiled_reason"] = reason
        return metadata


class CompiledTrieJoin(_BoundedLeapfrogTrieJoin):
    """LFTJ executor that runs through a compiled driver when it can.

    The two-phase protocol: construction resolves tries exactly like the
    interpreted executor (so index caching and metadata behave
    identically); :meth:`build` then fetches-or-compiles the driver from
    the database's compiled cache.  Tries with pending deltas fall back to
    the inherited interpreted execution — the
    executor is then byte-for-byte the interpreted ``lftj`` (or its bounded
    shard variant when a ``[lo, hi)`` range is given).

    **Shared-driver handoff to morsel-parallel execution**: the cache key
    carries no range, so every morsel of a parallel query resolves to the
    *same* driver — one compilation per (query, order, physical state)
    regardless of how many ranges the scheduler runs, and fork-backend
    workers inherit the parent's already-built driver by copy-on-write
    (the parallel executor's ``build()`` runs before the pool forks or
    re-arms).  ``count()``/``evaluate_coded()`` also call :meth:`build`
    lazily, so a worker constructing an executor per morsel only ever
    cache-hits.
    """

    def __init__(
        self,
        query: ConjunctiveQuery,
        database: Database,
        variable_order: Optional[Sequence[Variable]] = None,
        counter: Optional[OperationCounter] = None,
        lo=None,
        hi=None,
    ) -> None:
        super().__init__(query, database, variable_order, counter, lo, hi)
        self._driver: Optional[CompiledDriver] = None
        self._built = False
        self._compiled_reason: Optional[str] = None

    # -------------------------------------------------------------- compile
    def build(self) -> Optional[CompiledDriver]:
        """Phase one of build/execute: ensure a driver (or a fallback reason).

        Idempotent; the engine calls it before the timed execute phase so
        compilation cost never pollutes measured runtimes (it is reported
        separately).  Returns the driver, or ``None`` with
        ``self._compiled_reason`` set when this execution runs interpreted.
        """
        if self._built:
            return self._driver
        self._built = True
        pure_tries = [_pure_main(trie) for trie in self._atom_tries]
        if any(base is None for base in pure_tries):
            self._compiled_reason = "unmerged deltas pending on an atom trie"
            return None
        key = driver_cache_key(self.query, self.variable_order)
        try:
            self._driver = self.database.compiled_driver(
                key,
                self.query.relation_names,
                lambda: compile_driver(
                    self.query,
                    self.database,
                    self.variable_order,
                    self._atom_variables,
                    pure_tries,
                    key,
                ),
            )
        except Exception as error:  # degrade, never fail the query
            self._driver = None
            self._compiled_reason = f"compile failed: {error}"
        return self._driver

    @property
    def compiled(self) -> bool:
        """True when execution goes through a compiled driver."""
        return self.build() is not None

    def debug_source(self, mode: str = "count") -> Optional[str]:
        """Generated source for this query's driver (``None`` if interpreted)."""
        driver = self.build()
        return driver.debug_source(mode) if driver is not None else None

    # -------------------------------------------------------------- execute
    def count(self) -> int:
        driver = self.build()
        if driver is None:
            return super().count()
        lo, hi = self._range
        total = driver.count(self.counter, lo, hi, self.deadline)
        self.counter.record_result(0)
        return total

    def evaluate_coded(self):
        driver = self.build()
        if driver is None:
            yield from super().evaluate_coded()
            return
        lo, hi = self._range
        yield from driver.evaluate(self.counter, lo, hi, self.deadline)

    # ------------------------------------------------------------- metadata
    def execution_metadata(self) -> Dict[str, object]:
        metadata = super().execution_metadata()
        metadata["compiled"] = self._built and self._driver is not None
        if self._built and self._driver is None and self._compiled_reason:
            metadata["compiled_reason"] = self._compiled_reason
        return metadata
