"""The unary leapfrog intersection, plus batched array-native kernels.

Given ``k`` trie iterators, all open at the same level and each positioned at
the start of a sorted sibling list, :class:`LeapfrogJoin` enumerates the keys
present in *all* of them, in increasing order, by rotating through the
iterators and seeking each to the current maximum (Veldhuizen's "leapfrog
join").  The amortised cost is within a log factor of the smallest list,
which is what gives LFTJ its worst-case-optimality.

Over dictionary-encoded tries the sibling lists are contiguous sorted *int*
runs inside flat columns, which admits a second execution strategy:
:func:`intersect_count` intersects whole runs block-at-a-time (numpy set
ops when available, a galloping two-pointer merge otherwise) instead of
rotating per key.  The trie-join algorithms use it at the deepest variable,
where no recursion hangs off the matched keys and only their number matters
— the single hottest loop of every count query.
"""

from __future__ import annotations

import os
from bisect import bisect_left
from typing import Iterator, List, Optional, Sequence

from repro.storage.dictionary import numpy
from repro.storage.trie import TrieIterator

_COLUMNAR_ITERATOR = TrieIterator


class LeapfrogJoin:
    """Intersect the current sibling lists of several open trie iterators."""

    def __init__(self, iterators: Sequence[TrieIterator]) -> None:
        if not iterators:
            raise ValueError("leapfrog join needs at least one iterator")
        self._iters: List[TrieIterator] = list(iterators)
        self.at_end = False
        self._position = 0
        self._key: Optional[object] = None
        self._init()

    # ----------------------------------------------------------------- setup
    def _init(self) -> None:
        iters = self._iters
        for iterator in iters:
            if iterator.at_end():
                self.at_end = True
                return
        # Order iterators by their current key so the rotation starts from a
        # consistent state; the overwhelmingly common arities skip the
        # O(k log k) sort — one comparison orders a pair, a singleton is
        # trivially ordered.
        count = len(iters)
        if count == 1:
            max_key = iters[0].key()
        elif count == 2:
            first_key = iters[0].key()
            second_key = iters[1].key()
            if second_key < first_key:
                iters[0], iters[1] = iters[1], iters[0]
                max_key = first_key
            else:
                max_key = second_key
        else:
            iters.sort(key=lambda iterator: iterator.key())
            max_key = iters[-1].key()
        self._position = 0
        self._search(max_key)

    def _search(self, max_key: object) -> None:
        """Advance iterators until all agree on a key or one is exhausted.

        ``max_key`` is the largest key currently pointed at (the caller just
        read it), threaded through the rotation locally so no iterator's
        ``key()`` is re-read once known.
        """
        iters = self._iters
        count = len(iters)
        position = self._position
        while True:
            iterator = iters[position]
            key = iterator.key()
            if key == max_key:
                self._position = position
                self._key = key
                return
            iterator.seek(max_key)
            if iterator.at_end():
                self._position = position
                self.at_end = True
                return
            max_key = iterator.key()
            position += 1
            if position == count:
                position = 0

    # ------------------------------------------------------------ navigation
    def key(self) -> object:
        """The current common key."""
        if self.at_end:
            raise RuntimeError("leapfrog join is at end; no current key")
        return self._key

    def next(self) -> None:
        """Advance to the next common key (possibly reaching the end)."""
        if self.at_end:
            raise RuntimeError("leapfrog join is already at end")
        iterator = self._iters[self._position]
        iterator.next()
        if iterator.at_end():
            self.at_end = True
            return
        max_key = iterator.key()
        self._position = (self._position + 1) % len(self._iters)
        self._search(max_key)

    def seek(self, value: object) -> None:
        """Advance to the least common key ``>= value``."""
        if self.at_end:
            raise RuntimeError("leapfrog join is already at end")
        iterator = self._iters[self._position]
        iterator.seek(value)
        if iterator.at_end():
            self.at_end = True
            return
        max_key = iterator.key()
        self._position = (self._position + 1) % len(self._iters)
        self._search(max_key)

    def __iter__(self) -> Iterator[object]:
        """Iterate over all common keys from the current position."""
        while not self.at_end:
            yield self.key()
            self.next()


def leapfrog_intersection(iterators: Sequence[TrieIterator]) -> List[object]:
    """Convenience helper: the full list of common keys (consumes the iterators)."""
    return list(LeapfrogJoin(iterators))


# --------------------------------------------------------------------------
# Batched kernels over encoded (dense-int) runs.
# --------------------------------------------------------------------------


def _pair_intersection_count(a, alo: int, ahi: int, b, blo: int, bhi: int) -> int:
    """Count common elements of two sorted int runs (galloping two-pointer)."""
    matches = 0
    i, j = alo, blo
    while i < ahi and j < bhi:
        x = a[i]
        y = b[j]
        if x == y:
            matches += 1
            i += 1
            j += 1
        elif x < y:
            i = bisect_left(a, y, i + 1, ahi)
        else:
            j = bisect_left(b, x, j + 1, bhi)
    return matches


def _pair_intersection(a, alo: int, ahi: int, b, blo: int, bhi: int) -> List[int]:
    """The common elements of two sorted int runs, as a fresh sorted list."""
    out: List[int] = []
    append = out.append
    i, j = alo, blo
    while i < ahi and j < bhi:
        x = a[i]
        y = b[j]
        if x == y:
            append(x)
            i += 1
            j += 1
        elif x < y:
            i = bisect_left(a, y, i + 1, ahi)
        else:
            j = bisect_left(b, x, j + 1, bhi)
    return out


def _kernel_crossover() -> int:
    """The numpy/two-pointer crossover, overridable via the environment.

    Total spanned elements below which the pure-Python galloping merge beats
    numpy's set ops.  The default of 256 was calibrated on the BENCH_4
    triangle workload (wiki-Vote / ego-Facebook adjacency runs): short runs
    lose more to numpy's fixed per-call overhead (slicing, concat, sort)
    than its C inner loop wins back; from a few hundred elements up the C
    path dominates (>20x at 8k-element runs).  Set ``REPRO_KERNEL_CROSSOVER``
    to re-tune for a different box without editing code; invalid values fall
    back to the calibrated default.
    """
    raw = os.environ.get("REPRO_KERNEL_CROSSOVER", "")
    try:
        value = int(raw)
    except ValueError:
        return 256
    return value if value >= 0 else 256


#: Total spanned elements at or above which intersections take the numpy
#: path.  See :func:`_kernel_crossover` for calibration; the compiled-driver
#: codegen reads this at compile time, so a monkeypatched value specializes
#: freshly generated drivers too.
KERNEL_CROSSOVER: int = _kernel_crossover()


def _fast_child_run(iterator):
    """Child run of one iterator, bypassing method dispatch when possible.

    For the dominant columnar iterator class this is
    :meth:`~repro.storage.trie.TrieIterator.child_run` flattened into plain
    attribute loads (keep the two in sync); every other iterator goes
    through its own ``child_run`` method (merged LSM cursors delegate at
    pure levels).  Returns ``None`` when no encoded child run exists.
    """
    if type(iterator) is _COLUMNAR_ITERATOR:
        depth = iterator._depth
        index = iterator._index
        if not index.encoded or depth == 0 or depth >= index.depth:
            return None
        level = depth - 1
        if iterator._ended[level]:
            return None
        position = iterator._pos[level]
        np_keys = iterator._np_keys
        return (
            iterator._keys[depth],
            np_keys[depth] if np_keys is not None else None,
            iterator._child_begin[level][position],
            iterator._child_end[level][position],
        )
    child_run = getattr(iterator, "child_run", None)
    return child_run() if child_run is not None else None


def _gather_runs(iterators: Sequence[object]):
    """Collect ``(keys, np_view, lo, hi)`` runs, or ``None`` if any iterator
    cannot expose an encoded int run (the caller then takes the generic
    per-key leapfrog path)."""
    runs = []
    span_total = 0
    for iterator in iterators:
        current_run = getattr(iterator, "current_run", None)
        if current_run is None:
            return None
        run = current_run()
        if run is None:
            return None
        runs.append(run)
        span_total += run[3] - run[2]
    return runs, span_total


def _smallest_first(runs) -> None:
    """Swap the smallest run to the front (later intersections are bounded
    by the first)."""
    best = 0
    best_span = runs[0][3] - runs[0][2]
    for index in range(1, len(runs)):
        span = runs[index][3] - runs[index][2]
        if span < best_span:
            best = index
            best_span = span
    if best:
        runs[0], runs[best] = runs[best], runs[0]


def _use_numpy(runs, span_total: int) -> bool:
    """Should this intersection take the vectorised path?"""
    return (
        numpy is not None
        and span_total >= KERNEL_CROSSOVER
        and all(run[1] is not None for run in runs)
    )


def _common_of_runs(runs, span_total: int):
    """Intersection of >= 2 gathered runs (the shared kernel core).

    Returns an ``int64`` ndarray on the vectorised path and a plain sorted
    list on the galloping pure-Python path; callers adapt (``.tolist()`` /
    ``len``/``.size``) as needed.  Reduction starts from the smallest run,
    which bounds every later intersection.
    """
    if _use_numpy(runs, span_total):
        order = sorted(range(len(runs)), key=lambda index: runs[index][3] - runs[index][2])
        first = runs[order[0]]
        common = first[1][first[2]:first[3]]
        for index in order[1:]:
            if common.size == 0:
                break
            _keys, view, vlo, vhi = runs[index]
            common = numpy.intersect1d(common, view[vlo:vhi], assume_unique=True)
        return common
    _smallest_first(runs)
    current = _pair_intersection(
        runs[0][0], runs[0][2], runs[0][3], runs[1][0], runs[1][2], runs[1][3]
    )
    for other, _view, olo, ohi in runs[2:]:
        if not current:
            break
        current = _pair_intersection(current, 0, len(current), other, olo, ohi)
    return current


def _count_common(runs, span_total: int) -> int:
    """Size of the intersection of gathered runs."""
    _smallest_first(runs)
    keys, _view, lo, hi = runs[0]
    if hi <= lo:
        return 0
    if len(runs) == 1:
        return hi - lo
    if len(runs) == 2 and not _use_numpy(runs, span_total):
        other, _v, blo, bhi = runs[1]
        return _pair_intersection_count(keys, lo, hi, other, blo, bhi)
    common = _common_of_runs(runs, span_total)
    size = getattr(common, "size", None)
    return int(size) if size is not None else len(common)


def intersect_count(iterators: Sequence[object], counter: Optional[object] = None) -> Optional[int]:
    """Count the keys common to every iterator's remaining run, batched.

    Applicable when every iterator exposes an encoded int run through
    ``current_run()`` (columnar iterators over dictionary-encoded tries, and
    merged LSM iterators at *pure* levels); returns ``None`` otherwise, and
    the caller falls back to the generic per-key :class:`LeapfrogJoin` loop.

    Large runs intersect via numpy set ops over zero-copy views; small runs
    (and the no-numpy build) take a galloping two-pointer merge.  Either way
    the iterators are left untouched — callers only ``up()`` afterwards,
    exactly as after draining a generic leapfrog.  The recorded cost model
    is implementation-independent (one batched seek per run, accesses =
    elements spanned), so instrumented results do not depend on whether
    numpy is installed.
    """
    gathered = _gather_runs(iterators)
    if gathered is None:
        return None
    runs, span_total = gathered
    if counter is not None:
        counter.record_trie(accesses=max(span_total, 1), seeks=len(runs))
    return _count_common(runs, span_total)


def intersect_child_count(iterators: Sequence[object], counter: Optional[object] = None) -> Optional[int]:
    """Count the common keys *one level below* the iterators, fused.

    The deepest level of a count query needs nothing from its matched keys
    but their number, so the whole open / intersect / up cycle per parent
    key collapses into one stateless read of each iterator's child slice
    (:meth:`~repro.storage.trie.TrieIterator.child_run`) — no iterator
    state is touched at all.  The recorded cost charges the intersection
    plus the opens/ups the fusion elides, keeping instrumented totals
    comparable with the unfused path.
    """
    if len(iterators) == 2:
        # The overwhelmingly common arity: read both child slices through
        # the flat helper (plain attribute loads for the dominant iterator
        # class, no getattr/bound-method dispatch) and intersect directly.
        first, second = iterators
        run_a = _fast_child_run(first)
        if run_a is None:
            return None
        run_b = _fast_child_run(second)
        if run_b is None:
            return None
        a_keys, a_view, alo, ahi = run_a
        b_keys, b_view, blo, bhi = run_b
        span_a = ahi - alo
        span_b = bhi - blo
        span_total = span_a + span_b
        if counter is not None:
            # Same abstract cost model as record_trie(accesses, seeks, opens)
            # — inlined attribute adds keep the hottest loop call-free.
            counter.trie_accesses += (span_total if span_total > 1 else 1) + 4
            counter.trie_seeks += 2
            counter.trie_opens += 2
        if span_a > span_b:
            a_keys, a_view, alo, ahi, b_keys, b_view, blo, bhi = (
                b_keys, b_view, blo, bhi, a_keys, a_view, alo, ahi,
            )
        if alo >= ahi:
            return 0
        if (
            numpy is not None
            and span_total >= KERNEL_CROSSOVER
            and a_view is not None
            and b_view is not None
        ):
            return int(
                numpy.intersect1d(
                    a_view[alo:ahi], b_view[blo:bhi], assume_unique=True
                ).size
            )
        return _pair_intersection_count(a_keys, alo, ahi, b_keys, blo, bhi)
    runs = []
    span_total = 0
    for iterator in iterators:
        child_run = getattr(iterator, "child_run", None)
        if child_run is None:
            return None
        run = child_run()
        if run is None:
            return None
        runs.append(run)
        span_total += run[3] - run[2]
    count = len(runs)
    if counter is not None:
        counter.record_trie(
            accesses=max(span_total, 1) + 2 * count, seeks=count, opens=count
        )
    return _count_common(runs, span_total)


def intersect_positions(iterators: Sequence[object], counter: Optional[object] = None):
    """Common keys of all runs *plus* each iterator's position per match.

    Returns ``(keys, positions)`` — ``positions[i][j]`` being the absolute
    index of ``keys[j]`` inside iterator ``i``'s current level — or ``None``
    when any iterator lacks an encoded run.  The interior-depth walkers use
    this to land every cursor with a trusted ``advance_to`` instead of a
    probing seek per key: the whole repositioning cost is paid once here, at
    block speed (vectorised ``searchsorted`` under numpy).
    """
    gathered = _gather_runs(iterators)
    if gathered is None:
        return None
    runs, span_total = gathered
    if counter is not None:
        counter.record_trie(accesses=max(span_total, 1), seeks=len(runs))
    return run_intersect(runs, (True,) * len(runs))


def intersect_keys(iterators: Sequence[object], counter: Optional[object] = None) -> Optional[List[int]]:
    """The sorted list of keys common to every iterator's remaining run.

    Batched companion of :func:`intersect_count` for the *interior* trie
    levels, where the join recurses per matched key and therefore needs the
    keys themselves: the caller walks the returned list, repositioning each
    iterator with a (monotone, galloping) ``seek`` before descending — all
    the non-matching keys in between are skipped at block speed without a
    single leapfrog rotation.  Returns ``None`` when any iterator lacks an
    encoded run; the iterators themselves are never moved here.
    """
    gathered = _gather_runs(iterators)
    if gathered is None:
        return None
    runs, span_total = gathered
    if counter is not None:
        counter.record_trie(accesses=max(span_total, 1), seeks=len(runs))
    return run_keys(runs)


# --------------------------------------------------------------------------
# Run-level kernels: the same cores as the iterator-level functions above,
# but over already-gathered ``(keys, np_view, lo, hi)`` run tuples.  The
# compiled drivers (:mod:`repro.engine.compiler`) read trie columns directly
# and call these, so the generated straight-line loops and the interpreted
# iterator walk share one set of intersection kernels.
# --------------------------------------------------------------------------


def run_count(runs) -> int:
    """Size of the intersection of run tuples (shared with ``intersect_count``)."""
    runs = list(runs)
    span_total = sum(run[3] - run[2] for run in runs)
    return _count_common(runs, span_total)


def run_keys(runs) -> List[int]:
    """Sorted common keys of run tuples (shared with ``intersect_keys``)."""
    runs = list(runs)
    span_total = sum(run[3] - run[2] for run in runs)
    _smallest_first(runs)
    keys, _view, lo, hi = runs[0]
    if hi <= lo:
        return []
    if len(runs) == 1:
        result = keys[lo:hi]
        return result.tolist() if hasattr(result, "tolist") else list(result)
    common = _common_of_runs(runs, span_total)
    return common.tolist() if hasattr(common, "tolist") else common


def run_intersect(runs, need):
    """Common keys of run tuples plus, per run, the matched positions.

    ``need[i]`` says whether caller wants positions for run ``i``; skipped
    runs get ``None`` (interior walkers only reposition cursors that still
    descend — a run at its atom's last level never needs its positions).
    The key sequence is computed exactly like :func:`intersect_positions`,
    so compiled and interpreted executions visit identical keys in
    identical order.
    """
    runs = list(runs)
    span_total = sum(run[3] - run[2] for run in runs)
    count = len(runs)
    if count == 1:
        keys, _view, lo, hi = runs[0]
        if hi <= lo:
            return [], [None if not need[0] else []]
        return (
            list(keys[lo:hi]),
            [list(range(lo, hi)) if need[0] else None],
        )
    if count == 2 and runs[0][0] is runs[1][0] and runs[0][2:] == runs[1][2:]:
        # Self-join over one shared slice: the intersection is the slice.
        keys, _view, lo, hi = runs[0]
        if hi <= lo:
            return [], [[] if needed else None for needed in need]
        positions = list(range(lo, hi))
        return (
            list(keys[lo:hi]),
            [positions if needed else None for needed in need],
        )
    if count == 2 and not _use_numpy(runs, span_total):
        a, _va, i, ahi = runs[0]
        b, _vb, j, bhi = runs[1]
        keys_out: List[int] = []
        first_positions: Optional[List[int]] = [] if need[0] else None
        second_positions: Optional[List[int]] = [] if need[1] else None
        while i < ahi and j < bhi:
            x = a[i]
            y = b[j]
            if x == y:
                keys_out.append(x)
                if first_positions is not None:
                    first_positions.append(i)
                if second_positions is not None:
                    second_positions.append(j)
                i += 1
                j += 1
            elif x < y:
                i = bisect_left(a, y, i + 1, ahi)
            else:
                j = bisect_left(b, x, j + 1, bhi)
        return keys_out, [first_positions, second_positions]
    # ``_common_of_runs`` may reorder its argument; hand it a copy so the
    # returned positions stay aligned with the caller's run order.
    common = _common_of_runs(list(runs), span_total)
    if getattr(common, "size", None) is not None:  # vectorised path
        if common.size == 0:
            return [], [[] if needed else None for needed in need]
        positions = [
            (numpy.searchsorted(run[1][run[2]:run[3]], common) + run[2]).tolist()
            if needed
            else None
            for run, needed in zip(runs, need)
        ]
        return common.tolist(), positions
    positions = []
    for run, needed in zip(runs, need):
        if not needed:
            positions.append(None)
            continue
        keys, _view, lo, hi = run
        pointer = lo
        run_positions = []
        for key in common:
            pointer = bisect_left(keys, key, pointer, hi)
            run_positions.append(pointer)
        positions.append(run_positions)
    return common, positions
