"""Sorted trie indices and LFTJ-style linear iterators.

The trie of a relation (for a given column permutation) stores each tuple as
a root-to-leaf path; sibling values at every node are kept sorted, so a
``seek`` is a binary search (the paper's implementation note: sibling
collections are balanced trees / cascading sorted vectors, giving the
amortised complexity required for worst-case optimality).

:class:`TrieIndex` / :class:`TrieIterator` store each trie level as a set
of parallel flat arrays (``keys``, ``child_begin``, ``child_end``), the
literal "cascading sorted vectors" of the paper.  Iterator state is just
integer ranges per level, ``seek`` is a ``bisect`` over a contiguous slice,
and construction is a single linear scan over the sorted tuples — no
per-node object allocation.

The iterator interface follows Veldhuizen's LFTJ:

* ``open``  -- descend to the first child of the current node.
* ``up``    -- pop back to the parent level.
* ``next``  -- advance to the next sibling.
* ``seek``  -- advance to the least sibling ``>= value``.
* ``key``   -- the sibling value currently pointed at.
* ``at_end``-- True when the sibling list is exhausted.

Database indexes use **integer dictionary encoding**: built with the
database's shared :class:`~repro.storage.dictionary.ValueDictionary`, a trie
stores ``array('q')`` int-code columns (plus zero-copy numpy views
when numpy is importable) instead of object lists.  Levels then sort by
code — an arbitrary but consistent total order, sufficient for equi-joins —
and the iterators expose contiguous *runs* (``current_run``/``child_run``)
that the batched kernels in :mod:`repro.core.leapfrog` intersect
block-at-a-time.  Values only reappear at explicit decode boundaries
(``LsmTrieIndex.iter_rows``/``contains``, the engine's result objects).

Every operation reports an abstract *memory access* count to an optional
:class:`~repro.core.instrumentation.OperationCounter`, which is how the
reproduction measures the memory-traffic reductions claimed in the paper's
introduction.  The per-operation cost model is the balanced-tree one:
``open``, ``up`` and ``next`` cost one access each and ``seek`` costs
``~log2`` of the remaining sibling span.  (The batched kernels over encoded
runs record block-scan costs in place of per-key rotations.)
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.storage.dictionary import HAVE_NUMPY, ValueDictionary, numpy
from repro.storage.relation import Relation, merge_sorted_rows


def _sorted_rows(
    relation: Relation,
    attribute_order: Sequence[int],
    dictionary: Optional[ValueDictionary] = None,
) -> Tuple[Tuple[int, ...], Sequence[Tuple[object, ...]]]:
    """Validate the permutation and return (order, sorted permuted rows).

    With a ``dictionary``, rows are dictionary-encoded first and sorted by
    *code* (code order is an arbitrary but consistent total order — exactly
    what equi-joins need).  Values are encoded in sorted-value row order, so
    dictionary growth is deterministic for a given relation.
    """
    order = tuple(attribute_order)
    if sorted(order) != list(range(relation.arity)):
        raise ValueError(
            f"attribute order {order!r} is not a permutation of the "
            f"{relation.arity} columns of {relation.name!r}"
        )
    if dictionary is not None:
        encode_row = dictionary.encode_row
        if order == tuple(range(relation.arity)):
            permuted = sorted(encode_row(row) for row in relation.tuples)
        else:
            permuted = sorted(
                encode_row(tuple(row[i] for i in order)) for row in relation.tuples
            )
        return order, permuted
    if order == tuple(range(relation.arity)):
        # Relations store their tuples sorted, so the identity permutation
        # needs neither re-tupling nor re-sorting.
        return order, relation.tuples
    permuted = sorted(tuple(row[i] for i in order) for row in relation.tuples)
    return order, permuted


def _int_columns(keys: List[List[object]]) -> List[array]:
    """Pack per-level key lists into compact ``array('q')`` int columns."""
    return [array("q", level) for level in keys]


def _np_views(columns: Sequence[array]) -> Optional[List[object]]:
    """Zero-copy ``int64`` views over ``array('q')`` columns (numpy only)."""
    if not HAVE_NUMPY:
        return None
    return [
        numpy.frombuffer(column, dtype=numpy.int64) if len(column) else None
        for column in columns
    ]


class TrieIndex:
    """A columnar trie over a relation for one column permutation.

    Level ``d`` stores the distinct ``(d+1)``-prefixes of the sorted tuples as
    a flat ``keys[d]`` array (in depth-first = lexicographic order).  For
    non-leaf levels, ``child_begin[d][k]`` / ``child_end[d][k]`` delimit the
    slice of ``keys[d+1]`` holding the children of the ``k``-th key.  Sibling
    groups are therefore contiguous sorted runs, and an iterator is fully
    described by an integer range plus a position per open level.
    """

    __slots__ = ("_keys", "_child_begin", "_child_end", "_np_keys", "depth",
                 "relation_name", "attribute_order", "dictionary", "encoded")

    def __init__(
        self,
        keys: List[List[object]],
        child_begin: List[List[int]],
        child_end: List[List[int]],
        depth: int,
        relation_name: str,
        attribute_order: Tuple[int, ...],
        dictionary: Optional[ValueDictionary] = None,
    ) -> None:
        self._keys = keys
        self._child_begin = child_begin
        self._child_end = child_end
        self.depth = depth
        self.relation_name = relation_name
        self.attribute_order = attribute_order
        #: The database's value dictionary when the trie stores int codes
        #: (every database index); ``None`` for a plain-value trie built
        #: without one (``from_tuples``, iterator unit tests).
        self.dictionary = dictionary
        self.encoded = dictionary is not None
        self._np_keys: Optional[List[object]] = None
        if self.encoded:
            self._keys = _int_columns(keys)
            self._np_keys = _np_views(self._keys)

    # ------------------------------------------------------------ construction
    @staticmethod
    def _build_columns(
        rows: Sequence[Tuple[object, ...]], depth: int
    ) -> Tuple[List[List[object]], List[List[int]], List[List[int]]]:
        """Linear scans over sorted distinct rows -> per-level key/child arrays."""
        total = len(rows)
        if total == 0:
            return (
                [[] for _ in range(depth)],
                [[] for _ in range(depth - 1)],
                [[] for _ in range(depth - 1)],
            )
        keys: List[List[object]] = [[] for _ in range(depth)]
        # starts[d][k] = index of the first row carrying the k-th key of level
        # d; the leaf level is implicit (rows are distinct, so every row opens
        # a new full-length prefix).
        starts: List[List[int]] = [[] for _ in range(depth)]
        last = depth - 1
        keys[last] = [row[last] for row in rows]
        for level in range(depth - 2, -1, -1):
            width = level + 1
            if width == 1:
                boundaries = [
                    index for index in range(1, total)
                    if rows[index][0] != rows[index - 1][0]
                ]
            else:
                boundaries = [
                    index for index in range(1, total)
                    if rows[index][:width] != rows[index - 1][:width]
                ]
            starts[level] = [0] + boundaries
            level_starts = starts[level]
            keys[level] = [rows[index][level] for index in level_starts]
        child_begin: List[List[int]] = []
        child_end: List[List[int]] = []
        for level in range(depth - 1):
            parent_starts = starts[level]
            if level == depth - 2:
                # Leaf children sit at their own row indices.
                begin = parent_starts
                size = total
            else:
                child_starts = starts[level + 1]
                # Parent starts are a subsequence of child starts, so a merge
                # walk finds each parent's first child in overall linear time.
                begin = []
                position = 0
                for start in parent_starts:
                    while child_starts[position] != start:
                        position += 1
                    begin.append(position)
                size = len(child_starts)
            child_begin.append(begin)
            child_end.append(begin[1:] + [size])
        return keys, child_begin, child_end

    @classmethod
    def build(
        cls,
        relation: Relation,
        attribute_order: Sequence[int],
        dictionary: Optional[ValueDictionary] = None,
    ) -> "TrieIndex":
        """Build a trie for ``relation`` with levels ordered by ``attribute_order``.

        ``attribute_order`` must be a permutation of ``range(relation.arity)``.
        With a ``dictionary`` the trie is built in code space: rows are
        dictionary-encoded, levels sort by code and the key columns are
        compact int arrays — the encoded fast path of the join kernels.
        """
        order, permuted = _sorted_rows(relation, attribute_order, dictionary)
        keys, child_begin, child_end = cls._build_columns(permuted, relation.arity)
        return cls(
            keys, child_begin, child_end, relation.arity, relation.name, order,
            dictionary,
        )

    @classmethod
    def from_tuples(cls, rows: Sequence[Sequence[object]], name: str = "anon") -> "TrieIndex":
        """Build a trie directly from already-ordered tuples (used in tests)."""
        rows = [tuple(row) for row in rows]
        if not rows:
            raise ValueError("cannot build a trie from an empty tuple list")
        depth = len(rows[0])
        if any(len(row) != depth for row in rows):
            raise ValueError("all tuples must have the same arity")
        keys, child_begin, child_end = cls._build_columns(sorted(set(rows)), depth)
        return cls(keys, child_begin, child_end, depth, name, tuple(range(depth)))

    @classmethod
    def from_sorted_rows(
        cls,
        rows: Sequence[Tuple[object, ...]],
        depth: int,
        name: str,
        attribute_order: Tuple[int, ...],
        dictionary: Optional[ValueDictionary] = None,
    ) -> "TrieIndex":
        """Build from already-sorted, deduplicated, already-permuted rows.

        Fast path for delta side-tries and compaction, where the caller
        maintains the sorted invariant itself.  With a ``dictionary`` the
        rows must already be *code* tuples (sorted by code); no re-encoding
        happens here — the flag only marks the trie as code-space.
        """
        keys, child_begin, child_end = cls._build_columns(rows, depth)
        return cls(keys, child_begin, child_end, depth, name, attribute_order, dictionary)

    # ----------------------------------------------------------------- queries
    def iterator(self, counter: Optional[object] = None) -> "TrieIterator":
        """Create a fresh linear iterator over this trie."""
        return TrieIterator(self, counter)

    def __len__(self) -> int:
        """Number of root-level keys (distinct values of the first column)."""
        return len(self._keys[0]) if self._keys else 0

    def tuple_count(self) -> int:
        """Total number of tuples stored (root-to-leaf paths)."""
        # The leaf level holds exactly one key per stored tuple.
        return len(self._keys[self.depth - 1]) if self._keys else 0

    def level_sizes(self) -> Tuple[int, ...]:
        """Number of keys per level (distinct prefixes of each length)."""
        return tuple(len(level) for level in self._keys)

    def contains(self, row: Tuple[object, ...]) -> bool:
        """Membership of one already-permuted tuple (binary search per level)."""
        if len(row) != self.depth or not self._keys or not self._keys[0]:
            return False
        lo, hi = 0, len(self._keys[0])
        for level, value in enumerate(row):
            keys = self._keys[level]
            position = bisect_left(keys, value, lo, hi)
            if position >= hi or keys[position] != value:
                return False
            if level < self.depth - 1:
                lo = self._child_begin[level][position]
                hi = self._child_end[level][position]
        return True

    def subtree_span(self, level: int, position: int) -> int:
        """Number of stored tuples below the key at ``(level, position)``."""
        lo, hi = position, position + 1
        for inner in range(level, self.depth - 1):
            lo = self._child_begin[inner][lo]
            hi = self._child_end[inner][hi - 1]
        return hi - lo

    def iter_rows(self) -> "Iterator[Tuple[object, ...]]":
        """Yield every stored tuple in sorted (depth-first) order."""
        if not self._keys or not self._keys[0]:
            return
        yield from self._iter_rows(0, 0, len(self._keys[0]), ())

    def _iter_rows(
        self, level: int, lo: int, hi: int, prefix: Tuple[object, ...]
    ) -> "Iterator[Tuple[object, ...]]":
        keys = self._keys[level]
        if level == self.depth - 1:
            for position in range(lo, hi):
                yield prefix + (keys[position],)
            return
        child_begin = self._child_begin[level]
        child_end = self._child_end[level]
        for position in range(lo, hi):
            yield from self._iter_rows(
                level + 1,
                child_begin[position],
                child_end[position],
                prefix + (keys[position],),
            )

    def __repr__(self) -> str:
        return (
            f"TrieIndex({self.relation_name!r}, depth={self.depth}, "
            f"order={self.attribute_order!r})"
        )


class TrieIterator:
    """A stateful cursor over a columnar :class:`TrieIndex`.

    The iterator is *at depth d* when ``d`` levels are open; depth 0 means it
    sits above the first trie level.  Per open level the state is three
    integers — the sibling slice ``[lo, hi)`` within the level's flat key
    array and the current position — held in preallocated stacks, so
    ``open``/``up`` never allocate.  Opening past the last level or calling
    :meth:`up` at depth 0 is an error — the join algorithms never do either,
    and tests assert the guard rails.
    """

    __slots__ = ("_index", "_counter", "_keys", "_np_keys", "_child_begin",
                 "_child_end", "_depth", "_lo", "_hi", "_pos", "_ended")

    def __init__(self, index: TrieIndex, counter: Optional[object] = None) -> None:
        self._index = index
        self._counter = counter
        self._keys = index._keys
        self._np_keys = index._np_keys
        self._child_begin = index._child_begin
        self._child_end = index._child_end
        self._depth = 0
        levels = index.depth
        self._lo = [0] * levels
        self._hi = [0] * levels
        self._pos = [0] * levels
        self._ended = [False] * levels

    # ---------------------------------------------------------------- depth
    @property
    def depth(self) -> int:
        """Number of currently open levels."""
        return self._depth

    @property
    def max_depth(self) -> int:
        """Depth of the underlying trie."""
        return self._index.depth

    # ------------------------------------------------------------ navigation
    # Counter recording is inlined at each call site (rather than routed
    # through a helper) to keep the hot path free of an extra method call.
    def open(self) -> None:
        """Descend to the first key of the child collection of the current key."""
        depth = self._depth
        if depth == 0:
            lo = 0
            hi = len(self._keys[0]) if self._keys else 0
        else:
            level = depth - 1
            if self._ended[level]:
                raise RuntimeError("cannot open: current level is at end")
            if depth >= self._index.depth:
                raise RuntimeError("cannot open past the last trie level")
            position = self._pos[level]
            lo = self._child_begin[level][position]
            hi = self._child_end[level][position]
        self._lo[depth] = lo
        self._hi[depth] = hi
        self._pos[depth] = lo
        self._ended[depth] = lo == hi
        self._depth = depth + 1
        if self._counter is not None:
            self._counter.record_trie(accesses=1, opens=1)

    def up(self) -> None:
        """Return to the parent level."""
        if self._depth == 0:
            raise RuntimeError("cannot go up: iterator is at the root")
        self._depth -= 1
        if self._counter is not None:
            self._counter.record_trie(accesses=1)

    def key(self) -> object:
        """The key currently pointed at in the open level."""
        if self.at_end():
            raise RuntimeError("iterator is at end; no current key")
        level = self._depth - 1
        return self._keys[level][self._pos[level]]

    def at_end(self) -> bool:
        """True when the current sibling list is exhausted."""
        if self._depth == 0:
            raise RuntimeError("iterator is not positioned at any level")
        return self._ended[self._depth - 1]

    def next(self) -> None:
        """Advance to the next sibling key (possibly reaching the end)."""
        if self._depth == 0:
            raise RuntimeError("iterator is not positioned at any level; call open() first")
        level = self._depth - 1
        if self._ended[level]:
            raise RuntimeError("cannot advance: iterator already at end")
        position = self._pos[level] + 1
        self._pos[level] = position
        if position >= self._hi[level]:
            self._ended[level] = True
        if self._counter is not None:
            self._counter.record_trie(accesses=1, nexts=1)

    def seek(self, value: object) -> None:
        """Advance to the least sibling key ``>= value`` (never moves backwards).

        Seeks gallop: an exponential probe from the current position finds a
        bracketing window, then a binary search finishes inside it.  Leapfrog
        rotations overwhelmingly seek keys a handful of positions ahead, so
        the common case touches one or two probes instead of bisecting the
        whole remaining run.  The *recorded* cost keeps the abstract
        balanced-tree model (``~log2`` of the remaining span) so instrumented
        experiments stay comparable across search strategies.
        """
        if self._depth == 0:
            raise RuntimeError("iterator is not positioned at any level; call open() first")
        level = self._depth - 1
        if self._ended[level]:
            raise RuntimeError("cannot seek: iterator already at end")
        position = self._pos[level]
        hi = self._hi[level]
        keys = self._keys[level]
        if keys[position] >= value:
            new_position = position
        else:
            low = position
            step = 1
            high = position + 1
            while high < hi and keys[high] < value:
                low = high
                step <<= 1
                high = low + step
            if high > hi:
                high = hi
            new_position = bisect_left(keys, value, low + 1, high)
        self._pos[level] = new_position
        if new_position >= hi:
            self._ended[level] = True
        if self._counter is not None:
            # A binary search over the remaining siblings costs ~log2(n) probes.
            span = hi - position
            if span < 1:
                span = 1
            self._counter.record_trie(accesses=max(span.bit_length(), 1), seeks=1)

    # -------------------------------------------------------------- utilities
    def current_run(self) -> Optional[Tuple[object, object, int, int]]:
        """The open level's remaining sibling run, for the batched kernels.

        Returns ``(keys, np_view_or_None, lo, hi)`` when this trie is
        encoded (int key columns) — the contiguous slice ``keys[lo:hi]`` of
        siblings from the current position to the end of the group — or
        ``None`` for a plain-value trie, which tells the caller to fall back
        to the generic per-key leapfrog loop.
        """
        if not self._index.encoded or self._depth == 0:
            return None
        level = self._depth - 1
        np_keys = self._np_keys
        return (
            self._keys[level],
            np_keys[level] if np_keys is not None else None,
            self._pos[level],
            self._hi[level],
        )

    def advance_to(self, position: int) -> None:
        """Trusted batched repositioning within the open level.

        The batched kernels compute, for every matched key, each iterator's
        exact position inside its current run; the walker then lands the
        cursor here directly — no probing, no per-call cost accounting (the
        kernel records the batch's seek cost up front).  ``position`` must
        lie inside the current sibling slice and never move backwards; only
        kernel-computed positions satisfy this by construction.
        """
        self._pos[self._depth - 1] = position

    def child_run(self) -> Optional[Tuple[object, object, int, int]]:
        """The run ``open()`` would expose below the current key, statelessly.

        Same shape as :meth:`current_run`, but for the *next* level: the
        child slice of the current key, read without opening (and so without
        needing a closing ``up()``).  The deepest-level count kernel fuses
        its open/intersect/up cycle through this.  ``None`` when the trie
        holds plain values, nothing is open, the current level is ended, or there is no
        deeper level.

        NOTE: ``repro.core.leapfrog._fast_child_run`` flattens this body
        into plain attribute loads for the hot 2-iterator kernel — keep the
        two in sync.
        """
        depth = self._depth
        if not self._index.encoded or depth == 0 or depth >= self._index.depth:
            return None
        level = depth - 1
        if self._ended[level]:
            return None
        position = self._pos[level]
        np_keys = self._np_keys
        return (
            self._keys[depth],
            np_keys[depth] if np_keys is not None else None,
            self._child_begin[level][position],
            self._child_end[level][position],
        )

    def position(self) -> int:
        """Index of the current key within the open level's flat key array."""
        if self._depth == 0:
            raise RuntimeError("iterator is not positioned at any level")
        return self._pos[self._depth - 1]

    def current_prefix(self) -> Tuple[object, ...]:
        """The sequence of keys selected on the path from the root."""
        return tuple(
            self._keys[level][self._pos[level]]
            for level in range(self._depth)
            if not self._ended[level]
        )

    def reset(self) -> None:
        """Close all levels, returning the iterator to the root."""
        self._depth = 0

    def __repr__(self) -> str:
        return (
            f"TrieIterator({self._index.relation_name!r}, depth={self.depth}, "
            f"prefix={self.current_prefix()!r})"
        )


# --------------------------------------------------------------------------
# LSM-style updatable trie: columnar main level + small delta side-trie.
# --------------------------------------------------------------------------


class LsmTrieIndex:
    """An updatable trie: a large columnar *main* level plus a *delta* level.

    Shaped after an LSM tree flattened to two levels: the immutable main
    :class:`TrieIndex` carries the bulk of the data, while small update
    batches land in a side structure — a set of inserted tuples (rebuilt
    into a tiny side trie per batch) plus *tombstones* for deleted main
    tuples.  Reads go through :meth:`iterator`:

    * with no pending deltas the plain main :class:`TrieIterator` is
      returned — the hot path is exactly as fast as the frozen backend;
    * otherwise a :class:`MergedTrieIterator` unions main and delta levels,
      suppressing tombstoned keys on the fly.

    :meth:`compact` folds the delta level back into a fresh main trie; the
    database triggers it once the delta exceeds a configured fraction of the
    main level.  All public index attributes (``depth``, ``relation_name``,
    ``attribute_order``, ``iterator``, ``tuple_count``) match the frozen
    :class:`TrieIndex`, so the join algorithms are oblivious to the wrapper.

    Tombstones are stored as a prefix -> count mapping: a main key is
    suppressed at any trie level exactly when *every* main tuple below it is
    deleted (count equals the main subtree span) and the delta level holds
    nothing under that key.  Partially-deleted subtrees stay visible and are
    filtered further down, which keeps suppression a dictionary lookup plus
    an O(depth) span computation instead of a subtree walk.
    """

    __slots__ = ("main", "dictionary", "_delta_rows", "_delta_trie",
                 "_tombstones", "_deleted_count", "patches", "compactions")

    def __init__(self, main: TrieIndex) -> None:
        self.main = main
        #: Inherited from the main trie: the database's value dictionary
        #: (all internal state is then held in code space), or ``None`` for a
        #: plain-value trie.
        self.dictionary = main.dictionary
        self._delta_rows: Set[Tuple[object, ...]] = set()
        self._delta_trie: Optional[TrieIndex] = None
        self._tombstones: Dict[Tuple[object, ...], int] = {}
        self._deleted_count = 0
        #: Number of delta batches applied since the last full (re)build.
        self.patches = 0
        #: Number of compactions performed over the index's lifetime.
        self.compactions = 0

    # ----------------------------------------------------------- construction
    @classmethod
    def build(
        cls,
        relation,
        attribute_order: Sequence[int],
        dictionary: Optional[ValueDictionary] = None,
    ) -> "LsmTrieIndex":
        """Build over ``relation`` in ``attribute_order`` (cf. TrieIndex.build)."""
        return cls(TrieIndex.build(relation, attribute_order, dictionary))

    # -------------------------------------------------------- index interface
    @property
    def depth(self) -> int:
        """Depth (arity) of the indexed view."""
        return self.main.depth

    @property
    def relation_name(self) -> str:
        """Name of the indexed relation."""
        return self.main.relation_name

    @property
    def attribute_order(self) -> Tuple[int, ...]:
        """The column permutation the trie levels follow."""
        return self.main.attribute_order

    @property
    def has_deltas(self) -> bool:
        """True when pending inserts or tombstones exist."""
        return bool(self._delta_rows) or bool(self._tombstones)

    @property
    def delta_size(self) -> int:
        """Pending delta tuples (inserts plus tombstoned deletes)."""
        return len(self._delta_rows) + self._deleted_count

    def delta_fraction(self) -> float:
        """Delta size relative to the main level's tuple count."""
        return self.delta_size / max(self.main.tuple_count(), 1)

    def iterator(self, counter: Optional[object] = None):
        """A linear iterator over the merged contents (plain when no deltas)."""
        if not self.has_deltas:
            return self.main.iterator(counter)
        return MergedTrieIterator(self, counter)

    def __len__(self) -> int:
        """Number of distinct first-level keys in the merged contents."""
        if not self.has_deltas:
            return len(self.main)
        iterator = self.iterator()
        iterator.open()
        total = 0
        while not iterator.at_end():
            total += 1
            iterator.next()
        return total

    def tuple_count(self) -> int:
        """Total number of live tuples (main minus tombstones plus delta)."""
        return self.main.tuple_count() - self._deleted_count + len(self._delta_rows)

    def contains(self, row: Tuple[object, ...]) -> bool:
        """Membership of one already-permuted *value* tuple in the merged contents.

        With a dictionary the probe row is translated to code space first;
        a row holding any never-seen value cannot be present.
        """
        if self.dictionary is not None:
            coded = self.dictionary.try_encode_row(row)
            if coded is None:
                return False
            row = coded
        if row in self._delta_rows:
            return True
        return self.main.contains(row) and self._tombstones.get(row, 0) == 0

    # --------------------------------------------------------------- updates
    def _permute(self, rows: Iterable[Sequence[object]]) -> List[Tuple[object, ...]]:
        order = self.main.attribute_order
        if order == tuple(range(self.main.depth)):
            return [tuple(row) for row in rows]
        return [tuple(row[i] for i in order) for row in rows]

    def _coded_inserts(self, rows: Iterable[Sequence[object]]) -> List[Tuple[object, ...]]:
        """Permute and (with a dictionary) encode incoming insert rows.

        Genuinely-new values are *appended* to the shared dictionary — codes
        never change, so no cached index or adhesion-cache key is invalidated
        by growth.
        """
        permuted = self._permute(rows)
        if self.dictionary is None:
            return permuted
        encode_row = self.dictionary.encode_row
        return [encode_row(row) for row in permuted]

    def _coded_deletes(self, rows: Iterable[Sequence[object]]) -> List[Tuple[object, ...]]:
        """Permute and (with a dictionary) encode delete rows, dropping unknowns.

        A delete naming a value the dictionary has never seen cannot match
        any stored tuple, so it is skipped without growing the dictionary.
        """
        permuted = self._permute(rows)
        if self.dictionary is None:
            return permuted
        try_encode_row = self.dictionary.try_encode_row
        coded = []
        for row in permuted:
            encoded = try_encode_row(row)
            if encoded is not None:
                coded.append(encoded)
        return coded

    def _add_tombstone(self, row: Tuple[object, ...]) -> None:
        for width in range(1, len(row) + 1):
            prefix = row[:width]
            self._tombstones[prefix] = self._tombstones.get(prefix, 0) + 1
        self._deleted_count += 1

    def _remove_tombstone(self, row: Tuple[object, ...]) -> None:
        for width in range(1, len(row) + 1):
            prefix = row[:width]
            remaining = self._tombstones[prefix] - 1
            if remaining:
                self._tombstones[prefix] = remaining
            else:
                del self._tombstones[prefix]
        self._deleted_count -= 1

    def apply_delta(
        self,
        inserted: Iterable[Sequence[object]] = (),
        deleted: Iterable[Sequence[object]] = (),
    ) -> None:
        """Apply one batch of view rows (in view column layout, unpermuted).

        Deletes of main tuples become tombstones; deletes of pending delta
        inserts simply retract them.  Inserting a tombstoned tuple
        resurrects it.  Rows must be *effective* at the view level (the
        database's signature transform guarantees this); stray no-op rows
        are tolerated and skipped.  Rows arrive in value space; an
        encoded index translates them here (inserts may append fresh
        dictionary codes — never re-coding existing values).
        """
        for row in self._coded_deletes(deleted):
            if row in self._delta_rows:
                self._delta_rows.discard(row)
            elif self.main.contains(row) and self._tombstones.get(row, 0) == 0:
                self._add_tombstone(row)
        for row in self._coded_inserts(inserted):
            if self._tombstones.get(row, 0):
                self._remove_tombstone(row)
            elif row not in self._delta_rows and not self.main.contains(row):
                self._delta_rows.add(row)
        self._rebuild_delta_trie()
        self.patches += 1

    def _rebuild_delta_trie(self) -> None:
        if self._delta_rows:
            self._delta_trie = TrieIndex.from_sorted_rows(
                sorted(self._delta_rows),
                self.main.depth,
                self.main.relation_name,
                self.main.attribute_order,
                self.dictionary,
            )
        else:
            self._delta_trie = None

    # ------------------------------------------------------------ compaction
    def compact(self) -> int:
        """Fold delta and tombstones into a fresh main trie; returns delta size.

        After compaction the index holds exactly the merged contents in one
        columnar level, equivalent to rebuilding from the current relation.
        """
        folded = self.delta_size
        if not folded:
            return 0
        tombstones = self._tombstones
        if tombstones:
            kept = [row for row in self.main.iter_rows() if tombstones.get(row, 0) == 0]
        else:
            kept = list(self.main.iter_rows())
        merged = merge_sorted_rows(kept, sorted(self._delta_rows))
        self.main = TrieIndex.from_sorted_rows(
            merged, self.main.depth, self.main.relation_name,
            self.main.attribute_order, self.dictionary,
        )
        self._delta_rows = set()
        self._delta_trie = None
        self._tombstones = {}
        self._deleted_count = 0
        self.compactions += 1
        return folded

    def iter_rows(self) -> Iterator[Tuple[object, ...]]:
        """Yield every live *value* tuple (decoded when encoded).

        Rows come out in code order when encoded — a consistent but
        arbitrary total order; callers comparing contents sort or build
        sets.  Decoding here counts against the dictionary's decode counter
        (this is an inspection/export surface, not a join hot path).
        """
        if self.dictionary is None:
            yield from self._iter_coded_rows()
            return
        decode_row = self.dictionary.decode_row
        for row in self._iter_coded_rows():
            yield decode_row(row)

    def _iter_coded_rows(self) -> Iterator[Tuple[object, ...]]:
        """Yield every live tuple in storage (code) space, sorted."""
        tombstones = self._tombstones
        kept = (
            row for row in self.main.iter_rows() if tombstones.get(row, 0) == 0
        ) if tombstones else self.main.iter_rows()
        delta = iter(sorted(self._delta_rows))
        row = next(kept, None)
        extra = next(delta, None)
        while row is not None and extra is not None:
            if row <= extra:
                yield row
                row = next(kept, None)
            else:
                yield extra
                extra = next(delta, None)
        while row is not None:
            yield row
            row = next(kept, None)
        while extra is not None:
            yield extra
            extra = next(delta, None)

    def __repr__(self) -> str:
        return (
            f"LsmTrieIndex({self.relation_name!r}, depth={self.depth}, "
            f"main={self.main.tuple_count()}, +{len(self._delta_rows)}"
            f"/-{self._deleted_count})"
        )


class MergedTrieIterator:
    """A linear trie iterator over the union of main and delta trie levels.

    Implements the same open/up/next/seek/key/at_end contract as
    :class:`TrieIterator` by running one cursor per source trie in lockstep:
    at every level the merged key is the minimum over the sources aligned
    with the current path, and keys whose main subtree is fully tombstoned
    (with no delta contribution) are skipped transparently.  The join
    algorithms therefore work over mutated relations without change.

    Merging is only paid where the delta actually lives: when an ``open``
    descends into a subtree the delta level does not reach (and no tombstone
    falls under the current path — a single dictionary lookup, since
    tombstone counts are kept for every prefix length), the level is marked
    *pure* and every subsequent operation on it delegates straight to the
    main cursor.  For a small delta over a large trie, almost all of the
    join's iterator traffic runs at plain columnar speed.
    """

    __slots__ = ("_index", "_counter", "_main", "_sources", "_num_sources",
                 "_tombstones", "_depth", "_open_mask", "_current", "_ended",
                 "_pure")

    def __init__(self, index: LsmTrieIndex, counter: Optional[object] = None) -> None:
        self._index = index
        self._counter = counter
        sources = [index.main.iterator()]
        if index._delta_trie is not None:
            sources.append(index._delta_trie.iterator())
        self._main: TrieIterator = sources[0]
        self._sources: List[TrieIterator] = sources
        self._num_sources = len(sources)
        self._tombstones = index._tombstones
        self._depth = 0
        levels = index.depth
        self._open_mask: List[List[bool]] = [[False] * self._num_sources for _ in range(levels)]
        self._current: List[object] = [None] * levels
        self._ended: List[bool] = [False] * levels
        #: Per level: True when only the main cursor participates below the
        #: current path and no tombstone can strike it — ops delegate.
        self._pure: List[bool] = [False] * levels

    # ---------------------------------------------------------------- depth
    @property
    def depth(self) -> int:
        """Number of currently open levels."""
        return self._depth

    @property
    def max_depth(self) -> int:
        """Depth of the underlying tries."""
        return self._index.depth

    # ------------------------------------------------------------ navigation
    def open(self) -> None:
        """Descend to the first merged key below the current key."""
        depth = self._depth
        if depth == 0:
            mask = [True] * self._num_sources
            pure = False
        else:
            level = depth - 1
            if self._pure[level]:
                # Everything below the current path is main-only and live.
                self._main.open()
                self._pure[depth] = True
                self._depth = depth + 1
                if self._counter is not None:
                    self._counter.record_trie(accesses=1, opens=1)
                return
            if self._ended[level]:
                raise RuntimeError("cannot open: current level is at end")
            if depth >= self._index.depth:
                raise RuntimeError("cannot open past the last trie level")
            current = self._current[level]
            parent_mask = self._open_mask[level]
            mask = [False] * self._num_sources
            for position, source in enumerate(self._sources):
                if (
                    parent_mask[position]
                    and not source.at_end()
                    and source.key() == current
                ):
                    mask[position] = True
            pure = (
                mask[0]
                and not any(mask[1:])
                and (
                    not self._tombstones
                    or self._tombstones.get(
                        tuple(self._current[inner] for inner in range(depth)), 0
                    )
                    == 0
                )
            )
        opened = 0
        for position, source in enumerate(self._sources):
            if mask[position]:
                source.open()
                opened += 1
        self._open_mask[depth] = mask
        self._pure[depth] = pure
        self._depth = depth + 1
        if self._counter is not None:
            self._counter.record_trie(accesses=max(opened, 1), opens=1)
        if not pure:
            self._settle(depth)

    def up(self) -> None:
        """Return to the parent level."""
        if self._depth == 0:
            raise RuntimeError("cannot go up: iterator is at the root")
        level = self._depth - 1
        if self._pure[level]:
            self._main.up()
        else:
            mask = self._open_mask[level]
            for position, source in enumerate(self._sources):
                if mask[position]:
                    source.up()
        self._depth = level
        if self._counter is not None:
            self._counter.record_trie(accesses=1)

    def key(self) -> object:
        """The merged key currently pointed at in the open level."""
        if self._depth == 0:
            raise RuntimeError("iterator is not positioned at any level")
        level = self._depth - 1
        if self._pure[level]:
            return self._main.key()
        if self._ended[level]:
            raise RuntimeError("iterator is at end; no current key")
        return self._current[level]

    def at_end(self) -> bool:
        """True when the merged sibling list is exhausted."""
        if self._depth == 0:
            raise RuntimeError("iterator is not positioned at any level")
        level = self._depth - 1
        if self._pure[level]:
            return self._main.at_end()
        return self._ended[level]

    def next(self) -> None:
        """Advance to the next merged sibling key."""
        if self._depth == 0:
            raise RuntimeError("iterator is not positioned at any level; call open() first")
        level = self._depth - 1
        if self._pure[level]:
            self._main.next()
            if self._counter is not None:
                self._counter.record_trie(accesses=1, nexts=1)
            return
        if self._ended[level]:
            raise RuntimeError("cannot advance: iterator already at end")
        self._advance_matching(level)
        if self._counter is not None:
            self._counter.record_trie(accesses=1, nexts=1)
        self._settle(level)

    def seek(self, value: object) -> None:
        """Advance to the least merged sibling key ``>= value``."""
        if self._depth == 0:
            raise RuntimeError("iterator is not positioned at any level; call open() first")
        level = self._depth - 1
        if self._pure[level]:
            self._main.seek(value)
            if self._counter is not None:
                self._counter.record_trie(accesses=1, seeks=1)
            return
        if self._ended[level]:
            raise RuntimeError("cannot seek: iterator already at end")
        mask = self._open_mask[level]
        accesses = 0
        for position, source in enumerate(self._sources):
            if mask[position] and not source.at_end():
                span = source._hi[level] - source._pos[level]
                accesses += max(span.bit_length(), 1) if span > 0 else 1
                source.seek(value)
        if self._counter is not None:
            self._counter.record_trie(accesses=max(accesses, 1), seeks=1)
        self._settle(level)

    # -------------------------------------------------------------- internals
    def _advance_matching(self, level: int) -> None:
        """Step every source sitting on the current merged key."""
        current = self._current[level]
        mask = self._open_mask[level]
        for position, source in enumerate(self._sources):
            if mask[position] and not source.at_end() and source.key() == current:
                source.next()

    def _settle(self, level: int) -> None:
        """Compute the merged current key, skipping fully-tombstoned keys."""
        mask = self._open_mask[level]
        sources = self._sources
        tombstones = self._tombstones
        while True:
            best = None
            for position in range(self._num_sources):
                if not mask[position]:
                    continue
                source = sources[position]
                if source.at_end():
                    continue
                key = source.key()
                if best is None or key < best:
                    best = key
            if best is None:
                self._ended[level] = True
                self._current[level] = None
                return
            if tombstones and self._suppressed(level, best):
                self._current[level] = best
                self._advance_matching(level)
                if self._counter is not None:
                    self._counter.record_trie(accesses=1)
                continue
            self._current[level] = best
            self._ended[level] = False
            return

    def _suppressed(self, level: int, key: object) -> bool:
        """Is ``key`` at this level invisible (its main subtree fully deleted)?

        Only ever consulted at impure levels, whose ancestors are impure
        too — so the path prefix can be read off ``_current``.
        """
        prefix = tuple(self._current[inner] for inner in range(level)) + (key,)
        tombstoned = self._tombstones.get(prefix, 0)
        if not tombstoned:
            return False
        main = self._main
        mask = self._open_mask[level]
        if not mask[0] or main.at_end() or main.key() != key:
            # The key comes from the delta level only; delta rows are never
            # tombstoned.
            return False
        for position in range(1, self._num_sources):
            source = self._sources[position]
            if mask[position] and not source.at_end() and source.key() == key:
                return False  # a live delta tuple shares the prefix
        span = self._index.main.subtree_span(level, main.position())
        return tombstoned >= span

    # -------------------------------------------------------------- utilities
    def current_run(self) -> Optional[Tuple[object, object, int, int]]:
        """The remaining sibling run, when this level delegates to main.

        A *pure* level (no delta reaches the current subtree, no tombstone
        can strike it) is exactly a main-trie run, so the batched kernels
        apply; impure levels return ``None`` and take the generic merged
        per-key path.
        """
        if self._depth == 0 or not self._pure[self._depth - 1]:
            return None
        return self._main.current_run()

    def child_run(self) -> Optional[Tuple[object, object, int, int]]:
        """The child run below the current key, when the level is pure.

        A pure level has no delta or tombstone anywhere under the current
        path, so the whole child subtree is main-only and the main cursor's
        stateless :meth:`TrieIterator.child_run` applies verbatim.
        """
        if self._depth == 0 or not self._pure[self._depth - 1]:
            return None
        return self._main.child_run()

    def advance_to(self, position: int) -> None:
        """Trusted batched repositioning (pure levels delegate to main).

        Only reachable when :meth:`current_run` returned a run — i.e. the
        level is pure — so the merged cursor *is* the main cursor here.
        """
        self._main.advance_to(position)

    def current_prefix(self) -> Tuple[object, ...]:
        """The sequence of merged keys selected on the path from the root."""
        parts = []
        for level in range(self._depth):
            if self._pure[level]:
                if not self._main._ended[level]:
                    parts.append(self._main._keys[level][self._main._pos[level]])
            elif not self._ended[level]:
                parts.append(self._current[level])
        return tuple(parts)

    def reset(self) -> None:
        """Close all levels, returning the iterator to the root."""
        for source in self._sources:
            source.reset()
        self._depth = 0

    def __repr__(self) -> str:
        return (
            f"MergedTrieIterator({self._index.relation_name!r}, depth={self.depth}, "
            f"prefix={self.current_prefix()!r})"
        )


# --------------------------------------------------------------------------
# Range-restricted cursor views (partition-parallel execution).
# --------------------------------------------------------------------------


class BoundedTrieIterator:
    """A range-restricted view over any trie cursor, without copying data.

    Wraps a :class:`TrieIterator` or :class:`MergedTrieIterator` and
    restricts the keys visible at **one**
    trie level (``level``, default the first) to the half-open interval
    ``[lo, hi)``; every other level behaves exactly like the wrapped cursor.
    ``lo=None`` means unbounded below, ``hi=None`` unbounded above.  Bounds
    live in the wrapped trie's key space — dictionary codes for database
    tries.

    This is how the partition-parallel executor
    (:mod:`repro.engine.parallel`) shards a join on its top variable: each
    shard runs over the same shared, immutable tries through bounded views
    of the atoms containing that variable.

    The bounded-cursor contract (pinned by ``tests/test_parallel.py``):

    * ``open()`` into the bound level lands on the least key ``>= lo``;
    * a key ``>= hi`` is indistinguishable from the end of the sibling
      list — ``at_end()`` is True and ``next()``/``seek()``/``key()``
      raise, exactly as on a genuinely exhausted level;
    * the restriction *keeps holding* after any interleaving of
      ``open()``/``up()``/``next()``/``seek()`` across level boundaries
      (leaving the bound level and coming back must not leak keys outside
      ``[lo, hi)``);
    * batched-kernel hooks (``current_run``/``child_run``/``advance_to``)
      expose runs clamped to the bound, so encoded block intersections see
      the same restriction as the per-key protocol.
    """

    __slots__ = ("_inner", "_lo", "_hi", "_level", "_bound_ended")

    def __init__(self, inner, lo=None, hi=None, level: int = 1) -> None:
        if level < 1:
            raise ValueError("bound level must be >= 1 (the first open level)")
        self._inner = inner
        self._lo = lo
        self._hi = hi
        self._level = level
        #: True while the bound level's current key is ``>= hi`` — the
        #: wrapper then reports the level as ended although the underlying
        #: cursor still has (out-of-range) siblings left.
        self._bound_ended = False

    # ---------------------------------------------------------------- depth
    @property
    def depth(self) -> int:
        """Number of currently open levels."""
        return self._inner.depth

    @property
    def max_depth(self) -> int:
        """Depth of the underlying trie."""
        return self._inner.max_depth

    @property
    def bounds(self) -> Tuple[object, object]:
        """The ``(lo, hi)`` restriction of the bound level."""
        return (self._lo, self._hi)

    def _check_upper(self) -> None:
        inner = self._inner
        if self._hi is not None and not inner.at_end() and inner.key() >= self._hi:
            self._bound_ended = True

    # ------------------------------------------------------------ navigation
    def open(self) -> None:
        """Descend one level; entering the bound level applies ``[lo, hi)``."""
        inner = self._inner
        inner.open()
        if inner.depth == self._level:
            self._bound_ended = False
            lo = self._lo
            if lo is not None and not inner.at_end() and inner.key() < lo:
                inner.seek(lo)
            self._check_upper()

    def up(self) -> None:
        """Return to the parent level (leaving the bound level clears state)."""
        if self._inner.depth == self._level:
            self._bound_ended = False
        self._inner.up()

    def key(self) -> object:
        """The current key (never outside ``[lo, hi)`` at the bound level)."""
        if self.at_end():
            raise RuntimeError("iterator is at end; no current key")
        return self._inner.key()

    def at_end(self) -> bool:
        """True when the (restricted) sibling list is exhausted."""
        if self._bound_ended and self._inner.depth == self._level:
            return True
        return self._inner.at_end()

    def next(self) -> None:
        """Advance to the next sibling; crossing ``hi`` ends the level."""
        inner = self._inner
        if inner.depth == self._level:
            if self._bound_ended:
                raise RuntimeError("cannot advance: iterator already at end")
            inner.next()
            self._check_upper()
        else:
            inner.next()

    def seek(self, value: object) -> None:
        """Advance to the least sibling ``>= max(value, lo)``; clamp at ``hi``."""
        inner = self._inner
        if inner.depth == self._level:
            if self._bound_ended:
                raise RuntimeError("cannot seek: iterator already at end")
            lo = self._lo
            if lo is not None and value < lo:
                value = lo
            inner.seek(value)
            self._check_upper()
        else:
            inner.seek(value)

    # -------------------------------------------------------------- utilities
    def current_run(self) -> Optional[Tuple[object, object, int, int]]:
        """The remaining sibling run, clamped to ``hi`` at the bound level."""
        current_run = getattr(self._inner, "current_run", None)
        if current_run is None:
            return None
        run = current_run()
        if run is None or self._inner.depth != self._level:
            return run
        keys, view, lo_pos, hi_pos = run
        if self._bound_ended:
            return keys, view, lo_pos, lo_pos
        if self._hi is not None:
            hi_pos = bisect_left(keys, self._hi, lo_pos, hi_pos)
        return keys, view, lo_pos, hi_pos

    def child_run(self) -> Optional[Tuple[object, object, int, int]]:
        """The child run below the current key (no clamp: children are one
        level past the bound, and the current key is in range by contract)."""
        if self._bound_ended and self._inner.depth == self._level:
            return None
        child_run = getattr(self._inner, "child_run", None)
        return child_run() if child_run is not None else None

    def advance_to(self, position: int) -> None:
        """Trusted batched repositioning (kernel positions are in-bounds by
        construction: they come from a clamped :meth:`current_run`)."""
        self._inner.advance_to(position)

    def position(self) -> int:
        """Index of the current key within the open level's key array."""
        return self._inner.position()

    def current_prefix(self) -> Tuple[object, ...]:
        """The sequence of keys selected on the path from the root."""
        return self._inner.current_prefix()

    def reset(self) -> None:
        """Close all levels, returning the iterator to the root."""
        self._bound_ended = False
        self._inner.reset()

    def __repr__(self) -> str:
        return (
            f"BoundedTrieIterator({self._inner!r}, lo={self._lo!r}, "
            f"hi={self._hi!r}, level={self._level})"
        )
