"""Property-based tests (hypothesis) for the trie index and iterator."""

from bisect import bisect_left

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.instrumentation import OperationCounter
from repro.storage.relation import Relation
from repro.storage.trie import TrieIndex

pairs = st.tuples(st.integers(min_value=0, max_value=30), st.integers(min_value=0, max_value=30))
pair_sets = st.sets(pairs, min_size=1, max_size=60)


def _enumerate(trie: TrieIndex):
    iterator = trie.iterator()
    rows = []
    iterator.open()
    while not iterator.at_end():
        first = iterator.key()
        iterator.open()
        while not iterator.at_end():
            rows.append((first, iterator.key()))
            iterator.next()
        iterator.up()
        iterator.next()
    return rows


@given(pair_sets)
@settings(max_examples=60, deadline=None)
def test_trie_enumeration_round_trips(rows):
    relation = Relation("E", ("a", "b"), rows)
    trie = TrieIndex.build(relation, (0, 1))
    assert _enumerate(trie) == sorted(rows)


@given(pair_sets)
@settings(max_examples=60, deadline=None)
def test_trie_keys_strictly_increasing_at_every_level(rows):
    relation = Relation("E", ("a", "b"), rows)
    trie = TrieIndex.build(relation, (0, 1))
    iterator = trie.iterator()
    iterator.open()
    previous_first = None
    while not iterator.at_end():
        first = iterator.key()
        if previous_first is not None:
            assert first > previous_first
        previous_first = first
        iterator.open()
        previous_second = None
        while not iterator.at_end():
            second = iterator.key()
            if previous_second is not None:
                assert second > previous_second
            previous_second = second
            iterator.next()
        iterator.up()
        iterator.next()


@given(pair_sets, st.integers(min_value=-5, max_value=40))
@settings(max_examples=60, deadline=None)
def test_seek_matches_bisect_semantics(rows, probe):
    """seek(v) must land on the least first-level key >= v (or at_end)."""
    relation = Relation("E", ("a", "b"), rows)
    trie = TrieIndex.build(relation, (0, 1))
    first_level = sorted({a for a, _ in rows})
    iterator = trie.iterator()
    iterator.open()
    iterator.seek(probe)
    position = bisect_left(first_level, probe)
    if position == len(first_level):
        assert iterator.at_end()
    else:
        assert iterator.key() == first_level[position]


@given(pair_sets)
@settings(max_examples=40, deadline=None)
def test_column_permutation_preserves_tuples(rows):
    relation = Relation("E", ("a", "b"), rows)
    swapped = TrieIndex.build(relation, (1, 0))
    assert sorted((b, a) for a, b in rows) == _enumerate(swapped)


class _SortedTupleModel:
    """Reference trie cursor over a plain sorted tuple list.

    Each open level is a ``[siblings, index]`` frame, where ``siblings`` are
    the distinct sorted keys under the prefix selected above it.  Errors and
    counter charges follow the cost model the columnar iterator implements:
    ``open``, ``up`` and ``next`` cost one access each, and ``seek`` costs
    ``max(span.bit_length(), 1)`` for the span of remaining siblings.
    """

    def __init__(self, rows, depth):
        self.rows = sorted(set(rows))
        self.max_depth = depth
        self.frames = []
        self.counts = {"trie_accesses": 0, "trie_opens": 0, "trie_nexts": 0, "trie_seeks": 0}

    @property
    def depth(self):
        return len(self.frames)

    def _ended(self, frame):
        return frame[1] >= len(frame[0])

    def _top(self):
        if not self.frames:
            raise RuntimeError("not positioned")
        return self.frames[-1]

    def open(self):
        if self.frames:
            if self._ended(self.frames[-1]):
                raise RuntimeError("current level is at end")
            if self.depth >= self.max_depth:
                raise RuntimeError("past the last level")
        prefix = tuple(siblings[index] for siblings, index in self.frames)
        width = len(prefix)
        siblings = sorted({row[width] for row in self.rows if row[:width] == prefix})
        self.frames.append([siblings, 0])
        self.counts["trie_accesses"] += 1
        self.counts["trie_opens"] += 1

    def up(self):
        if not self.frames:
            raise RuntimeError("at the root")
        self.frames.pop()
        self.counts["trie_accesses"] += 1

    def at_end(self):
        return self._ended(self._top())

    def key(self):
        frame = self._top()
        if self._ended(frame):
            raise RuntimeError("at end")
        return frame[0][frame[1]]

    def next(self):
        frame = self._top()
        if self._ended(frame):
            raise RuntimeError("at end")
        frame[1] += 1
        self.counts["trie_accesses"] += 1
        self.counts["trie_nexts"] += 1

    def seek(self, value):
        frame = self._top()
        if self._ended(frame):
            raise RuntimeError("at end")
        siblings, index = frame
        span = len(siblings) - index
        frame[1] = bisect_left(siblings, value, index)
        self.counts["trie_accesses"] += max(span.bit_length(), 1)
        self.counts["trie_seeks"] += 1

    def current_prefix(self):
        return tuple(
            siblings[index]
            for siblings, index in self.frames
            if index < len(siblings)
        )


triples = st.tuples(*(st.integers(min_value=0, max_value=5) for _ in range(3)))
walk_steps = st.lists(
    st.one_of(
        st.sampled_from([("open",), ("up",), ("next",), ("key",), ("at_end",)]),
        st.tuples(st.just("seek"), st.integers(min_value=-1, max_value=7)),
    ),
    max_size=150,
)


@given(
    st.sets(triples, max_size=80),
    st.permutations([0, 1, 2]),
    walk_steps,
)
@settings(max_examples=80, deadline=None)
def test_random_walks_match_sorted_tuple_model(rows, order, steps):
    """Any operation sequence gives the model's keys, errors and counters."""
    counter = OperationCounter()
    iterator = TrieIndex.build(Relation("T", ("a", "b", "c"), rows), order).iterator(counter)
    model = _SortedTupleModel([tuple(row[i] for i in order) for row in rows], 3)
    for action, *arguments in steps:
        outcomes = []
        for cursor in (iterator, model):
            try:
                outcomes.append(("ok", getattr(cursor, action)(*arguments)))
            except RuntimeError:
                outcomes.append(("error", None))
        assert outcomes[0] == outcomes[1], f"divergence on {action}{tuple(arguments)}"
        assert iterator.depth == model.depth
        assert iterator.current_prefix() == model.current_prefix()
        observed = counter.as_dict()
        assert {name: observed[name] for name in model.counts} == model.counts
