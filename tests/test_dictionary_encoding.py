"""Integer dictionary encoding: unit, differential and zero-decode tests.

Every join runs over dictionary codes, so execution must be observationally
equivalent to evaluating the query over the values themselves — same
counts, same decoded row sets — across every algorithm, every index regime
(fresh builds, shared caches, the delta/LSM path) and both kernel flavours
(numpy and pure Python).  The value-space reference is the brute-force
nested-loop oracle in ``tests/conftest.py``.
"""

import random

import pytest

import repro.core.leapfrog as leapfrog_module
import repro.core.lftj as lftj_module
from repro.core.clftj import CachedLeapfrogTrieJoin
from repro.core.instrumentation import OperationCounter
from repro.core.lftj import LeapfrogTrieJoin
from repro.decomposition.generic import generic_decompose
from repro.engine.engine import QueryEngine
from repro.query.parser import parse_query
from repro.query.patterns import cycle_query, path_query
from repro.storage.database import Database
from repro.storage.dictionary import ValueDictionary
from repro.storage.relation import Relation
from repro.storage.trie import TrieIndex

from tests.conftest import brute_force_count, brute_force_evaluate


# ---------------------------------------------------------------------------
# ValueDictionary unit behaviour
# ---------------------------------------------------------------------------


class TestValueDictionary:
    def test_codes_are_dense_and_stable(self):
        dictionary = ValueDictionary()
        first = dictionary.encode("a")
        second = dictionary.encode("b")
        assert (first, second) == (0, 1)
        # Append-only: re-encoding returns the original code forever.
        assert dictionary.encode("a") == first
        assert dictionary.encode("c") == 2
        assert len(dictionary) == 3

    def test_decode_round_trip_and_counting(self):
        dictionary = ValueDictionary()
        row = ("x", 7, "y")
        coded = dictionary.encode_row(row)
        assert dictionary.decodes == 0
        assert dictionary.decode_row(coded) == row
        assert dictionary.decodes == 3
        assert dictionary.decode(coded[1]) == 7
        assert dictionary.decodes == 4

    def test_code_of_never_appends(self):
        dictionary = ValueDictionary()
        assert dictionary.code_of("missing") is None
        assert len(dictionary) == 0
        dictionary.encode("present")
        assert dictionary.code_of("present") == 0

    def test_try_encode_row_rejects_unseen_values(self):
        dictionary = ValueDictionary()
        dictionary.encode_row((1, 2))
        assert dictionary.try_encode_row((1, 2)) == (0, 1)
        assert dictionary.try_encode_row((1, 99)) is None
        assert len(dictionary) == 2  # the miss appended nothing

    def test_unknown_code_raises(self):
        dictionary = ValueDictionary()
        with pytest.raises(ValueError):
            dictionary.decode(5)


# ---------------------------------------------------------------------------
# Storage-layer behaviour of encoded indexes
# ---------------------------------------------------------------------------


def _edge_db(edges, name="g"):
    return Database([Relation("E", ("src", "dst"), edges)], name=name)


class TestEncodedStorage:
    def test_database_tries_are_encoded_by_default(self):
        db = _edge_db([("a", "b"), ("b", "c")])
        trie = db.trie_index("E", (0, 1))
        assert trie.main.encoded
        # The public row/membership surface stays in value space.
        assert sorted(trie.iter_rows()) == [("a", "b"), ("b", "c")]
        assert trie.contains(("a", "b"))
        assert not trie.contains(("a", "zzz"))

    def test_encoded_key_columns_are_int_arrays(self):
        db = _edge_db([(10, 20), (10, 30)])
        trie = db.trie_index("E", (0, 1))
        for level in trie.main._keys:
            assert level.typecode == "q"

    def test_lftj_clftj_recursion_counters_agree_with_unary_leaf_atom(
        self, monkeypatch
    ):
        """Regression: the inlined leaf fusion double-counted recursive calls
        when a participant (here a unary atom on the last variable) cannot
        expose a child run and the real recursion has to run instead.

        The reference is the same join with every batched kernel disabled:
        the per-key leapfrog loop records one recursive call per match, and
        the batched paths must replicate that accounting exactly."""
        rng = random.Random(23)
        relations = [
            Relation("R", ("a", "b"), _random_graph_edges(rng, list(range(10)), 30)),
            Relation("S", ("b", "c"), _random_graph_edges(rng, list(range(10)), 30)),
            Relation("U", ("c",), [(value,) for value in range(0, 10, 2)]),
        ]
        query = parse_query("R(x, y), S(y, z), U(z)", name="unary-leaf")
        db = Database(relations, name="enc")
        batched_counter, per_key_counter = OperationCounter(), OperationCounter()
        batched = LeapfrogTrieJoin(query, db, counter=batched_counter).count()
        for kernel in ("intersect_child_count", "intersect_count", "intersect_positions"):
            monkeypatch.setattr(lftj_module, kernel, lambda *args: None)
        per_key = LeapfrogTrieJoin(query, db, counter=per_key_counter).count()
        assert batched == per_key == brute_force_count(query, db)
        assert batched_counter.recursive_calls == per_key_counter.recursive_calls
        assert batched_counter.results_emitted == per_key_counter.results_emitted

    def test_delta_updates_append_codes_never_recode(self):
        db = _edge_db([("a", "b"), ("b", "c")])
        db.trie_index("E", (0, 1))  # populate the cache
        code_a = db.dictionary.code_of("a")
        db.insert("E", [("c", "zebra")])
        assert db.dictionary.code_of("a") == code_a
        assert db.dictionary.code_of("zebra") is not None
        trie = db.trie_index("E", (0, 1))
        assert sorted(trie.iter_rows()) == [
            ("a", "b"), ("b", "c"), ("c", "zebra"),
        ]


class TestGallopingSeek:
    @pytest.mark.parametrize("seed", [3, 11, 42])
    def test_seek_matches_bisect_oracle(self, seed):
        rng = random.Random(seed)
        values = sorted(rng.sample(range(0, 5000), 400))
        trie = TrieIndex.from_tuples([(value,) for value in values])
        iterator = trie.iterator()
        iterator.open()
        position = 0
        for _ in range(100):
            target = rng.randrange(0, 5200)
            if iterator.at_end():
                break
            current = iterator.key()
            if target < current:
                target = current  # seeks never move backwards
            iterator.seek(target)
            import bisect
            expected = bisect.bisect_left(values, target, position)
            position = expected
            if expected >= len(values):
                assert iterator.at_end()
                break
            assert iterator.key() == values[expected]


# ---------------------------------------------------------------------------
# Differential: code-space execution vs the value-space brute-force oracle
# ---------------------------------------------------------------------------

ALGORITHMS = ("lftj", "clftj", "generic_join", "ytd", "pairwise")


def _random_graph_edges(rng, nodes, num_edges):
    edges = set()
    while len(edges) < num_edges:
        src, dst = rng.choice(nodes), rng.choice(nodes)
        if src != dst:
            edges.add((src, dst))
    return sorted(edges)


def _mixed_database(seed):
    """A database over mixed str/int domains.

    ``E`` is a graph over string node ids, first encountered in shuffled
    order (so its trie level order by code differs wildly from value
    order); ``R``/``S`` join a string column between an int column on
    either side.
    """
    rng = random.Random(seed)
    str_nodes = [f"v{index:02d}" for index in range(14)]
    rng.shuffle(str_nodes)  # first-encounter order != sorted order
    edges = _random_graph_edges(rng, str_nodes, 60)
    r_rows = [
        (rng.randrange(0, 9), rng.choice(str_nodes)) for _ in range(40)
    ]
    s_rows = [
        (rng.choice(str_nodes), rng.randrange(0, 9)) for _ in range(40)
    ]
    return Database(
        [
            Relation("E", ("src", "dst"), edges),
            Relation("R", ("a", "b"), r_rows),
            Relation("S", ("b", "c"), s_rows),
        ],
        name=f"mixed-{seed}",
    )


def _queries():
    return [
        cycle_query(3),
        path_query(3),
        parse_query("R(x, y), S(y, z)", name="mixed-join"),
        parse_query("E(x, y), E(y, x)", name="sym"),
        parse_query("E(x, x)", name="loops"),
    ]


def _rows_in_query_order(result, query):
    """A result's decoded rows re-ordered to ``query.variables`` positions."""
    positions = [result.variable_order.index(variable) for variable in query.variables]
    return {tuple(row[position] for position in positions) for row in result.rows}


class TestDifferentialEncodedVsRaw:
    """Code-space execution agrees with the value-space brute-force oracle."""

    @pytest.mark.parametrize("seed", [0, 1, 2026])
    def test_counts_and_rows_agree_for_every_algorithm(self, seed):
        db = _mixed_database(seed)
        engine = QueryEngine(db)
        for query in _queries():
            expected = brute_force_evaluate(query, db)
            for algorithm in ALGORITHMS:
                result = engine.evaluate(query, algorithm=algorithm)
                assert result.count == len(expected), (query.name, algorithm)
                # Decoded tuple sets must match exactly (order may differ:
                # trie executions stream in code order).
                assert _rows_in_query_order(result, query) == expected, (
                    query.name, algorithm,
                )

    @pytest.mark.parametrize("seed", [5, 17])
    def test_agreement_survives_seeded_update_streams(self, seed):
        db = _mixed_database(seed)
        engine = QueryEngine(db)
        query = cycle_query(3)
        engine.count(query)  # warm every cache
        rng = random.Random(seed * 31)
        nodes = [f"v{index:02d}" for index in range(14)] + [f"w{index}" for index in range(4)]
        for _ in range(6):
            inserts = _random_graph_edges(rng, nodes, 5)
            existing = list(db.relation("E").tuples)
            deletes = [rng.choice(existing)] if existing else []
            db.insert("E", inserts)
            db.delete("E", deletes)
            expected = brute_force_count(query, db)
            for algorithm in ("lftj", "clftj", "generic_join"):
                assert engine.count(query, algorithm=algorithm).count == expected, algorithm
            # A freshly built database over the mutated contents agrees too.
            oracle = Database(
                [Relation("E", ("src", "dst"), db.relation("E").tuples)],
                name="oracle",
            )
            assert LeapfrogTrieJoin(query, oracle).count() == expected

    def test_pure_python_kernels_agree_without_numpy(self, monkeypatch):
        monkeypatch.setattr(leapfrog_module, "numpy", None)
        db = _mixed_database(9)
        query = cycle_query(3)
        expected = brute_force_count(query, db)
        assert LeapfrogTrieJoin(query, db).count() == expected
        decomposition = generic_decompose(query)
        assert CachedLeapfrogTrieJoin(query, db, decomposition).count() == expected


# ---------------------------------------------------------------------------
# The zero-decode guarantee and the lazy result boundary
# ---------------------------------------------------------------------------


class TestZeroDecodeGuarantee:
    def test_count_queries_never_decode(self):
        db = _mixed_database(3)
        engine = QueryEngine(db)
        query = cycle_query(3)
        for algorithm in ("lftj", "clftj", "generic_join"):
            result = engine.count(query, algorithm=algorithm)
            assert result.metadata["decodes"] == 0
        prepared = engine.prepare(query, algorithm="clftj")
        for _ in range(3):
            assert prepared.count().metadata["decodes"] == 0
        assert db.dictionary.decodes == 0

    def test_evaluation_decodes_lazily_at_the_result_boundary(self):
        db = _mixed_database(4)
        engine = QueryEngine(db)
        query = parse_query("R(x, y), S(y, z)", name="mixed-join")
        result = engine.evaluate(query, algorithm="lftj")
        # Rows not touched yet: nothing has been decoded.
        assert db.dictionary.decodes == 0
        assert result.metadata["decodes"] == 0
        rows = result.rows
        assert len(rows) == result.count
        expected_decodes = result.count * 3  # arity = |variables|
        assert db.dictionary.decodes == expected_decodes
        assert result.metadata["decodes"] == expected_decodes
        # Second access reuses the decoded list.
        assert result.rows is rows
        assert db.dictionary.decodes == expected_decodes

    def test_direct_executor_evaluate_returns_values(self):
        db = _mixed_database(6)
        query = cycle_query(3)
        rows = set(LeapfrogTrieJoin(query, db).evaluate())
        assert rows == brute_force_evaluate(query, db)
        for row in rows:
            assert all(isinstance(value, str) for value in row)


class TestEncodedAggregates:
    def test_weighted_aggregates_decode_only_for_weights(self):
        from repro.core.aggregates import (
            CachedAggregateTrieJoin,
            SumProductSemiring,
            relation_weight_function,
        )

        db = _mixed_database(8)
        query = cycle_query(3)
        decomposition = generic_decompose(query)
        table = {
            row: 1.0 + (index % 3)
            for index, row in enumerate(db.relation("E").tuples)
        }
        aggregate = CachedAggregateTrieJoin(
            query, db, decomposition, SumProductSemiring(),
            weight=relation_weight_function(db, {"E": table}),
        ).aggregate()
        # Brute force: sum over results of the product of the atoms' weights.
        expected = 0.0
        for row in brute_force_evaluate(query, db):
            value = dict(zip(query.variables, row))
            product = 1.0
            for atom in query.atoms:
                product *= table[tuple(value[term] for term in atom.terms)]
            expected += product
        assert aggregate == pytest.approx(expected)

    def test_uniform_counting_aggregate_stays_zero_decode(self):
        from repro.core.aggregates import aggregate_count

        db = _mixed_database(8)
        query = cycle_query(3)
        decomposition = generic_decompose(query)
        expected = LeapfrogTrieJoin(query, db).count()
        assert aggregate_count(query, db, decomposition) == expected
        assert db.dictionary.decodes == 0


# ---------------------------------------------------------------------------
# Unhashable values stop at the relation boundary
# ---------------------------------------------------------------------------


class TestUnhashableValueGuard:
    """Unhashable values are rejected before they reach any index.

    ``Relation`` construction and ``Database.insert``/``delete`` raise
    ``TypeError`` and leave tuples, versions and the dictionary untouched,
    so no join ever sees a value the dictionary cannot encode.
    """

    @staticmethod
    def _warm_db():
        db = _edge_db([(1, 2), (2, 3), (3, 1)])
        QueryEngine(db).count(cycle_query(3))  # populate the index cache
        return db

    @staticmethod
    def _snapshot(db):
        return (
            db.relation("E").tuples,
            dict(db._versions),
            db.data_version,
            len(db.dictionary),
        )

    def test_relation_rejects_unhashable_values(self):
        with pytest.raises(TypeError):
            Relation("E", ("src", "dst"), [(1, [2])])

    @pytest.mark.parametrize("operation", ["insert", "delete"])
    @pytest.mark.parametrize("rows", [
        [(1, [2])],
        [(4, 5), (5, {"bad": 1})],  # only the second row is unhashable
    ], ids=["single", "second-of-two"])
    def test_updates_reject_unhashable_values_atomically(self, operation, rows):
        db = self._warm_db()
        before = self._snapshot(db)
        with pytest.raises(TypeError):
            getattr(db, operation)("E", rows)
        assert self._snapshot(db) == before
        # The database stays fully usable: the directed 3-cycle, three rotations.
        assert QueryEngine(db).count(cycle_query(3)).count == 3
