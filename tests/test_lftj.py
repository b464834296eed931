"""Tests for vanilla Leapfrog Trie Join."""

import pytest

from repro.core.instrumentation import OperationCounter
from repro.core.lftj import LeapfrogTrieJoin, lftj_count, lftj_evaluate
from repro.query.atoms import Atom, ConjunctiveQuery
from repro.query.parser import parse_query
from repro.query.patterns import clique_query, cycle_query, path_query, star_query
from repro.query.terms import Variable
from repro.storage.database import Database
from repro.storage.relation import Relation

from tests.conftest import brute_force_count, brute_force_evaluate


class TestCountsAgainstBruteForce:
    @pytest.mark.parametrize("length", [1, 2, 3, 4])
    def test_paths(self, small_graph_db, length):
        query = path_query(length)
        assert LeapfrogTrieJoin(query, small_graph_db).count() == brute_force_count(
            query, small_graph_db
        )

    @pytest.mark.parametrize("length", [3, 4, 5])
    def test_cycles(self, small_graph_db, length):
        query = cycle_query(length)
        assert LeapfrogTrieJoin(query, small_graph_db).count() == brute_force_count(
            query, small_graph_db
        )

    def test_triangle_clique(self, small_graph_db):
        query = clique_query(3)
        assert LeapfrogTrieJoin(query, small_graph_db).count() == brute_force_count(
            query, small_graph_db
        )

    def test_star(self, small_graph_db):
        query = star_query(3)
        assert LeapfrogTrieJoin(query, small_graph_db).count() == brute_force_count(
            query, small_graph_db
        )

    def test_multi_relation_query(self, two_relation_db):
        query = parse_query("R(x, y), S(y, z), R(z, w)")
        assert LeapfrogTrieJoin(query, two_relation_db).count() == brute_force_count(
            query, two_relation_db
        )

    def test_query_with_constant(self, small_graph_db):
        query = parse_query("E(x, y), E(y, 3)")
        assert LeapfrogTrieJoin(query, small_graph_db).count() == brute_force_count(
            query, small_graph_db
        )

    def test_self_loop_atom(self, tiny_db):
        query = parse_query("R(x, x), R(x, y)")
        assert LeapfrogTrieJoin(query, tiny_db).count() == brute_force_count(query, tiny_db)

    def test_example_3_1_database(self, tiny_db):
        # q of Figure 3: every edge over R with the paper's variable layout.
        query = parse_query(
            "R(x1, x2), R(x2, x3), R(x2, x4), R(x3, x4), R(x3, x5), R(x4, x6)"
        )
        assert LeapfrogTrieJoin(query, tiny_db).count() == brute_force_count(query, tiny_db)


class TestEvaluation:
    def test_tuples_match_brute_force(self, small_graph_db):
        query = path_query(3)
        expected = brute_force_evaluate(query, small_graph_db)
        lftj = LeapfrogTrieJoin(query, small_graph_db)
        produced = set(lftj.evaluate())
        # LFTJ yields tuples in its variable order == query.variables here.
        assert produced == expected

    def test_evaluate_all_returns_dicts(self, small_graph_db):
        query = path_query(2)
        rows = LeapfrogTrieJoin(query, small_graph_db).evaluate_all()
        assert all(set(row) == set(query.variables) for row in rows)

    def test_count_equals_number_of_evaluated_tuples(self, small_graph_db):
        query = cycle_query(4)
        joiner = LeapfrogTrieJoin(query, small_graph_db)
        assert joiner.count() == len(list(LeapfrogTrieJoin(query, small_graph_db).evaluate()))

    def test_results_sorted_lexicographically(self, small_graph_db):
        """Rows stream in trie order: ascending dictionary-code order."""
        query = path_query(2)
        rows = list(LeapfrogTrieJoin(query, small_graph_db).evaluate())
        code = small_graph_db.dictionary.code_of
        coded = [tuple(code(value) for value in row) for row in rows]
        assert coded == sorted(coded)
        assert len(rows) == len(set(rows))
        assert set(rows) == brute_force_evaluate(query, small_graph_db)

    def test_empty_result(self):
        database = Database([Relation("E", ("src", "dst"), [(1, 2)])])
        query = cycle_query(3)
        assert LeapfrogTrieJoin(query, database).count() == 0
        assert list(LeapfrogTrieJoin(query, database).evaluate()) == []


class TestVariableOrder:
    def test_custom_order_gives_same_count(self, small_graph_db):
        query = cycle_query(4)
        default_count = LeapfrogTrieJoin(query, small_graph_db).count()
        reordered = tuple(reversed(query.variables))
        assert LeapfrogTrieJoin(query, small_graph_db, reordered).count() == default_count

    def test_order_must_cover_all_variables(self, small_graph_db):
        query = path_query(3)
        with pytest.raises(ValueError):
            LeapfrogTrieJoin(query, small_graph_db, query.variables[:-1])

    def test_order_must_not_have_duplicates(self, small_graph_db):
        query = path_query(2)
        order = (query.variables[0],) * len(query.variables)
        with pytest.raises(ValueError):
            LeapfrogTrieJoin(query, small_graph_db, order)

    def test_order_must_not_have_extra_variables(self, small_graph_db):
        query = path_query(2)
        order = query.variables + (Variable("zzz"),)
        with pytest.raises(ValueError):
            LeapfrogTrieJoin(query, small_graph_db, order)


class TestInstrumentation:
    def test_counter_records_trie_traffic(self, small_graph_db):
        counter = OperationCounter()
        LeapfrogTrieJoin(path_query(3), small_graph_db, counter=counter).count()
        assert counter.trie_accesses > 0
        assert counter.recursive_calls > 0

    def test_results_emitted_matches_count(self, small_graph_db):
        counter = OperationCounter()
        total = LeapfrogTrieJoin(path_query(2), small_graph_db, counter=counter).count()
        assert counter.results_emitted == total

    def test_convenience_wrappers(self, small_graph_db):
        query = path_query(2)
        assert lftj_count(query, small_graph_db) == len(lftj_evaluate(query, small_graph_db))
