"""Tests for the adhesion cache and the caching policies."""

import random
import sys

import pytest

from repro.core.cache import (
    AdhesionCache,
    AlwaysCachePolicy,
    BoundedCachePolicy,
    CompositePolicy,
    NeverCachePolicy,
    SupportThresholdPolicy,
)
from repro.core.factorized import FactorizedNode
from repro.core.instrumentation import OperationCounter
from repro.query.parser import parse_query
from repro.query.terms import Variable
from repro.storage.database import Database
from repro.storage.relation import Relation


class TestAdhesionCache:
    def test_miss_then_hit(self):
        cache = AdhesionCache()
        assert cache.get(1, (5,)) is None
        cache.put(1, (5,), 42)
        assert cache.get(1, (5,)) == 42

    def test_entries_keyed_per_node(self):
        cache = AdhesionCache()
        cache.put(1, (5,), 10)
        cache.put(2, (5,), 20)
        assert cache.get(1, (5,)) == 10
        assert cache.get(2, (5,)) == 20
        assert len(cache) == 2

    def test_zero_value_is_a_hit(self):
        cache = AdhesionCache()
        cache.put(1, (5,), 0)
        assert cache.get(1, (5,)) == 0

    def test_overwrite_existing_key(self):
        cache = AdhesionCache()
        cache.put(1, (5,), 1)
        cache.put(1, (5,), 2)
        assert cache.get(1, (5,)) == 2
        assert len(cache) == 1

    def test_capacity_reject(self):
        cache = AdhesionCache(capacity=1, eviction="reject")
        assert cache.put(1, (1,), 10)
        assert not cache.put(1, (2,), 20)
        assert cache.get(1, (1,)) == 10
        assert cache.get(1, (2,)) is None

    def test_capacity_zero_never_stores(self):
        cache = AdhesionCache(capacity=0)
        assert not cache.put(1, (1,), 10)
        assert len(cache) == 0

    def test_lru_eviction(self):
        cache = AdhesionCache(capacity=2, eviction="lru")
        cache.put(1, (1,), "a")
        cache.put(1, (2,), "b")
        cache.get(1, (1,))          # touch (1,) so (2,) becomes LRU
        cache.put(1, (3,), "c")
        assert cache.get(1, (2,)) is None
        assert cache.get(1, (1,)) == "a"
        assert cache.get(1, (3,)) == "c"

    def test_counter_integration(self):
        counter = OperationCounter()
        cache = AdhesionCache(capacity=1, counter=counter)
        cache.get(1, (1,))
        cache.put(1, (1,), 5)
        cache.get(1, (1,))
        cache.put(1, (2,), 6)
        assert counter.cache_misses == 1
        assert counter.cache_hits == 1
        assert counter.cache_insertions == 1
        assert counter.cache_rejections == 1

    def test_invalidate_all(self):
        cache = AdhesionCache()
        cache.put(1, (1,), 1)
        cache.put(2, (1,), 1)
        assert cache.invalidate() == 2
        assert len(cache) == 0

    def test_invalidate_single_node(self):
        cache = AdhesionCache()
        cache.put(1, (1,), 1)
        cache.put(2, (1,), 1)
        assert cache.invalidate(node=1) == 1
        assert cache.get(2, (1,)) == 1

    def test_entries_per_node(self):
        cache = AdhesionCache()
        cache.put(1, (1,), 1)
        cache.put(1, (2,), 1)
        cache.put(2, (1,), 1)
        assert cache.entries_per_node() == {1: 2, 2: 1}

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            AdhesionCache(capacity=-1)
        with pytest.raises(ValueError):
            AdhesionCache(eviction="random")


def _walked_memory_estimate(cache):
    """Reference: the memory estimate recomputed by walking every entry."""
    total = sys.getsizeof(cache._entries)
    for key, value in cache._entries.items():
        total += sys.getsizeof(key) + sum(sys.getsizeof(v) for v in key[1])
        if isinstance(value, FactorizedNode):
            total += 32 * value.memory_entries()
        else:
            total += sys.getsizeof(value)
    return total


def _factorized_value(rng):
    """A small two-level factorisation with a random number of entries."""
    x, y = Variable("x"), Variable("y")
    child = FactorizedNode((y,))
    for value in range(rng.randrange(0, 4)):
        child.add_entry((value,))
    node = FactorizedNode((x,))
    for value in range(rng.randrange(1, 5)):
        node.add_entry((value,), (child,))
    return node


class TestMemoryEstimate:
    """The O(1) running byte total tracks every way entries come and go."""

    @pytest.mark.parametrize("mode", ["count", "evaluate"])
    @pytest.mark.parametrize("seed", range(6))
    def test_running_total_matches_full_walk(self, mode, seed):
        rng = random.Random(seed)
        eviction = "lru" if seed % 2 else "reject"
        capacity = None if seed % 3 == 0 else rng.randrange(3, 12)
        cache = AdhesionCache(capacity=capacity, eviction=eviction,
                              counter=OperationCounter())
        cache.bind_mode(mode)
        assert cache.memory_estimate() == _walked_memory_estimate(cache)
        for _step in range(400):
            action = rng.random()
            node = rng.randrange(4)
            # A small key space makes replacements and LRU churn frequent;
            # big values exercise variable-size int charges.
            key = tuple(rng.choice((1, 7, 2**40, -3)) for _ in range(rng.randrange(0, 3)))
            if action < 0.75:
                value = (
                    rng.choice((0, 5, 2**70)) if mode == "count"
                    else _factorized_value(rng)
                )
                cache.put(node, key, value)
            elif action < 0.85:
                cache.get(node, key)
            elif action < 0.93:
                cache.invalidate_nodes(rng.sample(range(4), rng.randrange(0, 3)))
            elif action < 0.98:
                cache.invalidate(node)
            else:
                cache.invalidate()
            assert cache.memory_estimate() == _walked_memory_estimate(cache)


class TestSimplePolicies:
    def test_always(self):
        assert AlwaysCachePolicy().should_cache(1, (), (), 5)

    def test_never(self):
        policy = NeverCachePolicy()
        assert not policy.should_cache(1, (), (), 5)
        assert not policy.wants_intermediates(1)

    def test_composite_requires_all(self):
        policy = CompositePolicy([AlwaysCachePolicy(), NeverCachePolicy()])
        assert not policy.should_cache(1, (), (), 5)
        assert not policy.wants_intermediates(1)

    def test_composite_empty_rejected(self):
        with pytest.raises(ValueError):
            CompositePolicy([])


class TestBoundedPolicy:
    def test_per_node_budget(self):
        policy = BoundedCachePolicy(max_entries_per_node=2)
        assert policy.should_cache(1, (), (1,), 0)
        assert policy.should_cache(1, (), (2,), 0)
        assert not policy.should_cache(1, (), (3,), 0)
        assert policy.should_cache(2, (), (1,), 0)  # separate budget per node

    def test_zero_budget_disables_intermediates(self):
        policy = BoundedCachePolicy(max_entries_per_node=0)
        assert not policy.wants_intermediates(1)

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            BoundedCachePolicy(-1)


class TestSupportThresholdPolicy:
    @pytest.fixture
    def setup(self):
        rows = [(1, value) for value in range(10)] + [(2, 20), (3, 30)]
        database = Database([Relation("E", ("src", "dst"), rows)])
        query = parse_query("E(x, y), E(y, z)")
        return database, query

    def test_support_of_frequent_value(self, setup):
        database, query = setup
        policy = SupportThresholdPolicy(database, query, threshold=2)
        # value 1 occurs 10 times as a source of E -> support of x=1 is high
        assert policy.support((Variable("x"),), (1,)) >= 10

    def test_frequent_values_cached(self, setup):
        database, query = setup
        policy = SupportThresholdPolicy(database, query, threshold=2)
        assert policy.should_cache(0, (Variable("x"),), (1,), 99)

    def test_rare_values_not_cached(self, setup):
        database, query = setup
        policy = SupportThresholdPolicy(database, query, threshold=2)
        assert not policy.should_cache(0, (Variable("x"),), (3,), 99)

    def test_unknown_value_has_zero_support(self, setup):
        database, query = setup
        policy = SupportThresholdPolicy(database, query, threshold=0)
        assert policy.support((Variable("x"),), (999,)) == 0

    def test_empty_adhesion_support_is_zero(self, setup):
        database, query = setup
        policy = SupportThresholdPolicy(database, query, threshold=1)
        assert policy.support((), ()) == 0

    def test_multi_variable_support_is_minimum(self, setup):
        database, query = setup
        policy = SupportThresholdPolicy(database, query, threshold=0)
        support = policy.support((Variable("x"), Variable("y")), (1, 30))
        assert support == min(policy.support((Variable("x"),), (1,)),
                              policy.support((Variable("y"),), (30,)))

    def test_negative_threshold_rejected(self, setup):
        database, query = setup
        with pytest.raises(ValueError):
            SupportThresholdPolicy(database, query, threshold=-1)
