"""Tests for the plan -> compile -> execute split (repro.engine.compiler).

The compiled driver must be invisible except for speed: identical counts,
identical row streams, identical instrumentation counters.  These tests pin
the cache-and-invalidation contract (version-keyed drivers dropped on
replacement, delta updates and compaction), the two-phase build protocol,
the metadata/explain reporting, the interpreted escape hatch and the CLI
surface.
"""

import random
import subprocess
import sys

import pytest

from repro.cli import main
from repro.core.instrumentation import OperationCounter
from repro.core.lftj import LeapfrogTrieJoin
from repro.engine import QueryEngine
from repro.engine.compiler import (
    COMPILED_ALGORITHMS,
    CompiledTrieJoin,
    driver_cache_key,
)
from repro.query.parser import parse_query
from repro.query.patterns import clique_query, cycle_query, path_query
from repro.storage.database import Database
from repro.storage.relation import Relation


def _edges(seed=11, nodes=50, count=320):
    rng = random.Random(seed)
    return sorted({(rng.randrange(nodes), rng.randrange(nodes)) for _ in range(count)})


@pytest.fixture
def database():
    return Database([Relation("E", ("a", "b"), _edges())])


@pytest.fixture
def engine(database):
    return QueryEngine(database)


QUERIES = [
    cycle_query(3),
    clique_query(4),
    path_query(3),
    parse_query("E(x, y), E(y, x)"),
]


class TestParity:
    @pytest.mark.parametrize("query", QUERIES, ids=lambda q: q.name)
    def test_count_and_counters_match_interpreted(self, database, query):
        compiled_counter, interpreted_counter = OperationCounter(), OperationCounter()
        compiled = CompiledTrieJoin(query, database, counter=compiled_counter)
        interpreted = LeapfrogTrieJoin(query, database, counter=interpreted_counter)
        assert compiled.count() == interpreted.count()
        assert compiled_counter.as_dict() == interpreted_counter.as_dict()

    @pytest.mark.parametrize("query", QUERIES, ids=lambda q: q.name)
    def test_evaluate_rows_match_interpreted_ordered(self, database, query):
        compiled_counter, interpreted_counter = OperationCounter(), OperationCounter()
        compiled = list(
            CompiledTrieJoin(query, database, counter=compiled_counter).evaluate()
        )
        interpreted = list(
            LeapfrogTrieJoin(query, database, counter=interpreted_counter).evaluate()
        )
        assert compiled == interpreted  # ordered, byte-identical
        assert compiled_counter.as_dict() == interpreted_counter.as_dict()

    def test_engine_compiled_vs_oracle_flag(self, engine):
        query = cycle_query(3)
        compiled = engine.count(query, algorithm="lftj")
        oracle = engine.count(query, algorithm="lftj", compile=False)
        assert compiled.count == oracle.count
        assert compiled.metadata["compiled"] is True
        assert "compiled" not in oracle.metadata
        assert compiled.counter.as_dict() == oracle.counter.as_dict()

    def test_parallel_shards_share_one_driver(self, engine, database):
        query = cycle_query(3)
        serial = engine.count(query, algorithm="lftj", compile=False)
        result = engine.count(query, algorithm="plftj", parallel=4,
                              parallel_backend="threads")
        assert result.count == serial.count
        # One compilation serves every shard (plus the template executor).
        assert result.metadata["compiled_builds"] == 1
        assert database.compiled_cache_size() == 1


class TestCacheAndInvalidation:
    def test_cache_hit_on_second_execution(self, engine):
        query = cycle_query(3)
        first = engine.count(query, algorithm="lftj")
        second = engine.count(query, algorithm="lftj")
        assert first.metadata["compiled_builds"] == 1
        assert first.metadata["compiled_cache_hits"] == 0
        assert second.metadata["compiled_builds"] == 0
        assert second.metadata["compiled_cache_hits"] == 1

    def test_same_shape_queries_share_a_driver(self, engine, database):
        engine.count(cycle_query(3), algorithm="lftj")
        engine.count(parse_query("E(a, b), E(b, c), E(c, a)"), algorithm="lftj")
        assert database.compiled_builds == 1
        assert database.compiled_cache_hits == 1

    def test_replacement_invalidates_driver(self, engine, database):
        query = cycle_query(3)
        engine.count(query, algorithm="lftj")
        assert database.compiled_cache_size() == 1
        database.add_relation(
            Relation("E", ("a", "b"), _edges(seed=99)), replace=True
        )
        assert database.compiled_cache_size() == 0
        rebuilt = engine.count(query, algorithm="lftj")
        assert rebuilt.metadata["compiled_builds"] == 1
        oracle = engine.count(query, algorithm="lftj", compile=False)
        assert rebuilt.count == oracle.count

    def test_delta_update_invalidates_then_fallback_then_recompile(self):
        # Small relations auto-compact after every batch (the compaction
        # floor), which would merge the deltas before the compiler ever saw
        # them; disable that to pin the deltas-pending fallback.
        database = Database(
            [Relation("E", ("a", "b"), _edges())],
            compaction_floor=0,
            compaction_threshold=1000.0,
        )
        engine = QueryEngine(database)
        query = cycle_query(3)
        engine.count(query, algorithm="lftj")
        database.insert("E", [(997, 998), (998, 999), (999, 997)])
        # The driver captured the pre-insert arrays: it must be gone.
        assert database.compiled_cache_size() == 0
        # With deltas pending the compiler stands down; the interpreted
        # fallback still answers correctly.
        pending = engine.count(query, algorithm="lftj")
        assert pending.metadata["compiled"] is False
        assert "delta" in pending.metadata["compiled_reason"]
        oracle = engine.count(query, algorithm="lftj", compile=False)
        assert pending.count == oracle.count
        # Compaction folds the deltas; the next run compiles again.
        database.compact()
        recompiled = engine.count(query, algorithm="lftj")
        assert recompiled.metadata["compiled"] is True
        assert recompiled.metadata["compiled_builds"] == 1
        assert recompiled.count == oracle.count

    def test_compaction_drops_version_keyed_driver(self, engine, database):
        # A driver compiled while another relation's deltas are compacted
        # must not survive compaction of its *own* relation: compaction
        # swaps the backing arrays without a version bump.
        query = cycle_query(3)
        engine.count(query, algorithm="lftj")
        order = tuple(query.variables)
        key = driver_cache_key(query, order)
        driver = database.peek_compiled_driver(key)
        assert driver is not None
        assert driver.relation_versions == database.relation_versions(
            query.relation_names
        )
        database.insert("E", [(500, 501)])
        database.compact()
        assert database.peek_compiled_driver(key) is None
        # Recompiled driver records the bumped version.
        engine.count(query, algorithm="lftj")
        fresh = database.peek_compiled_driver(key)
        assert fresh is not None and fresh is not driver
        assert fresh.relation_versions == database.relation_versions(
            query.relation_names
        )
        assert fresh.relation_versions != driver.relation_versions


class TestPrepared:
    def test_prepared_holds_and_refreshes_compiled_handle(self, engine, database):
        query = cycle_query(3)
        prepared = engine.prepare(query, algorithm="lftj")
        assert prepared.compiled_driver() is None  # nothing compiled yet
        first = prepared.count()
        assert first.metadata["compiled_builds"] == 1
        driver = prepared.compiled_driver()
        assert driver is not None
        assert driver.matches(database)
        # Version bump: handle sees the invalidation, next run recompiles.
        database.insert("E", [(900, 901)])
        assert prepared.compiled_driver() is None
        database.compact()
        again = prepared.count()
        assert again.metadata["compiled_builds"] == 1
        assert prepared.compiled_driver() is not driver
        assert again.count == engine.count(
            query, algorithm="lftj", compile=False
        ).count

    def test_prepared_compile_false_never_compiles(self, engine, database):
        prepared = engine.prepare(cycle_query(3), algorithm="lftj", compile=False)
        prepared.count()
        assert prepared.compiled_driver() is None
        assert database.compiled_builds == 0


class TestReporting:
    def test_debug_source_exposes_both_modes(self, database):
        executor = CompiledTrieJoin(cycle_query(3), database)
        executor.build()
        count_source = executor.debug_source("count")
        evaluate_source = executor.debug_source("evaluate")
        assert "def _count" in count_source
        assert "def _evaluate" in evaluate_source
        assert "yield" in evaluate_source and "yield" not in count_source
        with pytest.raises(ValueError):
            executor.debug_source("nonsense")

    def test_explain_reports_compiled_state_transitions(self, engine):
        query = cycle_query(3)
        cold = engine.explain(query, algorithm="lftj")
        assert "compiled drivers:" in cold
        assert "will compile on first execution" in cold
        engine.count(query, algorithm="lftj")
        warm = engine.explain(query, algorithm="lftj")
        assert "this query: cached" in warm
        disabled = engine.explain(query, algorithm="lftj", compile=False)
        assert "disabled (compile=False" in disabled
        other = engine.explain(query, algorithm="clftj")
        assert "will compile on first execution (count mode)" in other
        engine.count(query, algorithm="clftj")
        other_warm = engine.explain(query, algorithm="clftj")
        assert "cached (count mode; evaluation runs interpreted)" in other_warm
        interpreted = engine.explain(query, algorithm="ytd")
        assert "not applicable" in interpreted

    def test_metadata_counters_always_present(self, engine):
        result = engine.count(cycle_query(3), algorithm="pairwise")
        assert result.metadata["compiled_builds"] == 0
        assert result.metadata["compiled_cache_hits"] == 0

    def test_selector_reasons_mention_compiled_state(self, engine):
        query = cycle_query(3)
        cold = engine.explain(query, algorithm="auto")
        assert "driver compilation" in cold or "already compiled" in cold
        engine.count(query, algorithm="lftj")
        warm = engine.explain(query, algorithm="auto")
        assert "already compiled and cached" in warm


class TestValidation:
    def test_compile_rejected_for_non_compiled_algorithms(self, engine):
        for algorithm in ("ytd", "pairwise", "generic_join"):
            assert algorithm not in COMPILED_ALGORITHMS
            with pytest.raises(ValueError, match="compile"):
                engine.count(cycle_query(3), algorithm=algorithm, compile=False)

    def test_auto_rejects_explicit_compile(self, engine):
        with pytest.raises(ValueError):
            engine.count(cycle_query(3), algorithm="auto", compile=False)

    def test_cli_no_compile_runs_interpreted(self, capsys):
        code = main(["run", "--dataset", "wiki-Vote", "--query", "3-cycle",
                     "--algorithm", "lftj", "--no-compile"])
        assert code == 0
        assert "3-cycle" in capsys.readouterr().out

    def test_cli_no_compile_invalid_combo_exits_2(self, capsys):
        code = main(["run", "--dataset", "wiki-Vote", "--query", "3-cycle",
                     "--algorithm", "ytd", "--no-compile"])
        assert code == 2
        assert "compile" in capsys.readouterr().err

    def test_cli_no_compile_valid_for_clftj(self, capsys):
        code = main(["run", "--dataset", "wiki-Vote", "--query", "3-cycle",
                     "--algorithm", "clftj", "--no-compile"])
        assert code == 0

    def test_cli_explain_reports_disabled_state(self, capsys):
        code = main(["explain", "--dataset", "wiki-Vote", "--query", "3-cycle",
                     "--algorithm", "lftj", "--no-compile"])
        assert code == 0
        assert "disabled (compile=False" in capsys.readouterr().out


class TestKernelCrossover:
    def test_env_override_changes_crossover_and_driver_records_it(self):
        script = (
            "import sys; sys.path.insert(0, 'src')\n"
            "from repro.core import leapfrog\n"
            "assert leapfrog.KERNEL_CROSSOVER == 7, leapfrog.KERNEL_CROSSOVER\n"
            "import random\n"
            "from repro.engine.compiler import CompiledTrieJoin\n"
            "from repro.query.patterns import cycle_query\n"
            "from repro.storage.database import Database\n"
            "from repro.storage.relation import Relation\n"
            "rng = random.Random(3)\n"
            "rows = sorted({(rng.randrange(40), rng.randrange(40))"
            " for _ in range(260)})\n"
            "db = Database([Relation('E', ('a', 'b'), rows)])\n"
            "executor = CompiledTrieJoin(cycle_query(3), db)\n"
            "assert executor.build().crossover == 7\n"
            "print(executor.count())\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env={"REPRO_KERNEL_CROSSOVER": "7", "PATH": "/usr/bin:/bin"},
            cwd=".",
        )
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout.strip()) >= 0


class TestClftjCompiled:
    """The CLFTJ codegen tier: probe inlining, parity, invalidation."""

    def test_driver_emits_inlined_cache_probes(self, engine, database):
        query = path_query(4)  # multi-bag: probed nodes exist
        result = engine.count(query, algorithm="clftj")
        assert result.metadata["compiled"] is True
        prepared = engine.prepare(query, algorithm="clftj")
        driver = prepared.compiled_driver()
        assert driver is not None
        assert driver.probed_nodes  # at least one adhesion-cache probe
        source = driver.debug_source("count")
        assert "adhesion-cache probe" in source
        assert "_cget(" in source and "_cput(" in source
        # No generic dispatch survives specialization: the adhesion keys are
        # straight-line tuple constructions over bound depth locals.
        assert "_adhesion_depths" not in source
        database.close_pools()

    def test_count_counters_and_cache_hits_match_interpreted(self, engine):
        for query in (path_query(4), clique_query(4), cycle_query(3)):
            compiled = engine.count(query, algorithm="clftj")
            interpreted = engine.count(query, algorithm="clftj", compile=False)
            assert compiled.count == interpreted.count
            assert compiled.counter.as_dict() == interpreted.counter.as_dict()
            assert compiled.counter.cache_hits == interpreted.counter.cache_hits

    def test_mutation_invalidates_clftj_driver(self, engine, database):
        query = path_query(4)
        engine.count(query, algorithm="clftj")
        assert database.compiled_cache_size() == 1
        database.add_relation(
            Relation("E", ("a", "b"), _edges(seed=99)), replace=True
        )
        assert database.compiled_cache_size() == 0
        rebuilt = engine.count(query, algorithm="clftj")
        assert rebuilt.metadata["compiled_builds"] == 1
        oracle = engine.count(query, algorithm="clftj", compile=False)
        assert rebuilt.count == oracle.count

    def test_delta_pending_falls_back_interpreted_then_recompiles(self):
        database = Database(
            [Relation("E", ("a", "b"), _edges())],
            compaction_floor=0,
            compaction_threshold=1000.0,
        )
        engine = QueryEngine(database)
        query = path_query(4)
        first = engine.count(query, algorithm="clftj")
        assert first.metadata["compiled"] is True
        database.insert("E", [(997, 998), (998, 999), (999, 997)])
        assert database.compiled_cache_size() == 0
        pending = engine.count(query, algorithm="clftj")
        assert pending.metadata["compiled"] is False
        assert "delta" in pending.metadata["compiled_reason"]
        oracle = engine.count(query, algorithm="clftj", compile=False)
        assert pending.count == oracle.count
        database.compact("E")
        recompiled = engine.count(query, algorithm="clftj")
        assert recompiled.metadata["compiled"] is True
        assert recompiled.count == oracle.count

    def test_unroll_ceiling_falls_back_interpreted(self, engine, monkeypatch):
        import repro.engine.compiler as compiler_module

        monkeypatch.setattr(compiler_module, "MAX_UNROLLED_CACHE_NODES", 0)
        query = path_query(4)
        result = engine.count(query, algorithm="clftj")
        assert result.metadata["compiled"] is False
        assert "unroll ceiling" in result.metadata["compiled_reason"]
        oracle = engine.count(query, algorithm="clftj", compile=False)
        assert result.count == oracle.count

    def test_evaluation_runs_interpreted_with_warm_compiled_count(self, engine):
        query = path_query(4)
        engine.count(query, algorithm="clftj")
        result = engine.evaluate(query, algorithm="clftj")
        assert result.metadata["compiled"] is False
        assert "factorized" in result.metadata["compiled_reason"]
        oracle = engine.evaluate(query, algorithm="clftj", compile=False)
        assert result.rows == oracle.rows
