"""Leapfrog Trie Join (LFTJ) — the vanilla algorithm of Figure 1.

LFTJ binds the query variables one by one along a global variable order.  At
depth ``d`` the atoms containing variable ``x_d`` each expose a sorted list of
candidate values (one trie level below their currently bound prefix); a
leapfrog intersection enumerates the common values, and the algorithm recurses
for each.  No intermediate result is ever materialised, which is both LFTJ's
key advantage (tiny memory footprint) and the weakness the paper's CLFTJ
addresses (recurring sub-joins are recomputed from scratch).

:class:`LeapfrogTrieJoin` supports both the counting problem (``count``) and
full evaluation (``evaluate``), and shares its plumbing with
:class:`repro.core.clftj.CachedLeapfrogTrieJoin` through :class:`TrieJoinBase`.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.instrumentation import OperationCounter
from repro.core.leapfrog import (
    LeapfrogJoin,
    intersect_child_count,
    intersect_count,
    intersect_keys,
    intersect_positions,
)
from repro.query.atoms import ConjunctiveQuery
from repro.query.terms import Variable
from repro.storage.database import Database
from repro.storage.trie import TrieIndex, TrieIterator
from repro.storage.views import atom_column_order, atom_trie


class TrieJoinBase:
    """Shared machinery for LFTJ and CLFTJ.

    Responsibilities:

    * validate the variable order;
    * obtain, for each atom, a dictionary-encoded trie over the atom's view
      (distinct variables, constants and repeated variables applied) whose
      level order follows the global variable order — shared tries come from
      the database's index cache, so repeated constructions and equivalent
      atoms pay no rebuild.  The join runs over int codes: assignments hold
      codes, and values only materialise at the result boundary;
    * precompute, for every depth, which atom iterators participate.
    """

    #: Cooperative deadline, set post-construction by the engine when a
    #: ``timeout=`` was given (any object with ``check()`` — see
    #: :class:`repro.engine.faults.Deadline`; the core deliberately does not
    #: import it, so the duck-typed attribute keeps core free of engine
    #: dependencies).  The class-level ``None`` keeps the common path to a
    #: single ``is None`` test per recursive call.
    deadline = None

    #: Recursive calls between deadline clock reads.  64 keeps the check
    #: essentially free (one integer increment per call, one clock read per
    #: stride) while an expired deadline is still noticed within
    #: microseconds of real work.
    DEADLINE_STRIDE = 64

    def __init__(
        self,
        query: ConjunctiveQuery,
        database: Database,
        variable_order: Optional[Sequence[Variable]] = None,
        counter: Optional[OperationCounter] = None,
    ) -> None:
        self.query = query
        self.database = database
        self.counter = counter if counter is not None else OperationCounter()
        order = tuple(variable_order) if variable_order is not None else tuple(query.variables)
        self._validate_order(order)
        self.variable_order: Tuple[Variable, ...] = order
        self._depth_of: Dict[Variable, int] = {
            variable: depth for depth, variable in enumerate(order)
        }
        self.num_variables = len(order)

        self._atom_tries: List[TrieIndex] = []
        self._atom_variables: List[Tuple[Variable, ...]] = []
        for atom in query.atoms:
            ordered, column_order = atom_column_order(atom, self._depth_of)
            self._atom_tries.append(atom_trie(database, atom, column_order))
            self._atom_variables.append(ordered)

        self._atoms_at_depth: List[Tuple[int, ...]] = []
        for depth, variable in enumerate(order):
            participating = tuple(
                atom_index
                for atom_index, atom_vars in enumerate(self._atom_variables)
                if variable in atom_vars
            )
            self._atoms_at_depth.append(participating)

        self._iterators: List[TrieIterator] = []
        self._assignment: List[Optional[object]] = []
        self._deadline_ticks = 0

    # -------------------------------------------------------------- validation
    def _validate_order(self, order: Sequence[Variable]) -> None:
        query_vars = self.query.variable_set()
        order_set = set(order)
        if len(order) != len(order_set):
            raise ValueError(f"variable order {order!r} contains duplicates")
        if order_set != query_vars:
            missing = query_vars - order_set
            extra = order_set - query_vars
            raise ValueError(
                f"variable order does not match the query variables "
                f"(missing={sorted(v.name for v in missing)!r}, "
                f"extra={sorted(v.name for v in extra)!r})"
            )

    # -------------------------------------------------------------- execution
    def _prepare(self) -> None:
        """Create fresh iterators and a blank assignment for one execution."""
        self._iterators = [trie.iterator(self.counter) for trie in self._atom_tries]
        self._assignment = [None] * self.num_variables
        # Participant lists are fixed per depth for the execution's lifetime;
        # materialising them once keeps the per-recursion lookup a plain
        # index instead of a fresh list comprehension.
        self._depth_participants: List[List[TrieIterator]] = [
            [self._iterators[atom_index] for atom_index in self._atoms_at_depth[depth]]
            for depth in range(self.num_variables)
        ]

    def _participants(self, depth: int) -> List[TrieIterator]:
        return self._depth_participants[depth]

    def _check_deadline(self) -> None:
        """Cooperative cancellation: read the clock once per stride.

        Called at recursion entries when :attr:`deadline` is set.  Raises
        :class:`repro.engine.faults.QueryTimeoutError` (via the deadline's
        own ``check``) once the instant has passed.  Deliberately touches
        no :class:`OperationCounter` field — compiled/interpreted counter
        parity must hold with and without a deadline.
        """
        self._deadline_ticks += 1
        if self._deadline_ticks >= self.DEADLINE_STRIDE:
            self._deadline_ticks = 0
            self.deadline.check()

    def current_assignment(self) -> Dict[Variable, object]:
        """The current partial assignment ``mu`` (used by tests and tracing)."""
        return {
            variable: value
            for variable, value in zip(self.variable_order, self._assignment)
            if value is not None
        }

    @property
    def trie_statistics(self) -> Dict[str, int]:
        """Sizes of the per-atom tries (distinct first-level keys and tuples)."""
        return {
            f"atom_{index}": trie.tuple_count()
            for index, trie in enumerate(self._atom_tries)
        }

    def execution_metadata(self) -> Dict[str, object]:
        """Executor-protocol hook: per-algorithm facts worth reporting.

        The engine merges this into ``ExecutionResult.metadata`` after every
        run; subclasses extend it (CLFTJ adds its adhesion-cache state).
        """
        metadata: Dict[str, object] = {
            "dictionary_size": len(self.database.dictionary),
        }
        delta_tries = sum(
            1 for trie in self._atom_tries if getattr(trie, "has_deltas", False)
        )
        if delta_tries:
            # Tries currently carrying an unmerged LSM delta level: reads go
            # through the merging iterator until the next compaction.
            metadata["delta_tries"] = delta_tries
        return metadata

    # ------------------------------------------------------------- decoding
    def _decoded(self, rows: Iterator[Tuple[object, ...]]) -> Iterator[Tuple[object, ...]]:
        """Decode a stream of code-space rows back to value tuples."""
        decode_row = self.database.dictionary.decode_row
        for row in rows:
            yield decode_row(row)


class LeapfrogTrieJoin(TrieJoinBase):
    """Vanilla LFTJ: worst-case-optimal multiway join without caching."""

    def count(self) -> int:
        """Return ``|q(D)|`` (the algorithm ``TJCount`` of Figure 1)."""
        self._prepare()
        if self.deadline is not None:
            self.deadline.check()
        total = self._count_recursive(0)
        self.counter.record_result(0)
        return total

    def _count_recursive(self, depth: int) -> int:
        self.counter.record_recursive_call()
        if self.deadline is not None:
            self._check_deadline()
        if depth == self.num_variables:
            self.counter.results_emitted += 1
            return 1
        participants = self._participants(depth)
        if depth + 1 == self.num_variables:
            # Deepest variable of a count: nothing recurses off the matched
            # keys, so the per-parent open/intersect/up cycle fuses into one
            # stateless block intersection of the child runs — the hottest
            # loop of every count query.
            matches = intersect_child_count(participants, self.counter)
            if matches is not None:
                counter = self.counter
                counter.recursive_calls += matches
                counter.results_emitted += matches
                return matches
        for iterator in participants:
            iterator.open()
        if depth + 1 == self.num_variables:
            # Fusion unavailable (e.g. an impure merged level): intersect
            # the opened runs block-at-a-time where possible.
            matches = intersect_count(participants, self.counter)
            if matches is not None:
                counter = self.counter
                counter.recursive_calls += matches
                counter.results_emitted += matches
                for iterator in participants:
                    iterator.up()
                return matches
        else:
            # Interior variable: batch-intersect the runs, then walk the
            # matched keys, landing every cursor with a trusted
            # ``advance_to`` — non-matching keys are skipped at block
            # speed and no per-key probing remains.
            batch = intersect_positions(participants, self.counter)
            if batch is not None:
                keys, positions = batch
                total = 0
                assignment = self._assignment
                counter = self.counter
                walkers = list(zip(participants, positions))
                # One level above the leaf the recursion body is just the
                # fused child intersection; inline it to drop a Python
                # call (and its bookkeeping) per matched key.  Counter
                # semantics replicate the elided recursive call exactly.
                leaf_participants = (
                    self._participants(depth + 1)
                    if depth + 2 == self.num_variables
                    else None
                )
                for index, key in enumerate(keys):
                    for iterator, run_positions in walkers:
                        iterator.advance_to(run_positions[index])
                    assignment[depth] = key
                    if leaf_participants is not None:
                        matches = intersect_child_count(leaf_participants, counter)
                        if matches is None:
                            # The real recursion records its own call.
                            total += self._count_recursive(depth + 1)
                        else:
                            counter.recursive_calls += 1 + matches
                            counter.results_emitted += matches
                            total += matches
                    else:
                        total += self._count_recursive(depth + 1)
                assignment[depth] = None
                for iterator in participants:
                    iterator.up()
                return total
        total = 0
        join = LeapfrogJoin(participants)
        while not join.at_end:
            self._assignment[depth] = join.key()
            total += self._count_recursive(depth + 1)
            join.next()
        self._assignment[depth] = None
        for iterator in participants:
            iterator.up()
        return total

    def evaluate(self) -> Iterator[Tuple[object, ...]]:
        """Yield every result tuple, as values in variable-order positions.

        The join runs in code space and each emitted row is decoded here —
        the convenience boundary for direct callers.  The engine instead
        consumes :meth:`evaluate_coded` and defers decoding to the result
        object, so untouched result sets never decode.
        """
        yield from self._decoded(self.evaluate_coded())

    def evaluate_coded(self) -> Iterator[Tuple[object, ...]]:
        """Yield result tuples as dictionary codes."""
        self._prepare()
        if self.deadline is not None:
            self.deadline.check()
        yield from self._evaluate_recursive(0)

    def _evaluate_recursive(self, depth: int) -> Iterator[Tuple[object, ...]]:
        self.counter.record_recursive_call()
        if self.deadline is not None:
            self._check_deadline()
        if depth == self.num_variables:
            self.counter.results_emitted += 1
            yield tuple(self._assignment)
            return
        participants = self._participants(depth)
        for iterator in participants:
            iterator.open()
        if depth + 1 == self.num_variables:
            # At the deepest variable nothing descends further, so the
            # iterators need no repositioning — the matched keys alone
            # complete the rows.
            keys = intersect_keys(participants, self.counter)
            if keys is not None:
                for key in keys:
                    self._assignment[depth] = key
                    yield from self._evaluate_recursive(depth + 1)
                self._assignment[depth] = None
                for iterator in participants:
                    iterator.up()
                return
        else:
            batch = intersect_positions(participants, self.counter)
            if batch is not None:
                keys, positions = batch
                walkers = list(zip(participants, positions))
                for index, key in enumerate(keys):
                    for iterator, run_positions in walkers:
                        iterator.advance_to(run_positions[index])
                    self._assignment[depth] = key
                    yield from self._evaluate_recursive(depth + 1)
                self._assignment[depth] = None
                for iterator in participants:
                    iterator.up()
                return
        join = LeapfrogJoin(participants)
        while not join.at_end:
            self._assignment[depth] = join.key()
            yield from self._evaluate_recursive(depth + 1)
            join.next()
        self._assignment[depth] = None
        for iterator in participants:
            iterator.up()

    def evaluate_all(self) -> List[Dict[Variable, object]]:
        """Materialise all results as variable->value dictionaries."""
        return [
            dict(zip(self.variable_order, row))
            for row in self.evaluate()
        ]


def lftj_count(
    query: ConjunctiveQuery,
    database: Database,
    variable_order: Optional[Sequence[Variable]] = None,
    counter: Optional[OperationCounter] = None,
) -> int:
    """One-shot convenience wrapper around :meth:`LeapfrogTrieJoin.count`."""
    return LeapfrogTrieJoin(query, database, variable_order, counter).count()


def lftj_evaluate(
    query: ConjunctiveQuery,
    database: Database,
    variable_order: Optional[Sequence[Variable]] = None,
    counter: Optional[OperationCounter] = None,
) -> List[Tuple[object, ...]]:
    """One-shot convenience wrapper returning all result tuples."""
    return list(LeapfrogTrieJoin(query, database, variable_order, counter).evaluate())
