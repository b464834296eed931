"""Execution results: the answer plus everything measured while computing it.

This module is also the **decode boundary** of execution: joins over the
dictionary-encoded indexes produce rows of int codes, which an
:class:`ExecutionResult` holds as-is and only translates back to values the
first time :attr:`ExecutionResult.rows` is actually read.  Count-only
queries (the paper's primary measurements) therefore perform zero decode
operations end to end, and evaluation runs whose rows are never inspected
pay nothing either; ``metadata["decodes"]`` reports the decode work done for
this result so far.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.instrumentation import OperationCounter
from repro.query.terms import Variable
from repro.storage.dictionary import ValueDictionary


class ExecutionResult:
    """The outcome of one query execution.

    ``count`` is always populated; ``rows`` only for evaluation runs
    (decoded lazily on first access for the trie-family executors).  ``counter``
    carries the abstract operation counts (memory accesses, cache hits, ...)
    and ``elapsed_seconds`` the wall-clock time.
    """

    def __init__(
        self,
        algorithm: str,
        query_name: str,
        count: int,
        elapsed_seconds: float,
        counter: OperationCounter,
        variable_order: Tuple[Variable, ...] = (),
        rows: Optional[List[Tuple[object, ...]]] = None,
        metadata: Optional[Dict[str, object]] = None,
    ) -> None:
        self.algorithm = algorithm
        self.query_name = query_name
        self.count = count
        self.elapsed_seconds = elapsed_seconds
        self.counter = counter
        self.variable_order = variable_order
        self.metadata: Dict[str, object] = metadata if metadata is not None else {}
        self._rows = rows
        self._coded_rows: Optional[List[Tuple[int, ...]]] = None
        self._dictionary: Optional[ValueDictionary] = None

    # ------------------------------------------------------------------ rows
    @property
    def rows(self) -> Optional[List[Tuple[object, ...]]]:
        """The materialised result rows (``None`` for count-only runs).

        Trie-family executions store the rows as code tuples, decoded here,
        once, on first access; the decode work is added to
        ``metadata["decodes"]`` and the dictionary's global counter.
        """
        if self._rows is None and self._coded_rows is not None:
            dictionary = self._dictionary
            before = dictionary.decodes
            self._rows = dictionary.decode_rows(self._coded_rows)
            self.metadata["decodes"] = (
                self.metadata.get("decodes", 0) + dictionary.decodes - before
            )
            self._coded_rows = None
        return self._rows

    @rows.setter
    def rows(self, value: Optional[List[Tuple[object, ...]]]) -> None:
        self._rows = value

    def set_coded_rows(
        self, rows: List[Tuple[int, ...]], dictionary: ValueDictionary
    ) -> None:
        """Attach code-space rows to be decoded lazily on first access."""
        self._coded_rows = rows
        self._dictionary = dictionary
        self._rows = None

    # ------------------------------------------------------------ properties
    @property
    def memory_accesses(self) -> int:
        """Abstract memory accesses recorded during the execution."""
        return self.counter.memory_accesses

    @property
    def cache_hit_rate(self) -> float:
        """Adhesion-cache hit rate (0.0 for algorithms without a cache)."""
        return self.counter.cache_hit_rate

    def as_record(self) -> Dict[str, object]:
        """Flatten into a dictionary suitable for tabular reporting."""
        record: Dict[str, object] = {
            "algorithm": self.algorithm,
            "query": self.query_name,
            "count": self.count,
            "elapsed_seconds": self.elapsed_seconds,
        }
        record.update(self.counter.as_dict())
        record.update(self.metadata)
        return record

    def speedup_over(self, other: "ExecutionResult") -> float:
        """Wall-clock speedup of this execution relative to ``other``."""
        if self.elapsed_seconds == 0:
            return float("inf")
        return other.elapsed_seconds / self.elapsed_seconds

    def __repr__(self) -> str:
        return (
            f"ExecutionResult(algorithm={self.algorithm!r}, "
            f"query={self.query_name!r}, count={self.count}, "
            f"elapsed_seconds={self.elapsed_seconds})"
        )
