"""Integer dictionary encoding for join processing in code space.

Every seek in the LFTJ/CLFTJ hot loop compares keys; with arbitrary Python
objects (strings, tuples) each comparison pays rich-dispatch overhead, so the
columnar trie backend is bottlenecked on per-key interpreter work rather than
memory bandwidth.  The standard systems answer is *dictionary encoding*: map
every distinct value to a dense integer code once, at index-build time, and
run the entire join over ``int`` columns.

:class:`ValueDictionary` is the per-database code table.  It is:

* **append-only** — codes are assigned in first-encounter order and never
  change, so cached indexes, adhesion-cache keys and prepared queries stay
  valid forever; delta updates encode genuinely-new values by *appending*
  entries, never re-coding existing ones;
* **shared across relations** — all indexes of one database draw codes from
  one table, so code equality means value equality across atoms.  Code
  *order* is an arbitrary but consistent total order, which is exactly what
  equi-joins need (the trie levels sort by code, not by value);
* **decode-counting** — every decode operation bumps :attr:`decodes`, which
  is how tests and benchmarks prove that count-only queries run end to end
  without a single decode (values are only materialised lazily at the result
  boundary, see :mod:`repro.engine.results`).

``numpy`` is optional: when importable, encoded key columns additionally
expose zero-copy ``int64`` views used by the batched leapfrog kernels
(:func:`repro.core.leapfrog.intersect_count`); without it the pure-Python
``array('q')`` path serves everything.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

try:  # pragma: no cover - exercised via the CI numpy matrix
    import numpy
except ImportError:  # pragma: no cover
    numpy = None  # type: ignore[assignment]

#: True when numpy is importable; the encoded columns then carry zero-copy
#: ``int64`` views for the batched intersection kernels.
HAVE_NUMPY = numpy is not None


class ValueDictionary:
    """An append-only bidirectional value <-> dense-int-code table.

    ``encode`` assigns the next free code to unseen values; ``decode`` maps
    codes back and counts every such operation in :attr:`decodes`.  Note
    that, like relations themselves (which deduplicate tuples through a
    ``set``), the table identifies values that compare equal across types
    (``1 == 1.0 == True`` share one code and decode to the first-seen
    representative).
    """

    __slots__ = ("_codes", "_values", "decodes")

    def __init__(self) -> None:
        self._codes: Dict[object, int] = {}
        self._values: List[object] = []
        #: Number of code->value decode operations performed, ever.  The
        #: zero-decode guarantee for count-only queries is asserted on this.
        self.decodes: int = 0

    # ---------------------------------------------------------------- encode
    def encode(self, value: object) -> int:
        """The code of ``value``, appending a new entry for unseen values.

        Raises ``TypeError`` for unhashable values (relations reject those
        before any index build reaches the dictionary).
        """
        code = self._codes.get(value)
        if code is None:
            code = len(self._values)
            self._codes[value] = code
            self._values.append(value)
        return code

    def encode_row(self, row: Sequence[object]) -> Tuple[int, ...]:
        """Encode every value of one tuple (appending unseen values)."""
        encode = self.encode
        return tuple(encode(value) for value in row)

    def encode_rows(self, rows: Iterable[Sequence[object]]) -> List[Tuple[int, ...]]:
        """Encode many tuples (appending unseen values)."""
        encode_row = self.encode_row
        return [encode_row(row) for row in rows]

    def code_of(self, value: object) -> Optional[int]:
        """The existing code of ``value``, or ``None`` — never appends."""
        try:
            return self._codes.get(value)
        except TypeError:
            return None

    def try_encode_row(self, row: Sequence[object]) -> Optional[Tuple[int, ...]]:
        """Encode a tuple without appending; ``None`` if any value is unseen.

        Used for membership-style lookups (deletes, ``contains`` probes): a
        tuple containing a value the dictionary has never seen cannot be in
        any encoded index.
        """
        codes = []
        for value in row:
            code = self.code_of(value)
            if code is None:
                return None
            codes.append(code)
        return tuple(codes)

    # ---------------------------------------------------------------- decode
    def decode(self, code: int) -> object:
        """The value behind ``code`` (counted in :attr:`decodes`)."""
        try:
            value = self._values[code]
        except (IndexError, TypeError) as exc:
            raise ValueError(f"unknown dictionary code {code!r}") from exc
        self.decodes += 1
        return value

    def decode_row(self, row: Sequence[int]) -> Tuple[object, ...]:
        """Decode one code tuple back to values (counted per value)."""
        values = self._values
        self.decodes += len(row)
        return tuple(values[code] for code in row)

    def decode_rows(self, rows: Iterable[Sequence[int]]) -> List[Tuple[object, ...]]:
        """Decode many code tuples (counted per value)."""
        decode_row = self.decode_row
        return [decode_row(row) for row in rows]

    # ------------------------------------------------------------- reporting
    def __len__(self) -> int:
        return len(self._values)

    def __contains__(self, value: object) -> bool:
        return self.code_of(value) is not None

    def __repr__(self) -> str:
        return f"ValueDictionary(entries={len(self._values)}, decodes={self.decodes})"
