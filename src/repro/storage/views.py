"""Materialised atom views.

A query atom such as ``E(x, y)``, ``E(x, x)`` or ``R(x, 3, y)`` induces a view
over its *distinct variables*: constants become selections and repeated
variables become equality filters.  All join algorithms in this repository
work over these views, which keeps the trie/index logic free of per-term
special cases.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.query.atoms import Atom, ConjunctiveQuery
from repro.query.terms import Constant, Variable
from repro.storage.database import Database
from repro.storage.relation import Relation
from repro.storage.trie import LsmTrieIndex


def materialize_atom(database: Database, atom: Atom, name: Optional[str] = None) -> Relation:
    """Return the relation over the atom's distinct variables.

    The resulting relation has one attribute per distinct variable of the
    atom (named after the variable), in first-occurrence order.  Tuples are
    those of the base relation that satisfy the atom's constants and repeated
    variables.

    Raises ``ValueError`` for atoms without any variable (fully ground atoms
    are not part of the paper's query classes).
    """
    base = database.relation(atom.relation)
    if base.arity != atom.arity:
        raise ValueError(
            f"atom {atom} has arity {atom.arity} but relation "
            f"{base.name!r} has arity {base.arity}"
        )

    constant_checks: List[Tuple[int, object]] = []
    first_position: Dict[Variable, int] = {}
    equality_checks: List[Tuple[int, int]] = []
    for position, term in enumerate(atom.terms):
        if isinstance(term, Constant):
            constant_checks.append((position, term.value))
        else:
            if term in first_position:
                equality_checks.append((first_position[term], position))
            else:
                first_position[term] = position

    if not first_position:
        raise ValueError(f"atom {atom} has no variables; ground atoms are unsupported")

    projection = [first_position[variable] for variable in first_position]
    attributes = [variable.name for variable in first_position]

    rows = []
    for row in base.tuples:
        if any(row[pos] != value for pos, value in constant_checks):
            continue
        if any(row[left] != row[right] for left, right in equality_checks):
            continue
        rows.append(tuple(row[pos] for pos in projection))

    view_name = name or f"{atom.relation}_view_{'_'.join(attributes)}"
    return Relation(view_name, attributes, rows)


def atom_signature(atom: Atom) -> Tuple[object, ...]:
    """A hashable, variable-name-erased signature of the atom's induced view.

    Constants become ``("c", value)`` markers and variables become indices in
    first-occurrence order, so ``E(x, y)`` and ``E(a, b)`` share the signature
    ``(0, 1)`` while ``E(x, x)`` is ``(0, 0)`` and ``R(x, 3, y)`` is
    ``(0, ("c", 3), 1)``.  Two atoms over the same relation with equal
    signatures induce identical view *rows* (attribute names aside), so their
    indexes are interchangeable — this is the sharing key of
    :meth:`repro.storage.database.Database.view_index`.
    """
    signature: List[object] = []
    seen: Dict[Variable, int] = {}
    for term in atom.terms:
        if isinstance(term, Constant):
            signature.append(("c", term.value))
        else:
            signature.append(seen.setdefault(term, len(seen)))
    return tuple(signature)


def query_signature(query: ConjunctiveQuery) -> Tuple[object, ...]:
    """A hashable, variable-name-erased signature of a whole query.

    Extends :func:`atom_signature` across atoms: variables become indices in
    first-occurrence order *over the whole query* (so cross-atom joins are
    captured), constants become ``("c", value)`` markers, and each atom
    contributes ``(relation, term markers)``.  Two queries with equal
    signatures are identical up to a positional renaming of their
    ``variables`` tuples, so an execution plan computed for one is valid for
    the other after renaming — this is the sharing key of the database's
    plan cache (:meth:`repro.storage.database.Database.cached_plan`).
    """
    seen: Dict[Variable, int] = {}
    signature: List[object] = []
    for atom in query.atoms:
        markers: List[object] = []
        for term in atom.terms:
            if isinstance(term, Constant):
                markers.append(("c", term.value))
            else:
                markers.append(seen.setdefault(term, len(seen)))
        signature.append((atom.relation, tuple(markers)))
    return tuple(signature)


def atom_has_constants(atom: Atom) -> bool:
    """True when any term of ``atom`` is a constant."""
    return any(isinstance(term, Constant) for term in atom.terms)


def signature_view_rows(
    signature: Tuple[object, ...], rows: Sequence[Sequence[object]]
) -> List[Tuple[object, ...]]:
    """Map base-relation rows through a name-erased atom signature.

    Returns, for every row satisfying the signature's constants and
    repeated-variable equalities, the projected view tuple (first-occurrence
    positions, in marker order) — exactly the rows
    :func:`materialize_atom` would produce for any atom with this signature.
    Because the dropped positions are determined by the kept ones (constants
    are fixed, repeats equal a kept position), the mapping is injective on
    matching rows: effective base-relation deltas translate to effective
    view deltas, which is what lets
    :meth:`repro.storage.database.Database.insert` patch cached indexes in
    place instead of evicting them.
    """
    constant_checks: List[Tuple[int, object]] = []
    first_position: Dict[object, int] = {}
    equality_checks: List[Tuple[int, int]] = []
    for position, marker in enumerate(signature):
        if isinstance(marker, tuple):
            constant_checks.append((position, marker[1]))
        elif marker in first_position:
            equality_checks.append((first_position[marker], position))
        else:
            first_position[marker] = position
    # Markers are assigned in first-occurrence order, so sorting them yields
    # the projection in view-column order.
    projection = [first_position[marker] for marker in sorted(first_position)]
    result: List[Tuple[object, ...]] = []
    for row in rows:
        if any(row[position] != value for position, value in constant_checks):
            continue
        if any(row[left] != row[right] for left, right in equality_checks):
            continue
        result.append(tuple(row[position] for position in projection))
    return result


def shared_atom_index(
    database: Database,
    atom: Atom,
    column_order: Sequence[int],
    kind: str,
    build,
):
    """Get-or-build the shared index of ``kind`` for ``atom``'s view.

    ``build(view, order, dictionary)`` constructs the index from the
    materialised view in the code space of ``dictionary``, the database's
    shared value dictionary.  The index is memoised
    in the database's cache under the atom's name-erased signature, so
    repeated executor constructions — and different atoms inducing the same
    view, e.g. the three atoms of a triangle self-join — share one physical
    index.

    Constant-bearing atoms are *not* memoised: their signatures embed the
    constant values, so a parameterized workload (``R(x, c)`` for ever-new
    ``c``) would grow the cache without bound.  Their filtered views are
    small, so per-construction builds stay cheap — the seed behaviour.
    """
    order = tuple(column_order)
    dictionary = database.dictionary
    if atom_has_constants(atom):
        return build(materialize_atom(database, atom), order, dictionary)
    return database.view_index(
        kind,
        atom.relation,
        atom_signature(atom),
        order,
        lambda: build(materialize_atom(database, atom), order, dictionary),
    )


def atom_trie(database: Database, atom: Atom, column_order: Sequence[int]) -> LsmTrieIndex:
    """Return the shared trie for ``atom``'s view in ``column_order`` level order.

    ``column_order`` is a permutation of the view's columns (the atom's
    distinct variables in first-occurrence order); sharing and the
    constants exclusion follow :func:`shared_atom_index`.  Tries are built
    as updatable :class:`~repro.storage.trie.LsmTrieIndex` wrappers so
    :meth:`Database.insert` / ``delete`` can patch them in place.
    """
    return shared_atom_index(database, atom, column_order, "trie", LsmTrieIndex.build)


def atom_column_order(atom: Atom, depth_of: Dict[Variable, int]) -> Tuple[Tuple[Variable, ...], Tuple[int, ...]]:
    """The atom's distinct variables sorted by global depth, plus the matching
    permutation of its view columns.

    Shared by the trie-join family and GenericJoin so both derive identical
    level orders (and therefore identical shared-index cache keys).
    """
    variables = atom_variables_in_order(atom)
    ordered = tuple(sorted(variables, key=lambda variable: depth_of[variable]))
    column_order = tuple(variables.index(variable) for variable in ordered)
    return ordered, column_order


def atom_variables_in_order(atom: Atom) -> Tuple[Variable, ...]:
    """The distinct variables of ``atom`` in first-occurrence order.

    Matches the attribute order of :func:`materialize_atom`.
    """
    seen: List[Variable] = []
    for term in atom.terms:
        if isinstance(term, Variable) and term not in seen:
            seen.append(term)
    return tuple(seen)
