"""Canonical keys for query patterns.

Statistic caches (Markov tables, degree catalogs) must recognise that
``a1 -A-> a2 -B-> a3`` and ``x -A-> y -B-> z`` are the same join, so
patterns are keyed by a canonical form that is invariant under variable
renaming.  Patterns stored in catalogs are tiny (at most ``h + 1``
variables for ``h ≤ 3``), so an exact canonical form by brute force over
variable orderings is cheap and avoids graph-isomorphism heuristics.
"""

from __future__ import annotations

import functools
from itertools import permutations
from typing import Iterable

from repro.query.pattern import QueryEdge, QueryPattern

__all__ = [
    "canonical_key",
    "canonical_order",
    "canonical_parent",
    "canonical_pattern",
    "growth_order",
    "key_pattern",
    "subpattern_form",
    "key_from_json",
    "key_to_json",
]

_MAX_BRUTE_FORCE_VARS = 8

#: Entries of the :func:`subpattern_form`, :func:`canonical_parent` and
#: :func:`key_pattern` memos.  An entry is a shape and its canonical
#: form, parent or pattern, never a statistic, so it stays valid across
#: data changes and generation swaps.
SUBPATTERN_MEMO_SIZE = 8192


def _encode(pattern: QueryPattern, order: tuple[str, ...]) -> tuple:
    position = {var: i for i, var in enumerate(order)}
    return tuple(
        sorted((position[e.src], position[e.dst], e.label) for e in pattern.edges)
    )


def canonical_key(pattern: QueryPattern) -> tuple:
    """A hashable key equal for all variable-renamings of the pattern.

    For patterns with at most :data:`_MAX_BRUTE_FORCE_VARS` variables the
    key is exact (minimum encoding over all variable orderings, pruned by
    a degree/label refinement).  Larger patterns fall back to a sorted
    neighbourhood-signature encoding: still renaming-invariant and never
    conflating non-isomorphic patterns (the encoding reconstructs the
    pattern exactly), though two renamings of a symmetric large pattern
    may receive different keys (a missed cache share, never a false one).

    The key is memoized on the (immutable) pattern, since the caching
    layers recompute it for every lookup.
    """
    cached = pattern._canonical_key
    if cached is not None:
        return cached
    variables = pattern.variables
    if len(variables) <= _MAX_BRUTE_FORCE_VARS:
        groups = _refinement_groups(pattern)
        key: tuple | None = None
        for candidate in _orders_respecting_groups(groups):
            encoded = _encode(pattern, candidate)
            if key is None or encoded < key:
                key, order = encoded, candidate
        assert key is not None
    else:
        signature = {var: _var_signature(pattern, var) for var in variables}
        order = tuple(sorted(variables, key=lambda v: (signature[v], v)))
        key = _encode(pattern, order)
    pattern._canonical_key = key
    pattern._canonical_order = order
    return key


def canonical_order(pattern: QueryPattern) -> tuple[str, ...]:
    """The variable order realising :func:`canonical_key`.

    ``order[i]`` plays canonical variable ``v{i}``: renaming the pattern
    by it yields :func:`canonical_pattern`.  Memoized with the key.
    """
    if pattern._canonical_order is None:
        canonical_key(pattern)
    return pattern._canonical_order


def canonical_pattern(pattern: QueryPattern) -> QueryPattern:
    """The pattern rebuilt with canonical variable names ``v0, v1, ...``.

    Built afresh rather than through the :func:`key_pattern` memo: the
    serving path calls this for every new query shape, which a process
    should not keep.
    """
    return _decode(canonical_key(pattern))


@functools.lru_cache(maxsize=SUBPATTERN_MEMO_SIZE)
def key_pattern(key: tuple) -> QueryPattern:
    """The canonical pattern a canonical key denotes (``v0, v1, ...``).

    Memoized: patterns are immutable, and the one shared instance also
    carries its memoized canonical key and order, so maintenance decodes
    each stored key once per process.
    """
    return _decode(key)


def _decode(key: tuple) -> QueryPattern:
    return QueryPattern((f"v{s}", f"v{d}", label) for s, d, label in key)


def subpattern_form(edges: Iterable[QueryEdge]) -> tuple[tuple, tuple[int, ...]]:
    """Canonical key and order of the pattern made of ``edges``.

    ``order[i]`` is the position, among the edges' variables in order of
    first appearance, of the variable playing canonical ``v{i}``.  For
    at most :data:`_MAX_BRUTE_FORCE_VARS` variables the search never
    reads variable names, so the form is memoized (up to
    :data:`SUBPATTERN_MEMO_SIZE` shapes) under the atoms with variables
    numbered by first appearance: a hit builds no
    :class:`QueryPattern` and runs no search.  The CEG builders call this
    for every ≤h subpattern of every query.
    """
    edges = tuple(edges)
    numbering: dict[str, int] = {}
    atoms = []
    for edge in edges:
        src = numbering.setdefault(edge.src, len(numbering))
        dst = numbering.setdefault(edge.dst, len(numbering))
        atoms.append((src, dst, edge.label))
    if len(numbering) > _MAX_BRUTE_FORCE_VARS:
        pattern = QueryPattern(edges)
        order = canonical_order(pattern)
        return canonical_key(pattern), tuple(numbering[v] for v in order)
    return _numbered_form(tuple(atoms))


@functools.lru_cache(maxsize=SUBPATTERN_MEMO_SIZE)
def _numbered_form(atoms: tuple) -> tuple[tuple, tuple[int, ...]]:
    pattern = QueryPattern((str(s), str(d), label) for s, d, label in atoms)
    key = canonical_key(pattern)
    return key, tuple(int(var) for var in canonical_order(pattern))


@functools.lru_cache(maxsize=SUBPATTERN_MEMO_SIZE)
def canonical_parent(key: tuple) -> tuple | None:
    """The one pattern a canonical key grows from (``None`` for one atom).

    Among the connected subpatterns one atom smaller that keep the key's
    smallest label, the one with the smallest canonical key — a pure
    function of the key, so every table of a pattern grows along the
    same chain of ancestors (canonical augmentation: McKay 1998; gSpan's
    single generating parent).  Keeping the smallest label keeps the
    parent in the min-label shard of a full build.
    """
    return _parent_step(key_pattern(key), list(range(len(key))))[0]


def growth_order(pattern: QueryPattern) -> list[int]:
    """``pattern``'s atom indexes in the order its parent chain adds them.

    Prefix ``i`` of the order is a subpattern whose canonical key is the
    key's ancestor of ``i`` atoms under :func:`canonical_parent`, so two
    renamings or atom orders of one pattern join isomorphic prefixes.
    """
    remaining = list(range(len(pattern)))
    added: list[int] = []
    while len(remaining) > 1:
        added.append(remaining.pop(_parent_step(pattern, remaining)[1]))
    return remaining + added[::-1]


def _parent_step(
    pattern: QueryPattern, atoms: list[int]
) -> tuple[tuple | None, int]:
    """Canonical parent of the subpattern made of ``atoms`` (indexes into
    ``pattern``), and the position in ``atoms`` of the atom it lacks.

    The one rule behind :func:`canonical_parent` and :func:`growth_order`.
    """
    if len(atoms) == 1:
        return None, 0
    smallest = min(pattern.edges[i].label for i in atoms)
    parent, lacks = None, 0
    for position in range(len(atoms)):
        rest = atoms[:position] + atoms[position + 1:]
        if smallest not in (pattern.edges[i].label for i in rest):
            continue
        if not pattern.is_connected_subset(rest):
            continue
        key, _ = subpattern_form(pattern.edges[i] for i in rest)
        if parent is None or key < parent:
            parent, lacks = key, position
    return parent, lacks


def key_to_json(key: tuple) -> list:
    """A canonical key as a JSON list of ``[src, dst, label]`` atoms."""
    return [[src, dst, label] for src, dst, label in key]


def key_from_json(atoms: list) -> tuple:
    """The canonical key :func:`key_to_json` wrote."""
    return tuple((int(src), int(dst), str(label)) for src, dst, label in atoms)


def _var_signature(pattern: QueryPattern, var: str) -> tuple:
    outgoing = sorted(e.label for e in pattern.edges if e.src == var)
    incoming = sorted(e.label for e in pattern.edges if e.dst == var)
    return (tuple(outgoing), tuple(incoming))


def _refinement_groups(pattern: QueryPattern) -> list[list[str]]:
    """Variables grouped by local signature; only same-group orders swap."""
    by_signature: dict[tuple, list[str]] = {}
    for var in pattern.variables:
        by_signature.setdefault(_var_signature(pattern, var), []).append(var)
    return [by_signature[s] for s in sorted(by_signature)]


def _orders_respecting_groups(groups: list[list[str]]):
    """All variable orders obtained by permuting within signature groups.

    Variables with different local signatures can never be exchanged by an
    isomorphism, so a canonical minimum over within-group permutations is
    exact while keeping the search far below ``n!``.
    """
    per_group = [list(permutations(group)) for group in groups]

    def rec(index: int, prefix: tuple[str, ...]):
        if index == len(per_group):
            yield prefix
            return
        for perm in per_group[index]:
            yield from rec(index + 1, prefix + perm)

    yield from rec(0, ())
