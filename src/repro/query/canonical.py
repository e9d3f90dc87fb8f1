"""Canonical keys for query patterns.

Statistic caches (Markov tables, degree catalogs) must recognise that
``a1 -A-> a2 -B-> a3`` and ``x -A-> y -B-> z`` are the same join, so
patterns are keyed by a canonical form that is invariant under variable
renaming.  Patterns stored in catalogs are tiny (at most ``h + 1``
variables for ``h ≤ 3``), so an exact canonical form by brute force over
variable orderings is cheap and avoids graph-isomorphism heuristics.
"""

from __future__ import annotations

from itertools import permutations

from repro.query.pattern import QueryPattern

__all__ = [
    "canonical_key",
    "canonical_order",
    "canonical_pattern",
    "key_from_json",
    "key_to_json",
]

_MAX_BRUTE_FORCE_VARS = 8


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
    """The pattern rebuilt with canonical variable names ``v0, v1, ...``."""
    key = canonical_key(pattern)
    return QueryPattern((f"v{s}", f"v{d}", label) for s, d, label in key)


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
