"""``CEG_M`` — the CEG of the MOLP pessimistic bound (§5.1).

Vertices are subsets of the query's attributes (variables); an extension
edge from ``W`` to ``W ∪ Y`` exists for every statistic relation ``R``
(base atom or stored small join, §5.1.1) and every ``Y ⊆ attrs(R)`` not
already inside ``W``, with rate ``deg(X, Y, R)`` where ``X = W ∩ Y``.
Using the maximal ``X`` is lossless: ``deg`` is antitone in ``X``, so a
minimum-weight path never benefits from a smaller conditioning set.

Theorem 5.1 (machine-checked in the test suite against the scipy LP of
:mod:`repro.core.molp`): the minimum-weight (∅, A) path equals the MOLP
optimum, so :func:`molp_bound` *is* the MOLP pessimistic estimator, and
every (∅, A) path is itself an upper bound (Observation 1).

Projection edges are omitted per Observation 3 / Appendix A (also
machine-checked: adding projection inequalities to the LP never changes
the optimum).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from repro.catalog.degrees import DegreeCatalog, RelationView
from repro.core.ceg import CEG
from repro.errors import EstimationError
from repro.query.pattern import QueryPattern

__all__ = ["MolpEdge", "molp_bound", "molp_min_path", "build_ceg_m"]


@dataclass(frozen=True)
class MolpEdge:
    """Metadata of one ``CEG_M`` extension edge."""

    source_attrs: frozenset[str]
    target_attrs: frozenset[str]
    x: frozenset[str]
    y: frozenset[str]
    relation: QueryPattern
    rate: float

    @property
    def is_bound(self) -> bool:
        """Bound edges condition on a non-empty ``X`` (§5.2.1)."""
        return bool(self.x)

    @property
    def extension_attrs(self) -> frozenset[str]:
        """Attributes introduced by this edge."""
        return self.target_attrs - self.source_attrs


def _subsets(items: tuple[str, ...]):
    n = len(items)
    for mask in range(1, 1 << n):
        yield frozenset(items[i] for i in range(n) if mask >> i & 1)


def _relation_moves(
    relations: list[RelationView],
) -> list[tuple[RelationView, frozenset[str]]]:
    moves: list[tuple[RelationView, frozenset[str]]] = []
    for relation in relations:
        attrs = tuple(sorted(relation.attributes))
        for y in _subsets(attrs):
            moves.append((relation, y))
    return moves


def molp_min_path(
    query: QueryPattern, catalog: DegreeCatalog
) -> tuple[float, list[MolpEdge]]:
    """MOLP bound and the minimum-weight (∅, A) path realising it.

    Runs a lazy Dijkstra over attribute subsets with multiplicative
    weights (all rates ≥ 1 once empty relations are ruled out, so the
    product order is monotone).  Subsets are int bitmasks over the
    query's sorted attributes — successor generation is bit arithmetic
    — with the same move enumeration and relaxation order as the
    frozenset implementation, so bound and path are unchanged.
    """
    relations = catalog.stat_relations(query)
    if any(relation.cardinality == 0 for relation in relations):
        return 0.0, []
    attrs = tuple(sorted(query.variables))
    bit_of = {var: i for i, var in enumerate(attrs)}
    frozen_cache: dict[int, frozenset[str]] = {}

    def frozen(mask: int) -> frozenset[str]:
        cached = frozen_cache.get(mask)
        if cached is None:
            cached = frozenset(
                attrs[i] for i in range(len(attrs)) if mask >> i & 1
            )
            frozen_cache[mask] = cached
        return cached

    # One (y_mask, rate-cache, relation, y) tuple per legacy move, in
    # the legacy enumeration order.  deg(X, Y) values are memoised per
    # conditioning mask X: the Dijkstra relaxes every settled node
    # against every move, so the same (X, Y) pair recurs constantly and
    # the inlined int-keyed cache replaces frozenset hashing inside the
    # degree tables on the hot loop.
    moves = [
        (_mask_of(y, bit_of), {}, relation, y)
        for relation, y in _relation_moves(relations)
    ]
    all_mask = (1 << len(attrs)) - 1
    dist: dict[int, float] = {0: 1.0}
    via: dict[int, tuple[int, RelationView, frozenset[str], int, float]] = {}
    counter = 0
    heap: list[tuple[float, int, int]] = [(1.0, counter, 0)]
    settled: set[int] = set()
    infinity = float("inf")
    while heap:
        weight, _, node = heapq.heappop(heap)
        if node in settled:
            continue
        settled.add(node)
        if node == all_mask:
            break
        for y_mask, rates, relation, y in moves:
            if not y_mask & ~node:
                continue
            x_mask = node & y_mask
            rate = rates.get(x_mask)
            if rate is None:
                rate = relation.deg(frozen(x_mask), y)
                rates[x_mask] = rate
            candidate = weight * rate
            target = node | y_mask
            if candidate < dist.get(target, infinity):
                dist[target] = candidate
                via[target] = (node, relation, y, x_mask, rate)
                counter += 1
                heapq.heappush(heap, (candidate, counter, target))
    if all_mask not in dist:
        raise EstimationError("CEG_M has no (∅, A) path for this query")
    path: list[MolpEdge] = []
    node = all_mask
    while node != 0:
        source, relation, y, x_mask, rate = via[node]
        path.append(
            MolpEdge(
                source_attrs=frozen(source),
                target_attrs=frozen(node),
                x=frozen(x_mask),
                y=y,
                relation=relation.pattern,
                rate=rate,
            )
        )
        node = source
    path.reverse()
    return dist[all_mask], path


def _mask_of(variables: frozenset[str], bit_of: dict[str, int]) -> int:
    mask = 0
    for var in variables:
        mask |= 1 << bit_of[var]
    return mask


def molp_bound(query: QueryPattern, catalog: DegreeCatalog) -> float:
    """The MOLP pessimistic cardinality bound ``2^{m_A}`` for the query."""
    bound, _ = molp_min_path(query, catalog)
    return bound


def build_ceg_m(
    query: QueryPattern,
    catalog: DegreeCatalog,
    max_attributes: int = 14,
) -> CEG:
    """Materialise the full ``CEG_M`` (for path analysis and theory tests).

    Vertices are all ``2^n`` attribute subsets; edges carry
    :class:`MolpEdge` payloads.  Guarded by ``max_attributes`` because
    the explicit graph is exponential — estimation should go through
    :func:`molp_bound`, which explores lazily.
    """
    attrs = tuple(sorted(query.variables))
    if len(attrs) > max_attributes:
        raise EstimationError(
            f"explicit CEG_M limited to {max_attributes} attributes"
        )
    relations = catalog.stat_relations(query)
    moves = _relation_moves(relations)
    all_attrs = frozenset(attrs)
    ceg = CEG(source=frozenset(), target=all_attrs)
    for mask in range(1 << len(attrs)):
        node = frozenset(attrs[i] for i in range(len(attrs)) if mask >> i & 1)
        ceg.add_node(node, rank=len(node))
    for mask in range(1 << len(attrs)):
        node = frozenset(attrs[i] for i in range(len(attrs)) if mask >> i & 1)
        for relation, y in moves:
            if y <= node:
                continue
            x = node & y
            rate = relation.deg(x, y)
            edge = MolpEdge(
                source_attrs=node,
                target_attrs=node | y,
                x=x,
                y=y,
                relation=relation.pattern,
                rate=rate,
            )
            ceg.add_edge(
                node,
                node | y,
                rate,
                description=f"deg({sorted(x)},{sorted(y)})",
                payload=edge,
            )
    ceg.prune_unreachable()
    return ceg
