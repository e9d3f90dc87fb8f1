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

Every edge strictly grows the attribute set, so ``CEG_M`` is a DAG over
the ``2^n`` subsets in popcount order, and every rate of a non-empty
relation is at least 1.  :func:`molp_bound` therefore never builds the
graph: it runs a min-product DP over the subset lattice, one popcount
layer at a time, and each move ``(R, Y)`` reads its rates for a whole
layer in one gather from ``R``'s degree grid
(:func:`repro.catalog.degrees.degree_grid`).  Float products round
monotonically, so the minimum over the same left-fold path products is
the value a Dijkstra over the graph finds, bit for bit.  The lattice is
exponential: a query over :data:`MOLP_MAX_ATTRIBUTES` attributes gets
:class:`EstimationError`, and the DP runs in chunks of at most
:data:`_CHUNK_CELLS` (subset, move) cells.

Projection edges are omitted per Observation 3 / Appendix A (also
machine-checked: adding projection inequalities to the LP never changes
the optimum).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from repro.catalog.degrees import DegreeCatalog, degree_grid
from repro.errors import EstimationError
from repro.query.canonical import subpattern_form
from repro.query.pattern import QueryPattern

__all__ = ["MOLP_MAX_ATTRIBUTES", "MolpEdge", "molp_bound", "molp_min_path"]

#: Most query attributes MOLP answers.  The DP holds ``2^n`` floats and
#: visits ``2^n`` subsets per move, so this bounds one estimate's memory
#: and time; queries over it fail with :class:`EstimationError`.
MOLP_MAX_ATTRIBUTES = 16

#: (subset, move) cells per DP chunk: bounds the DP's temporaries.
_CHUNK_CELLS = 1 << 17


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


@dataclass(frozen=True)
class _Moves:
    """Every ``CEG_M`` move ``(R, Y)`` of one query, as arrays.

    Relations come in :meth:`QueryPattern.connected_edge_subsets` order
    and each relation's ``Y`` by ascending local mask, where local bit
    ``j`` is the relation's ``j``-th attribute in sorted order.
    """

    attrs: tuple  # the query's attributes; bit i = attrs[i]
    subsets: list  # atom subset of each relation
    qbits: np.ndarray  # (relations, width) query bit per local bit
    relation: np.ndarray  # relation index per move
    y_local: np.ndarray  # Y as a local mask, per move
    y_query: np.ndarray  # Y as a query mask, per move
    base: np.ndarray  # offset of the move's (R, Y) row in ``grid``
    grid: np.ndarray  # every relation's degree grid, back to back


def _moves(query: QueryPattern, catalog: DegreeCatalog) -> _Moves | None:
    """The query's moves, or None when some relation is empty (bound 0).

    Raises :class:`EstimationError` for a query over
    :data:`MOLP_MAX_ATTRIBUTES` attributes, before any lattice exists.
    """
    attrs = tuple(sorted(query.variables))
    bit_of = {var: i for i, var in enumerate(attrs)}
    subsets = query.connected_edge_subsets(max_size=catalog.h)
    empty = False
    tables = []
    for subset in subsets:
        edges = [query.edges[i] for i in sorted(subset)]
        key, order = subpattern_form(edges)
        relation = catalog.stored(key)
        empty = empty or relation.cardinality == 0
        names = list(dict.fromkeys(v for edge in edges for v in (edge.src, edge.dst)))
        canonical = {names[j]: i for i, j in enumerate(order)}
        local = sorted(names)
        tables.append(
            (
                [bit_of[var] for var in local],
                degree_grid(relation.values, tuple(canonical[v] for v in local)),
            )
        )
    if empty:
        return None
    if len(attrs) > MOLP_MAX_ATTRIBUTES:
        raise EstimationError(
            f"MOLP is limited to {MOLP_MAX_ATTRIBUTES} attributes; "
            f"the query has {len(attrs)}"
        )
    width = max(len(bits) for bits, _ in tables)
    # Padding bits point past the lattice: they always read 0.
    qbits = np.full((len(tables), width), len(attrs), dtype=np.int64)
    relation, y_local, y_query, base = [], [], [], []
    offset = 0
    for index, (bits, grid) in enumerate(tables):
        qbits[index, : len(bits)] = bits
        for y in range(1, 1 << len(bits)):
            relation.append(index)
            y_local.append(y)
            y_query.append(sum(1 << bits[j] for j in range(len(bits)) if y >> j & 1))
            base.append(offset + (y << len(bits)))
        offset += len(grid)
    return _Moves(
        attrs=attrs,
        subsets=[sorted(subset) for subset in subsets],
        qbits=qbits,
        relation=np.asarray(relation, dtype=np.int64),
        y_local=np.asarray(y_local, dtype=np.int64),
        y_query=np.asarray(y_query, dtype=np.int64),
        base=np.asarray(base, dtype=np.int64),
        grid=np.concatenate([grid for _, grid in tables]),
    )


@functools.lru_cache(maxsize=None)
def _popcount_layers(n: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """Subsets of ``n`` bits by popcount, and where each layer starts."""
    nodes = np.arange(1 << n, dtype=np.int64)
    counts = np.zeros(1 << n, dtype=np.int64)
    for bit in range(n):
        counts += (nodes >> bit) & 1
    order = np.argsort(counts, kind="stable")
    starts = np.searchsorted(counts[order], np.arange(n + 2))
    order.flags.writeable = False
    return order, tuple(int(s) for s in starts)


def _lattice(moves: _Moves) -> np.ndarray:
    """Minimum (∅, W) path product for every attribute subset ``W``."""
    n = len(moves.attrs)
    size = 1 << n
    nodes, starts = _popcount_layers(n)
    best = np.full(size, np.inf)
    best[0] = 1.0
    y_query = moves.y_query[:, None]
    y_local = moves.y_local[:, None]
    base = moves.base[:, None]
    shifts = np.arange(moves.qbits.shape[1], dtype=np.int64)
    step = max(1, _CHUNK_CELLS // len(moves.relation))
    # The full set (the last node) has no moves out.
    for begin in range(0, size - 1, step):
        end = min(begin + step, size - 1)
        chunk = nodes[begin:end]
        local = (
            ((chunk[None, :, None] >> moves.qbits[:, None, :]) & 1) << shifts
        ).sum(axis=2)
        rates = moves.grid[base + (local[moves.relation] & y_local)]
        heads = chunk | y_query
        live = (chunk & y_query) != y_query
        layer = 0
        while starts[layer + 1] <= begin:
            layer += 1
        while starts[layer] < end:
            lo = max(starts[layer], begin) - begin
            hi = min(starts[layer + 1], end) - begin
            keep = live[:, lo:hi]
            np.minimum.at(
                best,
                heads[:, lo:hi][keep],
                (best[chunk[lo:hi]] * rates[:, lo:hi])[keep],
            )
            layer += 1
    return best


def molp_bound(query: QueryPattern, catalog: DegreeCatalog) -> float:
    """The MOLP pessimistic cardinality bound ``2^{m_A}`` for the query."""
    moves = _moves(query, catalog)
    if moves is None:
        return 0.0
    bound = float(_lattice(moves)[-1])
    if bound == np.inf:
        raise EstimationError("CEG_M has no (∅, A) path for this query")
    return bound


def molp_min_path(
    query: QueryPattern, catalog: DegreeCatalog
) -> tuple[float, list[MolpEdge]]:
    """MOLP bound and a minimum-weight (∅, A) path realising it.

    The bound is :func:`molp_bound`'s.  The path is read back from the
    lattice DP, walking down from the full attribute set.  Among the
    (source, move) pairs whose product reproduces a subset's value bit
    for bit, each step takes the source with the smallest value, then
    the smallest source mask (bit ``i`` = the ``i``-th sorted
    attribute), then the earliest move (relations in
    :meth:`QueryPattern.connected_edge_subsets` order, each ``Y`` by
    ascending mask over the relation's sorted attributes).  The path's
    left-fold product is therefore the bound exactly.  Where several
    paths tie, this usually, not always, picks the one a Dijkstra over
    the graph settles first.  An empty relation gives ``(0.0, [])``.
    """
    moves = _moves(query, catalog)
    if moves is None:
        return 0.0, []
    best = _lattice(moves)
    full = len(best) - 1
    if best[full] == np.inf:
        raise EstimationError("CEG_M has no (∅, A) path for this query")
    values = best.tolist()
    steps = []
    node = full
    while node:
        source, r, y_query, rate = _predecessor(node, values, moves)
        steps.append((source, node, r, y_query, rate))
        node = source

    def names(mask: int) -> frozenset[str]:
        return frozenset(a for i, a in enumerate(moves.attrs) if mask >> i & 1)

    path = [
        MolpEdge(
            source_attrs=names(source),
            target_attrs=names(target),
            x=names(source & y_query),
            y=names(y_query),
            relation=query.subpattern(moves.subsets[r]),
            rate=rate,
        )
        for source, target, r, y_query, rate in reversed(steps)
    ]
    return values[full], path


def _predecessor(
    node: int, values: list[float], moves: _Moves
) -> tuple[int, int, int, float]:
    """``(source, relation, Y, rate)`` of the step into ``node`` that
    :func:`molp_min_path`'s tie rule picks."""
    qbits = moves.qbits.tolist()
    chosen = None
    for m, (r, y_local, y_query, base) in enumerate(
        zip(
            moves.relation.tolist(), moves.y_local.tolist(),
            moves.y_query.tolist(), moves.base.tolist(),
        )
    ):
        if y_query & ~node:
            continue
        rest = node & ~y_query
        part = 0
        while part != y_query:  # every proper subset of Y, ascending
            source = rest | part
            local = sum(1 << j for j, bit in enumerate(qbits[r]) if source >> bit & 1)
            rate = float(moves.grid[base + (local & y_local)])
            if values[source] * rate == values[node]:
                rank = (values[source], source, m)
                if chosen is None or rank < chosen[0]:
                    chosen = (rank, (source, r, y_query, rate))
            part = (part - y_query) & y_query
    return chosen[1]
