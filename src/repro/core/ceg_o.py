"""``CEG_O`` — the CEG of optimistic estimators (§4.2), and its
cycle-closing-rate variant ``CEG_OCR`` (§4.3).

Vertices are connected subsets of the query's atoms.  An edge from ``S``
to ``S' = S ∪ D`` exists for every stored extension pattern ``E`` (a
connected Markov-table join) with ``D = E \\ S ≠ ∅`` and intersection
``I = E ∩ S ≠ ∅`` also stored; its rate is ``|E| / |I|`` — the average
number of ``E``-extensions per ``I``-match (the uniformity assumption).

Two rules from prior work shape the edge set:

* *size-h numerators*: extension patterns always have exactly
  ``min(h, |Q|)`` atoms when possible (largest stored join conditions on
  the most context), falling back to smaller ``E`` only when no size-h
  extension exists;
* *early cycle closing* (§4.2, from reference [20]): whenever some
  successor closes a cycle that ``S`` leaves open, only cycle-closing
  successors are kept.

``CEG_OCR`` replaces the rate of an edge whose single new atom completes
a cycle longer than ``h`` with the sampled cycle-closing probability
``P(E_{i-1} * E_{i+1} | E_i)`` (§4.3), falling back to the ``CEG_O``
rate when the statistic is unavailable.

Every edge is a pure function of two atom bitmasks (bit ``i`` = atom
``i``), the vertex ``S`` and the extension ``E``, so the builder never
walks the graph.  It evaluates every (subset, extension) cell of the
``2^n`` atom-subset lattice as whole NumPy arrays, in row chunks of at
most :data:`repro.core.ceg_m._CHUNK_CELLS` cells: validity, both rules
and the ``CEG_OCR`` filters.  Reachability from ∅ then propagates one
popcount layer at a time, and the reached subsets and their edges are
laid out directly in the order contract of :mod:`repro.core.compiled`.
The lattice shares MOLP's bound: a query over
:data:`~repro.core.ceg_m.MOLP_MAX_ATTRIBUTES` atoms gets
:class:`EstimationError` before any lattice exists.

The extensions' cardinalities are read once, by canonical key through
:func:`repro.query.canonical.subpattern_form`.  ``CEG_OCR`` issues its
``rate()`` calls in the order of the frozenset stack BFS kept in
``tests/oracles/ceg.py``, because the sampled rates depend on it.
"""

from __future__ import annotations

import functools

import numpy as np

from repro.catalog.cycle_rates import CycleClosingRates
from repro.catalog.markov import MarkovTable
from repro.core import ceg_m
from repro.core.ceg import CEG, layout
from repro.core.ceg_m import MOLP_MAX_ATTRIBUTES, _popcount_layers
from repro.errors import EstimationError
from repro.query.canonical import subpattern_form
from repro.query.pattern import QueryPattern
from repro.query.shape import _bits, cycle_masks

__all__ = ["build_ceg_o", "build_ceg_ocr"]


def build_ceg_o(
    query: QueryPattern,
    markov: MarkovTable,
    cycle_rates: CycleClosingRates | None = None,
    size_h_rule: bool = True,
    early_cycle_closing: bool = True,
) -> CEG:
    """Build ``CEG_O`` (or ``CEG_OCR`` when ``cycle_rates`` is given).

    ``size_h_rule`` and ``early_cycle_closing`` toggle the two §4.2
    path-limiting rules (both on in the paper; off only for ablations).
    """
    n = len(query)
    if n > MOLP_MAX_ATTRIBUTES:
        raise EstimationError(
            f"CEG_O is limited to {MOLP_MAX_ATTRIBUTES} atoms; "
            f"the query has {n}"
        )
    lattice = _Lattice(query, markov, _adjacency(query), min(markov.h, n))
    # A connected query with fewer atoms than variables is a tree.
    cycles = cycle_masks(query) if n >= len(query.variables) else []
    if early_cycle_closing and cycles:
        lattice.close_early(cycles)
    large = [c for c in cycles if c.bit_count() > markov.h]
    if cycle_rates is not None and large:
        lattice.rate_closures(large)
    reached, sources, columns, calls = lattice.walk(size_h_rule)

    order, ranks = _layout_order(n)
    in_order = reached[order]
    vertices = order[in_order]
    position = np.empty(1 << n, dtype=np.int64)
    position[vertices] = np.arange(len(vertices), dtype=np.int64)
    extensions = lattice.columns[columns]
    numerator = lattice.card[extensions]
    denominator = lattice.card[extensions & sources]
    rates = np.divide(
        numerator, denominator,
        out=np.zeros(len(numerator)), where=denominator > 0,
    )
    tails = position[sources]
    heads = position[sources | extensions]
    if calls is not None:
        _sample_closing_rates(
            query, cycle_rates, large, len(vertices), tails, heads,
            extensions & ~sources, calls, rates,
        )
    full = (1 << n) - 1
    if not reached[full]:
        raise EstimationError("CEG_O construction produced no complete path")
    # Keys are built from the ascending atoms, as _layout_order's are.
    keys = tuple(frozenset(_bits(mask)) for mask in vertices.tolist())
    return layout(
        keys, ranks[in_order], 0, int(position[full]), tails, heads, rates
    )


def build_ceg_ocr(
    query: QueryPattern,
    markov: MarkovTable,
    cycle_rates: CycleClosingRates,
) -> CEG:
    """Build ``CEG_OCR`` (§4.3): ``CEG_O`` with cycle-closing rates."""
    return build_ceg_o(query, markov, cycle_rates=cycle_rates)


@functools.lru_cache(maxsize=None)
def _layout_order(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Every subset of ``n`` atoms in position order, and its popcount.

    Positions run by (popcount, ``repr`` of the frozenset built from the
    ascending atoms); from nine atoms on, that ``repr`` depends on the
    insertion order, so the keys are built the same way.
    """
    masks = sorted(
        range(1 << n),
        key=lambda mask: (mask.bit_count(), repr(frozenset(_bits(mask)))),
    )
    order = np.asarray(masks, dtype=np.int64)
    ranks = np.asarray([mask.bit_count() for mask in masks], dtype=np.int64)
    order.flags.writeable = False
    ranks.flags.writeable = False
    return order, ranks


def _adjacency(query: QueryPattern) -> list[int]:
    """``adjacent[i]``: the atoms sharing a variable with atom ``i``
    (``i`` included).  Raises :class:`EstimationError` unless the query
    is connected."""
    adjacent = [0] * len(query)
    for var in query.variables:
        incident = query.edges_at(var)
        var_mask = sum(1 << index for index in incident)
        for index in incident:
            adjacent[index] |= var_mask
    reach = frontier = 1
    while frontier:
        for index in _bits(frontier):
            frontier |= adjacent[index]
        frontier &= ~reach
        reach |= frontier
    if reach != (1 << len(query)) - 1:
        raise EstimationError("CEG_O requires a connected query")
    return adjacent


class _Lattice:
    """The (subset, extension) cells of one query's ``CEG_O``.

    ``columns`` holds the connected atom subsets of at most ``size``
    atoms in candidate column order: larger first, then by ascending
    sorted atoms.  ``card`` and ``connected`` are dense over the lattice;
    ``card[0]`` is 1, so the rate out of ∅ is ``|E|``.
    """

    def __init__(
        self,
        query: QueryPattern,
        markov: MarkovTable,
        adjacent: list[int],
        size: int,
    ):
        n = len(query)
        extensions = _connected_subsets(adjacent, size)
        edges = query.edges
        self.n = n
        self.columns = np.asarray(
            [mask for _, _, mask in extensions], dtype=np.int64
        )
        self.sizes = np.asarray(
            [-negated for negated, _, _ in extensions], dtype=np.int64
        )
        self.top = self.sizes == size
        self.card = np.zeros(1 << n)
        self.card[self.columns] = [
            markov.keyed_cardinality(
                subpattern_form(edges[i] for i in atoms)[0]
            )
            for _, atoms, _ in extensions
        ]
        self.card[0] = 1.0
        self.connected = np.zeros(1 << n, dtype=bool)
        self.connected[self.columns] = True
        self.closed: np.ndarray | None = None
        self.large: np.ndarray | None = None

    def close_early(self, cycles: list[int]) -> None:
        """Turn on early cycle closing: ``closed[S]`` counts the cycles
        inside ``S``, so ``S ∪ E`` closes one iff it counts more."""
        closed = np.zeros(1 << self.n, dtype=np.int64)
        closed[cycles] = 1
        for bit in range(self.n):
            halves = closed.reshape(-1, 2, 1 << bit)
            halves[:, 1, :] += halves[:, 0, :]
        self.closed = closed

    def rate_closures(self, large: list[int]) -> None:
        """Turn on the ``CEG_OCR`` filters for the cycles longer than
        ``h`` (in :func:`cycle_masks` order)."""
        self.large = np.asarray(large, dtype=np.int64)

    def walk(
        self, size_h_rule: bool
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray | None]:
        """Reached subsets, and each kept cell of a reached subset.

        Returns ``(reached, sources, columns, calls)``: a dense reached
        flag, then per edge its source subset, its extension column and
        the index into the large cycles of the cycle its sampled rate
        closes (-1 for none; ``calls`` is None without ``CEG_OCR``).
        Rows run in position order (:func:`_layout_order`), each row's
        cells by column, so the edges come out in emission order.  That
        order is popcount-major: a subset's flag is final once every
        smaller popcount layer has propagated.
        """
        n = self.n
        nodes = _layout_order(n)[0]
        starts = _popcount_layers(n)[1]
        full = (1 << n) - 1
        reached = np.zeros(1 << n, dtype=bool)
        reached[0] = True
        parts = []
        step = max(1, ceg_m._CHUNK_CELLS // len(self.columns))
        # The full set (the last node) has no extensions left.
        for begin in range(0, full, step):
            end = min(begin + step, full)
            chunk = nodes[begin:end]
            keep, calls = self._cells(chunk, size_h_rule)
            rows, columns = np.divmod(np.flatnonzero(keep), len(self.columns))
            sources = chunk[rows]
            targets = sources | self.columns[columns]
            # Rows run in layer order: where each layer's cells begin.
            bounds = np.searchsorted(rows, np.asarray(starts) - begin).tolist()
            for lo, hi in zip(bounds, bounds[1:]):
                if lo < hi:
                    live = reached[sources[lo:hi]]
                    reached[targets[lo:hi][live]] = True
            live = reached[sources]
            rows, columns = rows[live], columns[live]
            parts.append(
                (sources[live], columns,
                 None if calls is None else calls[rows, columns])
            )
        sources, columns, calls = parts[0] if len(parts) == 1 else (
            None if arrays[0] is None else np.concatenate(arrays)
            for arrays in zip(*parts)
        )
        return reached, sources, columns, calls

    def _cells(
        self, chunk: np.ndarray, size_h_rule: bool
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """Which cells of the rows ``chunk`` are edges, and (``CEG_OCR``
        only) which large cycle each edge's sampled rate closes."""
        columns = self.columns
        rows = chunk[:, None]
        inter = rows & columns
        keep = self.connected[inter] & (inter != columns)
        if chunk[0] == 0:
            # Out of ∅: the size-h extensions only, never a fallback.
            keep[0] = self.top
        if size_h_rule:
            # Size-h numerator rule: only fall back to smaller extension
            # joins when no larger extension exists at all.  Columns run
            # largest first, so a row's first kept column has its size.
            keep &= self.sizes == self.sizes[keep.argmax(axis=1)][:, None]
        large = self.large
        if large is None and self.closed is None:
            return keep, None
        heads = rows | columns
        if large is not None:
            # Must run before early cycle closing: otherwise that filter
            # can leave only multi-atom closures, which would bypass the
            # rate-weighted k-1 -> k closing step.
            multi = np.zeros_like(keep)
            for cycle in large.tolist():
                missing = cycle & ~chunk
                several = (missing & (missing - 1)) != 0
                multi |= ((heads & cycle) == cycle) & several[:, None]
            keep = _prefer(keep, keep & ~multi)
        if self.closed is not None:
            closing = self.closed[heads] > self.closed[chunk][:, None]
            keep = _prefer(keep, keep & closing)
        if large is None:
            return keep, None
        return self._closures(chunk, keep, heads)

    def _closures(
        self, chunk: np.ndarray, keep: np.ndarray, heads: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """``CEG_OCR``: price single-atom completions of large cycles.

        Where one new atom would complete a cycle longer than ``h``
        (the shortest such cycle, ties by enumeration order), the first
        extension adding just that atom becomes the sampled-rate edge,
        its parallel twins are dropped, and only completing edges stay.
        """
        n = len(chunk)
        completing = np.full((n, self.n), -1, dtype=np.int64)
        completion = np.zeros(n, dtype=np.int64)
        for index in range(len(self.large) - 1, -1, -1):
            missing = self.large[index] & ~chunk
            one = np.nonzero((missing != 0) & ((missing & (missing - 1)) == 0))[0]
            completing[one, _bit_index(missing[one])] = index
            completion[one] |= missing[one]
        added = heads & ~chunk[:, None]
        completes = (added & completion[:, None]) != 0
        rows, columns = np.nonzero(keep & completes & ((added & (added - 1)) == 0))
        atoms = _bit_index(added[rows, columns])
        _, first = np.unique(rows * self.n + atoms, return_index=True)
        twins = np.ones(len(rows), dtype=bool)
        twins[first] = False
        keep[rows[twins], columns[twins]] = False
        calls = np.full(keep.shape, -1, dtype=np.int64)
        calls[rows[first], columns[first]] = completing[rows[first], atoms[first]]
        return _prefer(keep, keep & completes), calls


def _prefer(keep: np.ndarray, preferred: np.ndarray) -> np.ndarray:
    """Per row, the preferred cells where the row has any, else ``keep``."""
    return np.where(preferred.any(axis=1)[:, None], preferred, keep)


def _bit_index(powers: np.ndarray) -> np.ndarray:
    """The bit position of each power of two."""
    return np.log2(powers).astype(np.int64)


def _connected_subsets(
    adjacent: list[int], size: int
) -> list[tuple[int, list[int], int]]:
    """Connected atom subsets of at most ``size`` atoms, as
    ``(-size, ascending atoms, bitmask)``.

    ``adjacent[i]`` holds the atoms sharing a variable with atom ``i``.
    The order is the candidate column order: larger subsets first, then
    by ascending sorted atoms, as in
    :meth:`QueryPattern.connected_edge_subsets` within one size.
    """
    layer = [1 << index for index in range(len(adjacent))]
    found = list(layer)
    for _ in range(size - 1):
        grown: set[int] = set()
        for mask in layer:
            reach = 0
            for index in _bits(mask):
                reach |= adjacent[index]
            reach &= ~mask
            while reach:
                low = reach & -reach
                grown.add(mask | low)
                reach ^= low
        layer = list(grown)
        found.extend(layer)
    return sorted((-mask.bit_count(), _bits(mask), mask) for mask in found)


def _sample_closing_rates(
    query: QueryPattern,
    cycle_rates: CycleClosingRates,
    large: list[int],
    count: int,
    tails: np.ndarray,
    heads: np.ndarray,
    added: np.ndarray,
    calls: np.ndarray,
    rates: np.ndarray,
) -> None:
    """Swap each closing edge's rate for its sampled probability.

    Edges are in emission order; ``added`` is the atom each one adds
    and ``calls`` the index into ``large`` of the cycle it completes
    (-1 for an edge that keeps its rate).  The ``rate()`` calls follow the
    oracle's stack BFS — pop a vertex, push its unseen heads in emission
    order — because the sampler draws every rate from one stream.
    """
    indptr = np.searchsorted(tails, np.arange(count + 1)).tolist()
    head_list = heads.tolist()
    seen = {0}
    stack = [0]
    popped = []
    while stack:
        node = stack.pop()
        popped.append(node)
        for head in head_list[indptr[node]:indptr[node + 1]]:
            if head not in seen:
                seen.add(head)
                stack.append(head)
    calls = calls.tolist()
    added = added.tolist()
    for node in popped:
        for edge in range(indptr[node], indptr[node + 1]):
            if calls[edge] < 0:
                continue
            atom = added[edge].bit_length() - 1
            probability = cycle_rates.rate(
                query, frozenset(_bits(large[calls[edge]])), atom
            )
            if probability is not None:
                rates[edge] = probability
