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

Every atom subset is an int bitmask (bit ``i`` = atom ``i``), so
successor generation is bit arithmetic.  The BFS emits each edge
straight into flat arrays, which :func:`repro.core.ceg.assemble` lays
out in the order contract of :mod:`repro.core.compiled`; a vertex only
becomes a frozenset key when it is first reached.  Subset cardinalities
are read by canonical key through
:func:`repro.query.canonical.subpattern_form`, so a shape seen before
builds no pattern object.  The construction order — BFS stack,
candidate order, emission order — and with it the order of
cycle-closing-rate samples is the frozenset implementation's, kept in
``tests/oracles/ceg.py``.
"""

from __future__ import annotations

from repro.catalog.cycle_rates import CycleClosingRates
from repro.catalog.markov import MarkovTable
from repro.core.ceg import CEG, assemble
from repro.errors import EstimationError
from repro.query.canonical import subpattern_form
from repro.query.pattern import QueryPattern
from repro.query.shape import cycles

__all__ = ["build_ceg_o", "build_ceg_ocr"]


def _mask_of(indexes) -> int:
    mask = 0
    for index in indexes:
        mask |= 1 << index
    return mask


def _bits(mask: int) -> list[int]:
    """Set bit positions of ``mask``, ascending."""
    result = []
    while mask:
        low = mask & -mask
        result.append(low.bit_length() - 1)
        mask ^= low
    return result


class _MaskContext:
    """Per-build caches keyed by atom bitmask.

    Subset cardinalities and connectivity checks are hit once per
    (node, extension) pair, so memoising by mask cuts the dominant cost
    and skips all frozenset churn on the hot path.
    """

    def __init__(self, query: QueryPattern, markov: MarkovTable):
        self.query = query
        self.markov = markov
        # adjacent[i]: atoms sharing a variable with atom i (incl. i).
        self.adjacent = [0] * len(query)
        for var in query.variables:
            incident = query.edges_at(var)
            var_mask = _mask_of(incident)
            for index in incident:
                self.adjacent[index] |= var_mask
        self._cards: dict[int, float] = {}
        self._connected: dict[int, bool] = {}

    def cardinality(self, mask: int) -> float:
        cached = self._cards.get(mask)
        if cached is None:
            edges = self.query.edges
            key, _ = subpattern_form(edges[i] for i in _bits(mask))
            cached = self.markov.keyed_cardinality(key)
            self._cards[mask] = cached
        return cached

    def connected(self, mask: int) -> bool:
        cached = self._connected.get(mask)
        if cached is None:
            reach = mask & -mask
            frontier = reach
            while frontier:
                grown = 0
                for index in _bits(frontier):
                    grown |= self.adjacent[index]
                grown &= mask
                frontier = grown & ~reach
                reach |= grown
            cached = reach == mask
            self._connected[mask] = cached
        return cached


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
    if not query.is_connected():
        raise EstimationError("CEG_O requires a connected query")
    h = markov.h
    size = min(h, len(query))
    full_mask = (1 << len(query)) - 1
    context = _MaskContext(query, markov)
    by_size: dict[int, list[int]] = {}
    for subset in query.connected_edge_subsets(max_size=size):
        by_size.setdefault(len(subset), []).append(_mask_of(subset))
    # (mask, length) per simple cycle, in cycles()' (length, atoms) order;
    # a connected query with fewer atoms than variables is a tree.
    query_cycles = (
        [(_mask_of(c), len(c)) for c in cycles(query)]
        if len(query) >= len(query.variables)
        else []
    )

    # Vertices by first reach: keys[index[mask]] is the mask's key.
    keys: list[frozenset[int]] = [frozenset()]
    ranks = [0]
    index = {0: 0}
    sources: list[int] = []
    targets: list[int] = []
    rates: list[float] = []
    queue: list[int] = [0]
    while queue:
        node = queue.pop()
        if node == full_mask:
            continue
        tail = index[node]
        for successor, rate in _successors(
            context, node, by_size, size, query_cycles,
            cycle_rates, h, size_h_rule, early_cycle_closing,
        ):
            head = index.get(successor)
            if head is None:
                head = index[successor] = len(keys)
                keys.append(frozenset(_bits(successor)))
                ranks.append(successor.bit_count())
                queue.append(successor)
            sources.append(tail)
            targets.append(head)
            rates.append(rate)
    if full_mask not in index:
        raise EstimationError("CEG_O construction produced no complete path")
    return assemble(keys, ranks, 0, index[full_mask], sources, targets, rates)


def _successors(
    context: _MaskContext,
    node: int,
    by_size: dict[int, list[int]],
    size: int,
    query_cycles: list[tuple[int, int]],
    cycle_rates: CycleClosingRates | None,
    h: int,
    size_h_rule: bool = True,
    early_cycle_closing: bool = True,
) -> list[tuple[int, float]]:
    candidates = _raw_candidates(context, node, by_size, size, size_h_rule)
    if cycle_rates is not None:
        # Must run before the early-cycle-closing filter: otherwise that
        # filter can leave only multi-atom closures, which would bypass
        # the rate-weighted k-1 -> k closing step.
        candidates = _drop_multi_atom_closures(
            node, candidates, query_cycles, h
        )
    if early_cycle_closing and query_cycles:
        candidates = _apply_early_cycle_closing(node, candidates, query_cycles)
    if cycle_rates is not None:
        candidates = _apply_cycle_rates(
            context, node, candidates, query_cycles, cycle_rates, h
        )
    return candidates


def _raw_candidates(
    context: _MaskContext,
    node: int,
    by_size: dict[int, list[int]],
    size: int,
    size_h_rule: bool = True,
) -> list[tuple[int, float]]:
    """(successor, rate) pairs before rule filters."""
    cardinality = context.cardinality
    if not node:
        return [
            (extension, cardinality(extension))
            for extension in by_size.get(size, [])
        ]
    connected = context.connected
    result: list[tuple[int, float]] = []
    for want in range(size, 0, -1):
        for extension in by_size.get(want, []):
            intersection = extension & node
            if intersection == extension or not intersection:
                continue
            if not connected(intersection):
                continue
            numerator = cardinality(extension)
            denominator = cardinality(intersection)
            rate = numerator / denominator if denominator > 0 else 0.0
            result.append((node | extension, rate))
        if result and size_h_rule:
            # Size-h numerator rule: only fall back to smaller extension
            # joins when no size-h extension exists at all.
            break
    return result


def _drop_multi_atom_closures(
    node: int,
    candidates: list[tuple[int, float]],
    query_cycles: list[tuple[int, int]],
    h: int,
) -> list[tuple[int, float]]:
    """Remove extensions that complete a large cycle with > 1 new atom.

    ``CEG_OCR`` prices cycle closure through the sampled probability of
    the single closing atom; a several-atoms-at-once completion would
    silently use the broken-open-path weights §4.3 warns about.  Falls
    back to the unfiltered list if nothing survives (degenerate shapes).
    """
    large_cycles = [c for c, length in query_cycles if length > h]
    if not large_cycles:
        return candidates
    kept = [
        candidate
        for candidate in candidates
        if not any(
            cycle & ~candidate[0] == 0 and (cycle & ~node).bit_count() > 1
            for cycle in large_cycles
        )
    ]
    return kept if kept else candidates


def _apply_early_cycle_closing(
    node: int,
    candidates: list[tuple[int, float]],
    query_cycles: list[tuple[int, int]],
) -> list[tuple[int, float]]:
    def closes_cycle(successor: int) -> bool:
        return any(
            cycle & ~successor == 0 and cycle & ~node != 0
            for cycle, _ in query_cycles
        )

    closing = [c for c in candidates if closes_cycle(c[0])]
    return closing if closing else candidates


def _cycle_completions(
    node: int, query_cycles: list[tuple[int, int]], h: int
) -> dict[int, int]:
    """Map each atom that would complete a large cycle to that cycle.

    The bitmask twin of :func:`repro.query.shape.cycle_completions`:
    ``{atom_index: cycle_mask}`` for every atom outside ``node`` that is
    the single missing atom of some cycle longer than ``h`` (smallest
    such cycle wins, ties by the cycle enumeration order).
    """
    result: dict[int, int] = {}
    lengths: dict[int, int] = {}
    for cycle, length in query_cycles:
        if length <= h:
            continue
        missing = cycle & ~node
        if missing and missing & (missing - 1) == 0:
            index = missing.bit_length() - 1
            if index not in result or length < lengths[index]:
                result[index] = cycle
                lengths[index] = length
    return result


def _apply_cycle_rates(
    context: _MaskContext,
    node: int,
    candidates: list[tuple[int, float]],
    query_cycles: list[tuple[int, int]],
    cycle_rates: CycleClosingRates,
    h: int,
) -> list[tuple[int, float]]:
    """Swap closing-edge rates for sampled closing probabilities.

    When a single new atom would complete a large cycle, ``CEG_OCR``
    keeps only those single-atom closing extensions (with probability
    weights); other candidates would silently estimate the broken-open
    pattern that §4.3 shows overestimates.
    """
    completions = _cycle_completions(node, query_cycles, h)
    if not completions:
        return candidates
    completion_mask = _mask_of(completions)
    replaced: list[tuple[int, float]] = []
    seen_closures: set[int] = set()
    for successor, rate in candidates:
        difference = successor & ~node
        if difference and difference & (difference - 1) == 0:
            atom = difference.bit_length() - 1
            if atom in completions:
                if successor in seen_closures:
                    continue
                seen_closures.add(successor)
                probability = cycle_rates.rate(
                    context.query, frozenset(_bits(completions[atom])), atom
                )
                replaced.append(
                    (successor, rate if probability is None else probability)
                )
                continue
        replaced.append((successor, rate))
    only_closing = [
        c for c in replaced if (c[0] & ~node) & completion_mask
    ]
    return only_closing if only_closing else replaced


def build_ceg_ocr(
    query: QueryPattern,
    markov: MarkovTable,
    cycle_rates: CycleClosingRates,
) -> CEG:
    """Build ``CEG_OCR`` (§4.3): ``CEG_O`` with cycle-closing rates."""
    return build_ceg_o(query, markov, cycle_rates=cycle_rates)
