"""Reference CEG construction and path DPs, kept verbatim as oracles.

These are the dict-of-lists implementations the library served from
before ``CEG_O`` was emitted straight into CSR arrays and MOLP became a
lattice DP:

* :class:`CEG` / :func:`compile_ceg` — per-edge objects in per-vertex
  lists, interned into the array form afterwards;
* :func:`build_ceg_o` — the bitmask BFS that adds one :class:`CEGEdge`
  per extension;
* :func:`hop_statistics` / :func:`estimate_from_ceg` — the dict DP over
  (vertex, hop count);
* :func:`min_weight_path` — a topological relaxation over any CEG;
* :func:`molp_min_path` — the lazy Dijkstra over attribute subsets, and
  :func:`build_ceg_m`, the explicit ``CEG_M``.

The differential tests compare the library against them bit for bit,
through :func:`assert_same_ceg` for CEGs.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Hashable, Iterable

import numpy as np

from repro.catalog.cycle_rates import CycleClosingRates
from repro.catalog.degrees import DegreeCatalog, RelationView
from repro.catalog.markov import MarkovTable
from repro.core.ceg_m import MOLP_MAX_ATTRIBUTES, MolpEdge
from repro.core.paths import (
    AGGREGATOR_CHOICES,
    PATH_LENGTH_CHOICES,
    hop_statistics_compiled,
)
from repro.errors import EstimationError
from repro.query.pattern import QueryPattern
from repro.query.shape import cycles

NodeKey = Hashable


@dataclass(frozen=True)
class CEGEdge:
    """One extension edge of a CEG.

    ``payload`` optionally carries builder-specific metadata (e.g. which
    statistic relation and attribute sets produced the edge) for
    consumers like the bound sketch that must re-interpret paths.
    """

    source: NodeKey
    target: NodeKey
    rate: float
    description: str = ""
    payload: object = None


@dataclass
class CEG:
    """A cardinality estimation graph with a single source and target."""

    source: NodeKey
    target: NodeKey
    _out: dict[NodeKey, list[CEGEdge]] = field(default_factory=dict)
    _rank: dict[NodeKey, int] = field(default_factory=dict)
    _compiled: object = field(default=None, repr=False, compare=False)

    def add_node(self, key: NodeKey, rank: int) -> None:
        """Register a vertex with its topological rank (sub-query size)."""
        existing = self._rank.get(key)
        if existing is not None and existing != rank:
            raise ValueError(f"node {key!r} re-registered with rank {rank}")
        self._rank[key] = rank
        self._out.setdefault(key, [])
        self._compiled = None

    def add_edge(
        self,
        source: NodeKey,
        target: NodeKey,
        rate: float,
        description: str = "",
        payload: object = None,
    ) -> None:
        """Add an extension edge; both endpoints must be registered."""
        if source not in self._rank or target not in self._rank:
            raise ValueError("register nodes before adding edges")
        if self._rank[target] <= self._rank[source]:
            raise ValueError(
                f"edge {source!r} -> {target!r} does not increase rank"
            )
        self._out[source].append(
            CEGEdge(source, target, float(rate), description, payload)
        )
        self._compiled = None

    def compiled(self):
        """The array-compiled form of this CEG (cached until mutated).

        See :func:`compile_ceg`; mutating the CEG
        through :meth:`add_node` / :meth:`add_edge` /
        :meth:`prune_unreachable` drops the cache.
        """
        if self._compiled is None:
            self._compiled = compile_ceg(self)
        return self._compiled

    @property
    def nodes(self) -> list[NodeKey]:
        """All registered vertices."""
        return list(self._rank)

    @property
    def num_edges(self) -> int:
        """Total number of extension edges."""
        return sum(len(edges) for edges in self._out.values())

    def out_edges(self, key: NodeKey) -> list[CEGEdge]:
        """Extension edges leaving a vertex."""
        return self._out.get(key, [])

    def rank(self, key: NodeKey) -> int:
        """The registered topological rank of a vertex."""
        return self._rank[key]

    def topological_order(self) -> list[NodeKey]:
        """Vertices sorted by rank (a valid topological order)."""
        return sorted(self._rank, key=lambda k: (self._rank[k], repr(k)))

    def iter_edges(self) -> Iterable[CEGEdge]:
        """Iterate every edge of the CEG."""
        for edges in self._out.values():
            yield from edges

    def prune_unreachable(self) -> None:
        """Drop vertices that cannot lie on a (source, target) path."""
        forward: set[NodeKey] = set()
        stack = [self.source]
        while stack:
            node = stack.pop()
            if node in forward:
                continue
            forward.add(node)
            for edge in self.out_edges(node):
                stack.append(edge.target)
        incoming: dict[NodeKey, list[NodeKey]] = {}
        for edge in self.iter_edges():
            incoming.setdefault(edge.target, []).append(edge.source)
        backward: set[NodeKey] = set()
        stack = [self.target]
        while stack:
            node = stack.pop()
            if node in backward:
                continue
            backward.add(node)
            stack.extend(incoming.get(node, []))
        keep = forward & backward
        self._rank = {k: r for k, r in self._rank.items() if k in keep}
        self._out = {
            k: [e for e in edges if e.target in keep]
            for k, edges in self._out.items()
            if k in keep
        }
        self._compiled = None


@dataclass(frozen=True)
class CompiledCEG:
    """A CEG interned to dense ints with CSR-shaped in-edges.

    ``keys[i]`` is the original vertex key of the vertex at topological
    position ``i`` (position order == ``CEG.topological_order()``).
    Edge ``e`` runs from position ``in_source[e]`` to position
    ``in_target[e]`` with rate ``in_rate[e]``; edges are sorted by
    (target, source position, insertion order), with ``in_indptr``
    delimiting each target's slice.
    """

    keys: tuple
    ranks: np.ndarray  # int64 per position
    source: int  # position of the CEG source
    target: int  # position of the CEG target
    in_indptr: np.ndarray  # int64, len num_nodes + 1
    in_source: np.ndarray  # int64 per edge (topological position)
    in_target: np.ndarray  # int64 per edge (topological position)
    in_rate: np.ndarray  # float64 per edge

    @property
    def num_nodes(self) -> int:
        """Number of interned vertices."""
        return len(self.keys)

    @property
    def num_edges(self) -> int:
        """Number of extension edges."""
        return int(len(self.in_rate))

    def position(self, key) -> int:
        """Topological position of an original vertex key."""
        return self.keys.index(key)


def compile_ceg(ceg) -> CompiledCEG:
    """Intern a built CEG into its array form.

    ``ceg`` is duck-typed (anything with ``topological_order`` /
    ``out_edges`` / ``rank`` / ``source`` / ``target``), so this module
    stays import-cycle-free below :mod:`repro.core.ceg`.
    """
    order = ceg.topological_order()
    position = {key: i for i, key in enumerate(order)}
    sources: list[int] = []
    targets: list[int] = []
    rates: list[float] = []
    # Iterating vertices in topological order makes the emission index
    # itself the (source position, insertion order) sort key; the stable
    # sort by target below then yields the bit-identity ordering.
    for key in order:
        src_pos = position[key]
        for edge in ceg.out_edges(key):
            sources.append(src_pos)
            targets.append(position[edge.target])
            rates.append(edge.rate)
    in_source = np.asarray(sources, dtype=np.int64)
    in_target = np.asarray(targets, dtype=np.int64)
    in_rate = np.asarray(rates, dtype=np.float64)
    if len(in_target):
        by_target = np.argsort(in_target, kind="stable")
        in_source = in_source[by_target]
        in_target = in_target[by_target]
        in_rate = in_rate[by_target]
    counts = np.bincount(in_target, minlength=len(order))
    in_indptr = np.concatenate(
        ([0], np.cumsum(counts, dtype=np.int64))
    )
    return CompiledCEG(
        keys=tuple(order),
        ranks=np.asarray([ceg.rank(key) for key in order], dtype=np.int64),
        source=position[ceg.source],
        target=position[ceg.target],
        in_indptr=in_indptr,
        in_source=in_source,
        in_target=in_target,
        in_rate=in_rate,
    )


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
    (canonical-key computation in the Markov table) and skips all
    frozenset churn on the hot path.
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
        self._frozen: dict[int, frozenset[int]] = {}
        self._cards: dict[int, float] = {}
        self._connected: dict[int, bool] = {}

    def frozen(self, mask: int) -> frozenset[int]:
        cached = self._frozen.get(mask)
        if cached is None:
            cached = frozenset(_bits(mask))
            self._frozen[mask] = cached
        return cached

    def cardinality(self, mask: int) -> float:
        cached = self._cards.get(mask)
        if cached is None:
            cached = self.markov.cardinality(self.query.subpattern(_bits(mask)))
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
    by_size: dict[int, list[int]] = {}
    for subset in query.connected_edge_subsets(max_size=h):
        if len(subset) <= size:
            by_size.setdefault(len(subset), []).append(_mask_of(subset))
    # (mask, length) per simple cycle, in cycles()' (length, atoms) order.
    query_cycles = [(_mask_of(c), len(c)) for c in cycles(query)]
    context = _MaskContext(query, markov)

    ceg = CEG(source=frozenset(), target=context.frozen(full_mask))
    ceg.add_node(frozenset(), rank=0)
    seen: set[int] = {0}
    queue: list[int] = [0]
    while queue:
        node = queue.pop()
        if node == full_mask:
            continue
        node_key = context.frozen(node)
        for successor, rate, note in _successors(
            context, node, by_size, size, query_cycles,
            cycle_rates, h, size_h_rule, early_cycle_closing,
        ):
            if successor not in seen:
                seen.add(successor)
                ceg.add_node(
                    context.frozen(successor), rank=successor.bit_count()
                )
                queue.append(successor)
            ceg.add_edge(node_key, context.frozen(successor), rate, note)
    if full_mask not in seen:
        raise EstimationError("CEG_O construction produced no complete path")
    return ceg


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
) -> list[tuple[int, float, str]]:
    candidates = _raw_candidates(context, node, by_size, size, size_h_rule)
    if cycle_rates is not None:
        # Must run before the early-cycle-closing filter: otherwise that
        # filter can leave only multi-atom closures, which would bypass
        # the rate-weighted k-1 -> k closing step.
        candidates = _drop_multi_atom_closures(
            node, candidates, query_cycles, h
        )
    if early_cycle_closing:
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
) -> list[tuple[int, float, str]]:
    """(successor, rate, note) triples before rule filters."""
    result: list[tuple[int, float, str]] = []
    if not node:
        for extension in by_size.get(size, []):
            result.append(
                (
                    extension,
                    context.cardinality(extension),
                    f"|{_bits(extension)}|",
                )
            )
        return result
    for want in range(size, 0, -1):
        for extension in by_size.get(want, []):
            difference = extension & ~node
            intersection = extension & node
            if not difference or not intersection:
                continue
            if not context.connected(intersection):
                continue
            numerator = context.cardinality(extension)
            denominator = context.cardinality(intersection)
            rate = numerator / denominator if denominator > 0 else 0.0
            note = f"|{_bits(extension)}|/|{_bits(intersection)}|"
            result.append((node | difference, rate, note))
        if result and size_h_rule:
            # Size-h numerator rule: only fall back to smaller extension
            # joins when no size-h extension exists at all.
            break
    return result


def _drop_multi_atom_closures(
    node: int,
    candidates: list[tuple[int, float, str]],
    query_cycles: list[tuple[int, int]],
    h: int,
) -> list[tuple[int, float, str]]:
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
    candidates: list[tuple[int, float, str]],
    query_cycles: list[tuple[int, int]],
) -> list[tuple[int, float, str]]:
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

    ``{atom_index: cycle_mask}`` for every atom outside ``node`` that is
    the single missing atom of some cycle longer than ``h`` (smallest
    such cycle wins, ties by the cycle enumeration order): the condition
    under which ``CEG_OCR`` swaps in a cycle-closing-rate weight (§4.3,
    the sub-query holds ``k-1`` atoms of a ``k``-cycle).
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
    candidates: list[tuple[int, float, str]],
    query_cycles: list[tuple[int, int]],
    cycle_rates: CycleClosingRates,
    h: int,
) -> list[tuple[int, float, str]]:
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
    replaced: list[tuple[int, float, str]] = []
    seen_closures: set[int] = set()
    for successor, rate, note in candidates:
        difference = successor & ~node
        if difference and difference & (difference - 1) == 0:
            atom = difference.bit_length() - 1
            if atom in completions:
                if successor in seen_closures:
                    continue
                seen_closures.add(successor)
                probability = cycle_rates.rate(
                    context.query, context.frozen(completions[atom]), atom
                )
                if probability is not None:
                    replaced.append(
                        (successor, probability, f"P(close {atom})")
                    )
                else:
                    replaced.append((successor, rate, note))
                continue
        replaced.append((successor, rate, note))
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


@dataclass
class HopStats:
    """Aggregate over all paths reaching a vertex in a fixed hop count."""

    count: float = 0.0
    total: float = 0.0
    minimum: float = float("inf")
    maximum: float = float("-inf")

    def absorb(self, other: "HopStats", rate: float) -> None:
        """Fold in paths arriving through an edge with the given rate."""
        self.count += other.count
        self.total += other.total * rate
        self.minimum = min(self.minimum, other.minimum * rate)
        self.maximum = max(self.maximum, other.maximum * rate)


def hop_statistics(ceg: CEG) -> dict[int, HopStats]:
    """Per-hop-count path statistics at the CEG's target vertex."""
    table: dict[object, dict[int, HopStats]] = {
        ceg.source: {0: HopStats(count=1.0, total=1.0, minimum=1.0, maximum=1.0)}
    }
    for node in ceg.topological_order():
        at_node = table.get(node)
        if not at_node:
            continue
        for edge in ceg.out_edges(node):
            into = table.setdefault(edge.target, {})
            for hops, stats in at_node.items():
                slot = into.get(hops + 1)
                if slot is None:
                    slot = HopStats()
                    into[hops + 1] = slot
                slot.absorb(stats, edge.rate)
    return table.get(ceg.target, {})


def estimate_from_ceg(ceg: CEG, path_length: str, aggregator: str) -> float:
    """One of the nine §4.2 estimates from a built CEG, via the dict DP.

    Raises :class:`EstimationError` when the CEG has no (source, target)
    path — the estimator has no formula for the query.
    """
    if path_length not in PATH_LENGTH_CHOICES:
        raise ValueError(f"path_length must be one of {PATH_LENGTH_CHOICES}")
    if aggregator not in AGGREGATOR_CHOICES:
        raise ValueError(f"aggregator must be one of {AGGREGATOR_CHOICES}")
    per_hop = hop_statistics(ceg)
    if not per_hop:
        raise EstimationError("CEG has no bottom-to-top path")
    if path_length == "max":
        chosen = [per_hop[max(per_hop)]]
    elif path_length == "min":
        chosen = [per_hop[min(per_hop)]]
    else:
        chosen = list(per_hop.values())
    if aggregator == "max":
        return max(s.maximum for s in chosen)
    if aggregator == "min":
        return min(s.minimum for s in chosen)
    count = sum(s.count for s in chosen)
    total = sum(s.total for s in chosen)
    return total / count


def min_weight_path(ceg: CEG) -> tuple[float, list]:
    """Minimum-product path (as used by pessimistic estimators, §5).

    Returns ``(product, edges)``.  The DAG structure makes a simple
    topological relaxation sufficient (no Dijkstra needed); rates must be
    non-negative, and the relaxation works on products directly.
    """
    best: dict[object, float] = {ceg.source: 1.0}
    parent: dict[object, object] = {}
    via: dict[object, object] = {}
    for node in ceg.topological_order():
        if node not in best:
            continue
        for edge in ceg.out_edges(node):
            candidate = best[node] * edge.rate
            if candidate < best.get(edge.target, float("inf")):
                best[edge.target] = candidate
                parent[edge.target] = node
                via[edge.target] = edge
    if ceg.target not in best:
        raise EstimationError("CEG has no bottom-to-top path")
    edges = []
    node = ceg.target
    while node != ceg.source:
        edges.append(via[node])
        node = parent[node]
    edges.reverse()
    return best[ceg.target], edges


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
        (_var_mask_of(y, bit_of), {}, relation, y)
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


def _var_mask_of(variables: frozenset[str], bit_of: dict[str, int]) -> int:
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
) -> CEG:
    """Materialise the full ``CEG_M`` (for path analysis and theory tests).

    Vertices are all ``2^n`` attribute subsets; edges carry
    :class:`MolpEdge` payloads.  Guarded by
    :data:`~repro.core.ceg_m.MOLP_MAX_ATTRIBUTES` because the explicit
    graph is exponential.
    """
    attrs = tuple(sorted(query.variables))
    if len(attrs) > MOLP_MAX_ATTRIBUTES:
        raise EstimationError(
            f"explicit CEG_M limited to {MOLP_MAX_ATTRIBUTES} attributes"
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


# ----------------------------------------------------------------------
# Comparison shared by the differential tests
# ----------------------------------------------------------------------
def assert_same_ceg(ceg, reference: CEG) -> None:
    """An array CEG equals a reference CEG bit for bit.

    Vertices and ranks, the in-edge arrays (rates compared as bytes),
    every vertex's out-edges in emission order, and the per-hop path
    statistics of the dict DP.
    """
    interned = compile_ceg(reference)
    assert ceg.keys == interned.keys
    assert ceg.source_pos == interned.source
    assert ceg.target_pos == interned.target
    assert np.array_equal(ceg.ranks, interned.ranks)
    assert np.array_equal(ceg.in_indptr, interned.in_indptr)
    assert np.array_equal(ceg.in_source, interned.in_source)
    assert np.array_equal(ceg.in_target, interned.in_target)
    assert ceg.in_rate.tobytes() == interned.in_rate.tobytes()
    for key in ceg.keys:
        assert [tuple(e) for e in ceg.out_edges(key)] == [
            (e.source, e.target, e.rate) for e in reference.out_edges(key)
        ]
    expected = hop_statistics(reference)
    fast = hop_statistics_compiled(ceg)
    assert set(expected) == set(fast)
    for hops, stats in expected.items():
        # Bitwise equality: == on floats, never approx.
        assert fast[hops].count == stats.count
        assert fast[hops].total == stats.total
        assert fast[hops].minimum == stats.minimum
        assert fast[hops].maximum == stats.maximum
