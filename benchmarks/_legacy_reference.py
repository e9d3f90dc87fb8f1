"""The pre-vectorization cold estimation pipeline, kept as a baseline.

A faithful replica of the serving stack before the execution-engine
rewrite, used only by the benchmark suite so the "cold-shape speedup"
number stays measurable on any machine:

* ``legacy_build_ceg_o`` — the frozenset-based ``CEG_O`` builder
  (per-(node, extension) set algebra, no bitmask interning);
* ``legacy_molp_bound`` — the frozenset-keyed MOLP Dijkstra with a
  ``deg`` call per relaxation;
* ``legacy_serving`` — a context manager that swaps the pre-PR builders
  into :mod:`repro.service.session`, so an ordinary
  :class:`~repro.service.EstimationSession` (built with
  ``count_impl="python"``) serves through the legacy pipeline while
  paying exactly the same session bookkeeping as the optimized one —
  an apples-to-apples cold-throughput baseline.

Estimates produced here must equal the optimized stack's bit for bit —
the benchmarks assert it on every run.
"""

from __future__ import annotations

import heapq
from contextlib import contextmanager

import repro.service.session as _session_module
from repro.catalog.degrees import DegreeCatalog
from repro.catalog.markov import MarkovTable
from repro.core.ceg import CEG
from repro.core.paths import estimate_from_ceg
from repro.errors import EstimationError
from repro.query.pattern import QueryPattern
from repro.query.shape import cycles


# ----------------------------------------------------------------------
# Seed CEG_O builder (frozenset node algebra)
# ----------------------------------------------------------------------

def legacy_build_ceg_o(
    query: QueryPattern, markov: MarkovTable, cycle_rates=None
) -> CEG:
    """``build_ceg_o`` as shipped before the bitmask rewrite.

    ``cycle_rates`` is accepted for session signature compatibility but
    unsupported — the cold benchmark serves plain ``CEG_O`` specs only.
    """
    if cycle_rates is not None:
        raise NotImplementedError("legacy reference serves CEG_O only")
    if not query.is_connected():
        raise EstimationError("CEG_O requires a connected query")
    h = markov.h
    size = min(h, len(query))
    all_edges = frozenset(range(len(query)))
    stored = [
        subset
        for subset in query.connected_edge_subsets(max_size=h)
        if len(subset) <= size
    ]
    by_size: dict[int, list[frozenset[int]]] = {}
    for subset in stored:
        by_size.setdefault(len(subset), []).append(subset)
    query_cycles = cycles(query)
    card_cache: dict[frozenset[int], float] = {}
    conn_cache: dict[frozenset[int], bool] = {}

    def cardinality(subset: frozenset[int]) -> float:
        cached = card_cache.get(subset)
        if cached is None:
            cached = markov.cardinality(query.subpattern(subset))
            card_cache[subset] = cached
        return cached

    def connected(subset: frozenset[int]) -> bool:
        cached = conn_cache.get(subset)
        if cached is None:
            cached = query.is_connected_subset(subset)
            conn_cache[subset] = cached
        return cached

    def raw_candidates(node: frozenset[int]):
        result = []
        if not node:
            for extension in by_size.get(size, []):
                result.append(
                    (extension, cardinality(extension), f"|{sorted(extension)}|")
                )
            return result
        for want in range(size, 0, -1):
            for extension in by_size.get(want, []):
                difference = extension - node
                intersection = extension & node
                if not difference or not intersection:
                    continue
                if not connected(intersection):
                    continue
                denominator = cardinality(intersection)
                rate = (
                    cardinality(extension) / denominator
                    if denominator > 0
                    else 0.0
                )
                note = f"|{sorted(extension)}|/|{sorted(intersection)}|"
                result.append((node | difference, rate, note))
            if result:
                break
        return result

    def successors(node: frozenset[int]):
        candidates = raw_candidates(node)

        def closes_cycle(successor: frozenset[int]) -> bool:
            return any(
                cycle <= successor and not cycle <= node
                for cycle in query_cycles
            )

        closing = [c for c in candidates if closes_cycle(c[0])]
        return closing if closing else candidates

    ceg = CEG(source=frozenset(), target=all_edges)
    ceg.add_node(frozenset(), rank=0)
    seen: set[frozenset[int]] = {frozenset()}
    queue: list[frozenset[int]] = [frozenset()]
    while queue:
        node = queue.pop()
        if node == all_edges:
            continue
        for successor, rate, note in successors(node):
            if successor not in seen:
                seen.add(successor)
                ceg.add_node(successor, rank=len(successor))
                queue.append(successor)
            ceg.add_edge(node, successor, rate, note)
    if all_edges not in seen:
        raise EstimationError("CEG_O construction produced no complete path")
    return ceg


# ----------------------------------------------------------------------
# Seed MOLP Dijkstra (frozenset node keys, per-relaxation deg calls)
# ----------------------------------------------------------------------

def _subsets(items: tuple[str, ...]):
    n = len(items)
    for mask in range(1, 1 << n):
        yield frozenset(items[i] for i in range(n) if mask >> i & 1)


def legacy_molp_bound(query: QueryPattern, catalog: DegreeCatalog) -> float:
    """``molp_bound`` as shipped before the bitmask rewrite."""
    relations = catalog.stat_relations(query)
    if any(relation.cardinality == 0 for relation in relations):
        return 0.0
    moves = [
        (relation, y)
        for relation in relations
        for y in _subsets(tuple(sorted(relation.attributes)))
    ]
    all_attrs = frozenset(query.variables)
    start: frozenset[str] = frozenset()
    dist: dict[frozenset[str], float] = {start: 1.0}
    counter = 0
    heap: list[tuple[float, int, frozenset[str]]] = [(1.0, counter, start)]
    settled: set[frozenset[str]] = set()
    while heap:
        weight, _, node = heapq.heappop(heap)
        if node in settled:
            continue
        settled.add(node)
        if node == all_attrs:
            break
        for relation, y in moves:
            if y <= node:
                continue
            rate = relation.deg(node & y, y)
            candidate = weight * rate
            target = node | y
            if candidate < dist.get(target, float("inf")):
                dist[target] = candidate
                counter += 1
                heapq.heappush(heap, (candidate, counter, target))
    if all_attrs not in dist:
        raise EstimationError("CEG_M has no (∅, A) path for this query")
    return dist[all_attrs]


# ----------------------------------------------------------------------
# Serving through the legacy pipeline
# ----------------------------------------------------------------------

def _legacy_estimate_from_ceg(ceg, path_length, aggregator):
    """The pre-PR path DP: the dict-based reference implementation."""
    return estimate_from_ceg(ceg, path_length, aggregator, compiled=False)


@contextmanager
def legacy_serving():
    """Swap the pre-PR builders into the estimation session module.

    While active, any :class:`~repro.service.EstimationSession` builds
    its CEGs with the frozenset ``CEG_O`` builder, aggregates paths with
    the dict DP and bounds MOLP with the frozenset Dijkstra.  Combine
    with ``EstimationSession(..., count_impl="python")`` for the full
    pre-PR cold pipeline.
    """
    saved = (
        _session_module.build_ceg_o,
        _session_module.molp_bound,
        _session_module.estimate_from_ceg,
    )
    _session_module.build_ceg_o = legacy_build_ceg_o
    _session_module.molp_bound = legacy_molp_bound
    _session_module.estimate_from_ceg = _legacy_estimate_from_ceg
    try:
        yield
    finally:
        (
            _session_module.build_ceg_o,
            _session_module.molp_bound,
            _session_module.estimate_from_ceg,
        ) = saved
