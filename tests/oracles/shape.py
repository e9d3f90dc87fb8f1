"""Reference networkx shape analysis, kept verbatim as oracles.

* :func:`cycles` is the networkx version the library enumerated query
  cycles with before :func:`repro.query.shape.cycle_masks` walked atom
  bitmasks: self-loops and parallel pairs by hand, longer cycles from
  ``networkx.simple_cycles`` on the simple variable graph, each expanded
  to every choice of parallel atoms.  The differential test compares the
  two lists for equality, order included.
* :func:`depth` is the networkx eccentricity version of
  :func:`repro.query.shape.depth`, over :func:`to_multigraph`.
"""

from __future__ import annotations

from typing import Iterable

import networkx as nx

from repro.query.pattern import QueryPattern

__all__ = ["cycles", "depth", "to_multigraph"]


def to_multigraph(pattern: QueryPattern) -> nx.MultiGraph:
    """The undirected multigraph underlying a pattern.

    Nodes are query variables; each atom becomes one edge keyed by its
    index in ``pattern.edges``.
    """
    graph = nx.MultiGraph()
    graph.add_nodes_from(pattern.variables)
    for index, edge in enumerate(pattern.edges):
        graph.add_edge(edge.src, edge.dst, key=index, label=edge.label)
    return graph


def depth(pattern: QueryPattern) -> int:
    """Template depth as used by the Acyclic workload (Figure 8).

    Defined as the diameter of the underlying graph in edges; a k-star has
    depth 2 and a k-path has depth k, matching §6.1's description that
    "the minimum depth of any query is 2 (stars) and the maximum is k
    (paths)".  Patterns with a single atom have depth 1.
    """
    graph = nx.Graph(to_multigraph(pattern))
    if graph.number_of_nodes() <= 1:
        return 0
    if len(pattern) == 1:
        return 1
    return max(
        nx.eccentricity(graph, v) for v in graph.nodes
    )


def cycles(pattern: QueryPattern) -> list[frozenset[int]]:
    """Edge-index sets of the simple cycles of the pattern.

    Uses the cycle basis of the multigraph plus explicit handling of
    self-loops (length-1) and parallel-edge cycles (length-2), then
    expands to all simple cycles via networkx for small patterns.
    """
    result: set[frozenset[int]] = set()
    # Self-loops.
    for index, edge in enumerate(pattern.edges):
        if edge.src == edge.dst:
            result.add(frozenset([index]))
    # Parallel atoms between the same unordered variable pair.
    by_pair: dict[frozenset[str], list[int]] = {}
    for index, edge in enumerate(pattern.edges):
        if edge.src != edge.dst:
            by_pair.setdefault(frozenset((edge.src, edge.dst)), []).append(index)
    for indexes in by_pair.values():
        if len(indexes) >= 2:
            for i in range(len(indexes)):
                for j in range(i + 1, len(indexes)):
                    result.add(frozenset([indexes[i], indexes[j]]))
    # Simple cycles of length >= 3 on the simple graph, mapped back to
    # every combination of parallel atoms along the cycle.
    simple = nx.Graph()
    simple.add_nodes_from(pattern.variables)
    for pair in by_pair:
        u, v = tuple(pair)
        simple.add_edge(u, v)
    for cycle_nodes in nx.simple_cycles(simple):
        if len(cycle_nodes) < 3:
            continue
        choices: list[list[int]] = []
        ok = True
        for position, node in enumerate(cycle_nodes):
            nxt = cycle_nodes[(position + 1) % len(cycle_nodes)]
            indexes = by_pair.get(frozenset((node, nxt)))
            if not indexes:
                ok = False
                break
            choices.append(indexes)
        if not ok:
            continue
        result.update(_combinations(choices))
    return sorted(result, key=lambda s: (len(s), sorted(s)))


def _combinations(choices: list[list[int]]) -> Iterable[frozenset[int]]:
    if not choices:
        return
    stack: list[tuple[int, list[int]]] = [(0, [])]
    while stack:
        position, chosen = stack.pop()
        if position == len(choices):
            yield frozenset(chosen)
            continue
        for index in choices[position]:
            stack.append((position + 1, chosen + [index]))
