"""Structural analysis of query patterns.

The paper's estimator choice depends on query *shape*: acyclic vs cyclic,
and for cyclic queries on the length of the cycles (triangles vs larger).
This module provides the shape predicates used throughout the library:

* :func:`two_core_edges` — the pattern's 2-core (its cyclic skeleton),
  found by peeling degree-1 variables; the exact counter and the
  statistics builder split patterns on it, and :func:`is_acyclic` is
  its emptiness test (edge directions are irrelevant for join-graph
  cyclicity of binary relations);
* :func:`cycles` — the simple cycles of the underlying undirected
  multigraph, self-loops and parallel atoms included, enumerated over
  atom bitmasks (:func:`cycle_masks`);
* :func:`largest_cycle_length` and :func:`has_only_triangles` — the
  classification used to pick between Figures 9/10/11 regimes;
* :func:`depth` — the template "depth" used by the Acyclic workload of
  §6.1 (the diameter of the variable graph, i.e. stars have depth 2 and
  paths of k edges have depth k, matching Figure 8's convention), found
  by a breadth-first walk over variable bitmasks;
* :func:`spanning_tree_and_closures` — splits a cyclic pattern's edges
  into a spanning tree plus cycle-closing edges (WanderJoin's and the
  sampler's walk order).
"""

from __future__ import annotations

from repro.errors import PatternError
from repro.query.pattern import QueryPattern

__all__ = [
    "two_core_edges",
    "is_acyclic",
    "cycles",
    "cycle_masks",
    "largest_cycle_length",
    "has_only_triangles",
    "depth",
    "spanning_tree_and_closures",
]


def two_core_edges(pattern: QueryPattern) -> frozenset[int]:
    """Edge indexes of the pattern's 2-core (empty iff acyclic).

    Peels degree-1 variables with a worklist: removing an edge can only
    expose its *other* endpoint as a new leaf, so each edge is examined
    O(1) times — O(E) total instead of rescanning all remaining edges
    every pass.  Self-loops contribute 2 to their variable's degree and
    are never peeled.
    """
    removed: set[int] = set()
    degree: dict[str, int] = {var: 0 for var in pattern.variables}
    for edge in pattern.edges:
        if edge.src == edge.dst:
            degree[edge.src] += 2
        else:
            degree[edge.src] += 1
            degree[edge.dst] += 1
    worklist = [var for var in pattern.variables if degree[var] == 1]
    while worklist:
        var = worklist.pop()
        if degree[var] != 1:
            continue
        for index in pattern.edges_at(var):
            if index in removed:
                continue
            edge = pattern.edges[index]
            if edge.src == edge.dst:
                continue
            removed.add(index)
            degree[edge.src] -= 1
            degree[edge.dst] -= 1
            other = edge.other_end(var)
            if degree[other] == 1:
                worklist.append(other)
            break
    return frozenset(set(range(len(pattern))) - removed)


def is_acyclic(pattern: QueryPattern) -> bool:
    """True if the pattern's join graph is a forest.

    For binary relations this coincides with query acyclicity.  A
    forest peels away entirely, while a cycle — a self-loop and two
    parallel atoms included — survives in the 2-core.
    """
    return not two_core_edges(pattern)


def cycle_masks(pattern: QueryPattern) -> list[int]:
    """Atom bitmasks (bit ``i`` = atom ``i``) of the pattern's simple
    cycles, in :func:`cycles` order.

    A cycle is a self-loop, two parallel atoms between one variable
    pair, or a simple cycle of three or more variables with one atom
    chosen per consecutive pair.  Each variable cycle is recorded once:
    rooted at its smallest variable, through larger variables only, in
    the direction whose second variable is the smaller of the root's
    two neighbours on the cycle.
    """
    position = {var: i for i, var in enumerate(pattern.variables)}
    found: set[int] = set()
    # pair_atoms[(u, v)], u < v: the atoms joining variables u and v.
    pair_atoms: dict[tuple[int, int], list[int]] = {}
    for atom, edge in enumerate(pattern.edges):
        u, v = sorted((position[edge.src], position[edge.dst]))
        if u == v:
            found.add(1 << atom)
        else:
            pair_atoms.setdefault((u, v), []).append(atom)
    neighbours = [0] * len(position)
    for (u, v), parallel in pair_atoms.items():
        neighbours[u] |= 1 << v
        neighbours[v] |= 1 << u
        for i, first in enumerate(parallel):
            for second in parallel[i + 1:]:
                found.add(1 << first | 1 << second)
    for root in range(len(position)):
        above = -1 << (root + 1)
        stack = [
            ([root, low], 1 << low) for low in _bits(neighbours[root] & above)
        ]
        while stack:
            path, seen = stack.pop()
            end = path[-1]
            if len(path) >= 3 and neighbours[end] >> root & 1 and path[1] < end:
                _add_atom_choices(found, path, pair_atoms)
            for nxt in _bits(neighbours[end] & above & ~seen):
                stack.append((path + [nxt], seen | 1 << nxt))
    return sorted(found, key=lambda mask: (mask.bit_count(), _bits(mask)))


def _add_atom_choices(
    found: set[int],
    path: list[int],
    pair_atoms: dict[tuple[int, int], list[int]],
) -> None:
    """Add every atom choice along the closed variable cycle ``path``."""
    masks = [0]
    for u, v in zip(path, path[1:] + path[:1]):
        atoms = pair_atoms[(u, v) if u < v else (v, u)]
        masks = [mask | 1 << atom for mask in masks for atom in atoms]
    found.update(masks)


def _bits(mask: int) -> list[int]:
    """Set bit positions of ``mask``, ascending."""
    result = []
    while mask:
        low = mask & -mask
        result.append(low.bit_length() - 1)
        mask ^= low
    return result


def cycles(pattern: QueryPattern) -> list[frozenset[int]]:
    """Edge-index sets of the simple cycles of the pattern.

    Self-loops (length 1), parallel atoms (length 2) and longer simple
    cycles of the underlying undirected multigraph, sorted by (length,
    sorted atoms); see :func:`cycle_masks`.
    """
    return [frozenset(_bits(mask)) for mask in cycle_masks(pattern)]


def largest_cycle_length(pattern: QueryPattern) -> int:
    """Length (number of atoms) of the longest simple cycle; 0 if acyclic."""
    found = cycles(pattern)
    if not found:
        return 0
    return max(len(c) for c in found)


def has_only_triangles(pattern: QueryPattern) -> bool:
    """True if the pattern is cyclic and every cycle has at most 3 atoms."""
    found = cycles(pattern)
    return bool(found) and all(len(c) <= 3 for c in found)


def depth(pattern: QueryPattern) -> int:
    """Template depth as used by the Acyclic workload (Figure 8).

    Defined as the diameter of the underlying graph in edges; a k-star has
    depth 2 and a k-path has depth k, matching §6.1's description that
    "the minimum depth of any query is 2 (stars) and the maximum is k
    (paths)".  Patterns with a single atom have depth 1.  Each variable's
    eccentricity is a breadth-first walk over neighbour bitmasks; a
    disconnected pattern has no diameter and raises :class:`PatternError`.
    """
    position = {var: i for i, var in enumerate(pattern.variables)}
    neighbours = [0] * len(position)
    for edge in pattern.edges:
        u, v = position[edge.src], position[edge.dst]
        neighbours[u] |= 1 << v
        neighbours[v] |= 1 << u
    everything = (1 << len(position)) - 1
    diameter = 0
    for root in range(len(position)):
        reached = frontier = 1 << root
        eccentricity = -1
        while frontier:
            eccentricity += 1
            step = 0
            for var in _bits(frontier):
                step |= neighbours[var]
            frontier = step & ~reached
            reached |= frontier
        if reached != everything:
            raise PatternError("a disconnected pattern has no depth")
        diameter = max(diameter, eccentricity)
    return diameter


def spanning_tree_and_closures(pattern: QueryPattern) -> tuple[list[int], list[int]]:
    """Split edges into (spanning-forest edges, cycle-closing edges).

    The forest is grown in BFS order from the first variable, so the tree
    edge list is a valid "walk order": each tree edge after the first has
    at least one endpoint already visited.
    """
    visited: set[str] = set()
    tree: list[int] = []
    closures: list[int] = []
    used: set[int] = set()
    order = list(pattern.variables)
    for start in order:
        if start in visited:
            continue
        visited.add(start)
        frontier = [start]
        while frontier:
            var = frontier.pop(0)
            for index in pattern.edges_at(var):
                if index in used:
                    continue
                other = pattern.edges[index].other_end(var)
                if other in visited:
                    # Both endpoints known: this edge closes a cycle,
                    # unless it is the discovery edge (handled below).
                    used.add(index)
                    closures.append(index)
                else:
                    used.add(index)
                    tree.append(index)
                    visited.add(other)
                    frontier.append(other)
    return tree, closures

