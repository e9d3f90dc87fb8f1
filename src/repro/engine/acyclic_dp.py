"""Polynomial-time homomorphism counting for acyclic patterns.

An acyclic join query over binary relations is a tree of variables; its
homomorphism count factorises over the tree.  Rooting the tree anywhere,
the number of homomorphisms that map variable ``x`` to data vertex ``v``
is the product over ``x``'s child edges of the child's count vector
summed along that edge's relation: one ``np.bincount`` over the
relation's src-sorted edge arrays per message.  Total time is
``O(|Q| · |E|)`` regardless of the (possibly astronomical) output size.

Counts are returned as ``float64``; they are exact below 2**53 and a
faithful magnitude above (the evaluation only ever takes q-error ratios).
"""

from __future__ import annotations

import numpy as np

from repro.errors import PatternError
from repro.graph.digraph import LabeledDiGraph
from repro.query.pattern import QueryPattern

__all__ = ["count_acyclic", "tree_weight_array"]


def _children_structure(
    pattern: QueryPattern, root: str
) -> list[tuple[str, str, int]]:
    """Post-order list of (parent, child, edge_index) for the query tree."""
    order: list[tuple[str, str, int]] = []
    visited_vars = {root}
    used_edges: set[int] = set()
    stack = [root]
    discovery: list[tuple[str, str, int]] = []
    while stack:
        var = stack.pop()
        for index in pattern.edges_at(var):
            if index in used_edges:
                continue
            edge = pattern.edges[index]
            other = edge.other_end(var)
            if other in visited_vars:
                raise PatternError("pattern is not acyclic")
            used_edges.add(index)
            visited_vars.add(other)
            discovery.append((var, other, index))
            stack.append(other)
    if len(used_edges) != len(pattern):
        raise PatternError("pattern is disconnected or not acyclic")
    # Children must be processed before parents: reverse discovery order.
    order = list(reversed(discovery))
    return order


def tree_weight_array(
    graph: LabeledDiGraph,
    pattern: QueryPattern,
    root: str,
    leaf_weights: dict[str, np.ndarray] | None = None,
) -> np.ndarray:
    """Per-vertex homomorphism counts of an acyclic pattern rooted at ``root``.

    ``result[v]`` is the number of homomorphisms of ``pattern`` mapping
    ``root`` to data vertex ``v``.  ``leaf_weights`` optionally multiplies
    an extra per-vertex weight into a variable's count vector (used by the
    hybrid cyclic counter to attach hanging trees to core variables).
    """
    if root not in pattern.variables:
        raise PatternError(f"{root!r} is not a variable of the pattern")
    n = graph.num_vertices
    counts: dict[str, np.ndarray] = {}

    def vector_for(var: str) -> np.ndarray:
        vec = counts.get(var)
        if vec is None:
            vec = np.ones(n, dtype=np.float64)
            if leaf_weights and var in leaf_weights:
                vec = vec * leaf_weights[var]
            counts[var] = vec
        return vec

    for parent, child, index in _children_structure(pattern, root):
        edge = pattern.edges[index]
        child_vec = vector_for(child)
        if edge.label in graph:
            relation = graph.relation(edge.label)
            # Summing in src-sorted edge order adds each vertex's terms in
            # the order a CSR mat-vec (or its transpose) does: same bits.
            if edge.src == parent:
                sources, targets = relation.src_by_src, relation.dst_by_src
            else:
                sources, targets = relation.dst_by_src, relation.src_by_src
            message = np.bincount(
                sources, weights=child_vec[targets], minlength=n
            )
        else:
            message = np.zeros(n, dtype=np.float64)
        parent_vec = vector_for(parent)
        counts[parent] = parent_vec * message
    return vector_for(root)


def count_acyclic(graph: LabeledDiGraph, pattern: QueryPattern) -> float:
    """Exact homomorphism count of a connected acyclic pattern."""
    root = pattern.variables[0]
    return float(tree_weight_array(graph, pattern, root).sum())
