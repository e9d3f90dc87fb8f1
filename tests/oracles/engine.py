"""Reference exact counters, kept verbatim as oracles.

* :func:`count_general_backtracking` — the per-candidate backtracker the
  library counted cyclic cores with before the match-frame join counter
  (:func:`repro.engine.frames.count_core_frames`).  It peels the pattern
  to its 2-core exactly as :func:`repro.engine.count_pattern` does, then
  binds core variables one at a time (:func:`_variable_order`) over the
  candidate sets of :func:`_candidates`.  Its ``budget`` unit is one per
  candidate expansion (``candidates + 1`` per recursion step), not the
  frame counter's materialized rows.
* :func:`count_bruteforce` — every assignment of query variables to
  data vertices, checked atom by atom.  Exponential: use only on graphs
  with a handful of vertices.

The differential tests compare the library's counts against them with
exact float equality.
"""

from __future__ import annotations

from itertools import product

import numpy as np

from repro.engine.acyclic_dp import count_acyclic, tree_weight_array
from repro.engine.counter import _components, _hanging_trees
from repro.errors import CountBudgetExceeded
from repro.graph.digraph import LabeledDiGraph
from repro.query.pattern import QueryPattern
from repro.query.shape import two_core_edges

__all__ = ["count_bruteforce", "count_general_backtracking"]


def count_bruteforce(graph: LabeledDiGraph, pattern: QueryPattern) -> int:
    """Exact homomorphism (join) count by exhaustive enumeration."""
    variables = pattern.variables
    total = 0
    domain = range(graph.num_vertices)
    for assignment in product(domain, repeat=len(variables)):
        binding = dict(zip(variables, assignment))
        ok = True
        for edge in pattern.edges:
            relation = (
                graph.relation(edge.label) if edge.label in graph else None
            )
            if relation is None or not relation.has_edge(
                binding[edge.src], binding[edge.dst], graph.num_vertices
            ):
                ok = False
                break
        if ok:
            total += 1
    return total


def count_general_backtracking(
    graph: LabeledDiGraph,
    pattern: QueryPattern,
    budget: int | None = None,
) -> float:
    """Exact homomorphism count with cyclic cores backtracked per candidate.

    Same front door as :func:`repro.engine.count_pattern` (missing labels
    count 0, disconnected components multiply, acyclic components use the
    tree DP); only the core counter differs.  ``budget`` caps candidate
    expansions and raises :class:`CountBudgetExceeded` when exhausted.
    """
    for label in pattern.labels:
        if label not in graph:
            return 0.0
    total = 1.0
    for component in _components(pattern):
        core = two_core_edges(component)
        if core:
            total *= _count_cyclic(graph, component, core, budget)
        else:
            total *= count_acyclic(graph, component)
        if total == 0.0:
            return 0.0
    return total


def _count_cyclic(
    graph: LabeledDiGraph,
    pattern: QueryPattern,
    core: frozenset[int],
    budget: int | None,
) -> float:
    weights: dict[str, np.ndarray] = {}
    for root, tree_edges in _hanging_trees(pattern, core):
        tree = pattern.subpattern(tree_edges)
        array = tree_weight_array(graph, tree, root)
        if root in weights:
            weights[root] = weights[root] * array
        else:
            weights[root] = array
    core_pattern = pattern.subpattern(sorted(core))
    order = _variable_order(graph, core_pattern)
    return _count_core(graph, core_pattern, order, weights, budget)


def _variable_order(
    graph: LabeledDiGraph, pattern: QueryPattern
) -> list[str]:
    """Greedy core-variable order: smallest relation first, then most-bound."""

    def smallest_incident(var: str) -> int:
        sizes = [
            graph.cardinality(pattern.edges[i].label)
            for i in pattern.edges_at(var)
        ]
        return min(sizes) if sizes else 0

    variables = list(pattern.variables)
    order: list[str] = []
    bound: set[str] = set()
    while len(order) < len(variables):
        best = None
        best_key = None
        for var in variables:
            if var in bound:
                continue
            attached = sum(
                1
                for i in pattern.edges_at(var)
                if pattern.edges[i].other_end(var) in bound
            )
            key = (-attached, smallest_incident(var), var)
            if best_key is None or key < best_key:
                best_key = key
                best = var
        assert best is not None
        order.append(best)
        bound.add(best)
    return order


def _candidates(
    graph: LabeledDiGraph,
    pattern: QueryPattern,
    var: str,
    binding: dict[str, int],
) -> np.ndarray:
    """Candidate data vertices for ``var`` given already-bound neighbors."""
    result: np.ndarray | None = None
    loops: list[int] = []
    for index in pattern.edges_at(var):
        edge = pattern.edges[index]
        if edge.src == edge.dst:
            loops.append(index)
            continue
        other = edge.other_end(var)
        if other not in binding:
            continue
        if edge.label not in graph:
            return np.empty(0, dtype=np.int64)
        relation = graph.relation(edge.label)
        if edge.src == var:
            found = relation.in_neighbors(binding[other])
        else:
            found = relation.out_neighbors(binding[other])
        found = np.unique(found)
        result = found if result is None else np.intersect1d(
            result, found, assume_unique=True
        )
        if result.size == 0:
            return result
    if result is None:
        # No bound neighbor: seed from the smallest incident relation.
        best: np.ndarray | None = None
        for index in pattern.edges_at(var):
            edge = pattern.edges[index]
            if edge.label not in graph:
                return np.empty(0, dtype=np.int64)
            relation = graph.relation(edge.label)
            side = (
                relation.src_by_src if edge.src == var else relation.dst_by_src
            )
            values = np.unique(side)
            if best is None or values.size < best.size:
                best = values
        result = best if best is not None else np.empty(0, dtype=np.int64)
    for index in loops:
        edge = pattern.edges[index]
        if edge.label not in graph:
            return np.empty(0, dtype=np.int64)
        relation = graph.relation(edge.label)
        keep = [
            v for v in result
            if relation.has_edge(int(v), int(v), graph.num_vertices)
        ]
        result = np.asarray(keep, dtype=np.int64)
    return result


def _count_core(
    graph: LabeledDiGraph,
    core_pattern: QueryPattern,
    order: list[str],
    weights: dict[str, np.ndarray],
    budget: int | None,
) -> float:
    spent = 0

    def charge(amount: int) -> None:
        nonlocal spent
        if budget is None:
            return
        spent += amount
        if spent > budget:
            raise CountBudgetExceeded(
                f"core counting exceeded budget of {budget} expansions"
            )

    last = len(order) - 1

    def recurse(position: int, binding: dict[str, int], acc: float) -> float:
        var = order[position]
        candidates = _candidates(graph, core_pattern, var, binding)
        charge(int(candidates.size) + 1)
        if candidates.size == 0:
            return 0.0
        weight = weights.get(var)
        if position == last:
            if weight is None:
                return acc * float(candidates.size)
            return acc * float(weight[candidates].sum())
        total = 0.0
        for value in candidates:
            factor = acc if weight is None else acc * float(weight[value])
            if factor == 0.0:
                continue
            binding[var] = int(value)
            total += recurse(position + 1, binding, factor)
        binding.pop(var, None)
        return total

    return recurse(0, {}, 1.0)
