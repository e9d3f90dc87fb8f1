"""Front door for exact cardinality computation.

:func:`count_pattern` multiplies per-component counts of a disconnected
pattern (the join of disconnected components is their Cartesian
product).  An acyclic component goes to the polynomial tree DP; a cyclic
one goes to :func:`count_general`, which peels it to its 2-core (the
cyclic skeleton), counts the trees hanging off each core variable with
the acyclic DP (:func:`repro.engine.acyclic_dp.tree_weight_array`), and
counts core assignments with the match-frame join counter
(:func:`repro.engine.frames.count_core_frames`).  The exponential part
is confined to the core, which for the paper's workloads is at most a
9-cycle or K4.

A ``budget`` bounds the core join and raises
:class:`~repro.errors.CountBudgetExceeded` when exhausted — the
library's equivalent of the per-query timeouts used in §6.  Its unit is
materialized frame rows (:class:`repro.engine.frames.RowBudget`).
"""

from __future__ import annotations

import numpy as np

from repro.engine.acyclic_dp import count_acyclic, tree_weight_array
from repro.engine.frames import count_core_frames
from repro.errors import PatternError
from repro.graph.digraph import LabeledDiGraph
from repro.query.pattern import QueryPattern
from repro.query.shape import two_core_edges

__all__ = ["count_pattern", "count_general"]


def _components(pattern: QueryPattern) -> list[QueryPattern]:
    remaining = set(range(len(pattern)))
    parts: list[QueryPattern] = []
    while remaining:
        seed = min(remaining)
        component = {seed}
        frontier = [seed]
        while frontier:
            current = frontier.pop()
            for var in pattern.edges[current].variables():
                for neighbor in pattern.edges_at(var):
                    if neighbor in remaining and neighbor not in component:
                        component.add(neighbor)
                        frontier.append(neighbor)
        remaining -= component
        parts.append(pattern.subpattern(sorted(component)))
    return parts


def _hanging_trees(
    pattern: QueryPattern, core: frozenset[int]
) -> list[tuple[str, list[int]]]:
    """Split non-core edges into components, each rooted at a core variable.

    Returns ``(root_var, edge_indexes)`` per hanging tree.  When the core
    is empty the pattern is acyclic and this function is not used.
    """
    non_core = [i for i in range(len(pattern)) if i not in core]
    if not non_core:
        return []
    core_vars = pattern.variables_of(core)
    unassigned = set(non_core)
    trees: list[tuple[str, list[int]]] = []
    while unassigned:
        seed = min(unassigned)
        component = {seed}
        frontier = [seed]
        while frontier:
            current = frontier.pop()
            for var in pattern.edges[current].variables():
                # Do not cross through core variables: trees hanging at
                # different core vertices must stay separate components.
                if var in core_vars:
                    continue
                for neighbor in pattern.edges_at(var):
                    if neighbor in unassigned and neighbor not in component:
                        component.add(neighbor)
                        frontier.append(neighbor)
        unassigned -= component
        roots = sorted(pattern.variables_of(component) & core_vars)
        if len(roots) != 1:
            raise PatternError(
                "hanging component attaches to "
                f"{len(roots)} core variables (expected 1)"
            )
        trees.append((roots[0], sorted(component)))
    return trees


def count_general(
    graph: LabeledDiGraph,
    pattern: QueryPattern,
    budget: int | None = None,
) -> float:
    """Exact homomorphism count for an arbitrary connected pattern.

    Hanging trees become per-variable weight arrays; the 2-core is
    counted by :func:`~repro.engine.frames.count_core_frames`, which
    charges ``budget`` one unit per materialized frame row.
    """
    core = two_core_edges(pattern)
    if not core:
        return count_acyclic(graph, pattern)
    weights: dict[str, np.ndarray] = {}
    for root, tree_edges in _hanging_trees(pattern, core):
        tree = pattern.subpattern(tree_edges)
        array = tree_weight_array(graph, tree, root)
        if root in weights:
            weights[root] = weights[root] * array
        else:
            weights[root] = array
    core_pattern = pattern.subpattern(sorted(core))
    return count_core_frames(graph, core_pattern, weights, budget)


def count_pattern(
    graph: LabeledDiGraph,
    pattern: QueryPattern,
    budget: int | None = None,
) -> float:
    """Exact homomorphism (join-output) count of ``pattern`` in ``graph``.

    ``budget`` bounds the core join of each cyclic component and raises
    :class:`repro.errors.CountBudgetExceeded` when exhausted.  Its unit
    is materialized frame rows: the first core relation's rows are
    charged up front, then every join step charges the rows it
    produced, and the count fails once the total exceeds ``budget``.
    Acyclic components use the polynomial tree DP and charge nothing.
    """
    for label in pattern.labels:
        if label not in graph:
            return 0.0
    total = 1.0
    for component in _components(pattern):
        if two_core_edges(component):
            total *= count_general(graph, component, budget=budget)
        else:
            total *= count_acyclic(graph, component)
        if total == 0.0:
            return 0.0
    return total
