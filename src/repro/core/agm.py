"""The AGM bound (Atserias–Grohe–Marx, reference [4]).

The classic worst-case output-size bound using only relation
cardinalities: ``|Q| ≤ Π |R_i|^{x_i}`` minimised over fractional edge
covers ``x``.  Solved as a small LP.  Included as the baseline bound
that MOLP improves upon (§5).
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import EstimationError
from repro.graph.digraph import LabeledDiGraph
from repro.query.pattern import QueryPattern

__all__ = ["agm_bound"]


def agm_bound(query: QueryPattern, graph: LabeledDiGraph) -> float:
    """``min_x Π |R_i|^{x_i}`` over fractional edge covers of the query."""
    from scipy.optimize import linprog  # only the LP baselines load scipy

    cardinalities = [graph.cardinality(edge.label) for edge in query.edges]
    if any(c == 0 for c in cardinalities):
        return 0.0
    variables = list(query.variables)
    num_atoms = len(query)
    # Constraint per attribute: sum of x_i over covering atoms >= 1.
    matrix = np.zeros((len(variables), num_atoms))
    for column, edge in enumerate(query.edges):
        for row, var in enumerate(variables):
            if edge.touches(var):
                matrix[row, column] = -1.0
    objective = np.asarray([math.log2(c) for c in cardinalities])
    result = linprog(
        objective,
        A_ub=matrix,
        b_ub=-np.ones(len(variables)),
        bounds=[(0.0, None)] * num_atoms,
        method="highs",
    )
    if not result.success:
        raise EstimationError(f"AGM LP failed: {result.message}")
    return float(2.0 ** result.fun)
