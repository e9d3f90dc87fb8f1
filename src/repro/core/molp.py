"""MOLP as a literal linear program (§5.1), via ``scipy.optimize.linprog``.

This module exists to *machine-check the paper's theory*, not to
estimate: production estimation uses the combinatorial shortest-path
solution (:func:`repro.core.ceg_m.molp_bound`), which Observation 2 says
is possible.  The test suite asserts, on random instances, that

* the LP optimum equals the ``CEG_M`` minimum-weight path (Theorem 5.1);
* adding projection inequalities ``s_X ≤ s_Y`` leaves the optimum
  unchanged (Observation 3 / Appendix A).

The LP maximises ``s_A`` subject to ``s_∅ = 0`` and one extension
inequality per (attribute set ``W``, statistic relation ``R``,
``Y ⊆ attrs(R)``): ``s_{W∪Y} ≤ s_W + log2 deg(W ∩ Y, Y, R)``.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np

from repro.catalog.degrees import DegreeCatalog
from repro.errors import EstimationError
from repro.query.pattern import QueryPattern

__all__ = ["molp_lp_bound"]

_MAX_LP_ATTRS = 14


def molp_lp_bound(
    query: QueryPattern,
    catalog: DegreeCatalog,
    include_projections: bool = False,
) -> float:
    """The MOLP optimum ``2^{s_A}`` solved numerically."""
    from scipy.optimize import linprog  # only the LP baselines load scipy
    from scipy.sparse import csr_matrix

    attrs = tuple(sorted(query.variables))
    n = len(attrs)
    if n > _MAX_LP_ATTRS:
        raise EstimationError(f"LP formulation limited to {_MAX_LP_ATTRS} attrs")
    relations = catalog.stat_relations(query)
    if any(relation.cardinality == 0 for relation in relations):
        return 0.0
    index_of = {attr: i for i, attr in enumerate(attrs)}

    def mask_of(subset) -> int:
        mask = 0
        for attr in subset:
            mask |= 1 << index_of[attr]
        return mask

    num_vars = 1 << n
    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    rhs: list[float] = []
    row = 0

    def add_row(greater: int, smaller: int, bound: float) -> None:
        nonlocal row
        rows.extend((row, row))
        cols.extend((greater, smaller))
        vals.extend((1.0, -1.0))
        rhs.append(bound)
        row += 1

    for relation in relations:
        rel_attrs = tuple(sorted(relation.attributes))
        for size in range(1, len(rel_attrs) + 1):
            for y in combinations(rel_attrs, size):
                y_set = frozenset(y)
                y_mask = mask_of(y_set)
                for w_mask in range(num_vars):
                    if y_mask & ~w_mask == 0:
                        continue  # Y ⊆ W: trivial inequality
                    x_set = frozenset(
                        a for a in y_set if w_mask >> index_of[a] & 1
                    )
                    degree = relation.deg(x_set, y_set)
                    if degree <= 0:
                        return 0.0
                    add_row(w_mask | y_mask, w_mask, math.log2(degree))
    if include_projections:
        for y_mask in range(num_vars):
            for bit in range(n):
                if y_mask >> bit & 1:
                    add_row(y_mask & ~(1 << bit), y_mask, 0.0)

    matrix = csr_matrix(
        (np.asarray(vals), (np.asarray(rows), np.asarray(cols))),
        shape=(row, num_vars),
    )
    objective = np.zeros(num_vars)
    objective[num_vars - 1] = -1.0  # maximise s_A
    bounds = [(0.0, 0.0)] + [(0.0, None)] * (num_vars - 1)
    result = linprog(
        objective,
        A_ub=matrix,
        b_ub=np.asarray(rhs),
        bounds=bounds,
        method="highs",
    )
    if not result.success:
        raise EstimationError(f"MOLP LP failed: {result.message}")
    return float(2.0 ** (-result.fun))
