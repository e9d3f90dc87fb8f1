"""The DBPLP bound (reference [9], Appendix D).

DBPLP assigns one LP variable per attribute: for a cover ``C`` (a set of
``(R_j, A_j)`` pairs whose attribute sets jointly cover the query), it
minimises ``Σ_a v_a`` subject to, for every ``(R_j, A_j)`` and every
``A'_j ⊆ A_j``::

    Σ_{a ∈ A_j \\ A'_j} v_a  ≥  log2 deg(A'_j, A_j, R_j)

Corollary D.1 (MOLP ≤ DBPLP for every cover) is machine-checked in the
test suite by comparing this LP against :func:`repro.core.ceg_m.molp_bound`.
"""

from __future__ import annotations

import math
from itertools import combinations, product

import numpy as np

from repro.catalog.degrees import DegreeCatalog
from repro.errors import EstimationError
from repro.query.pattern import QueryPattern

__all__ = ["dbplp_bound", "default_cover", "enumerate_covers", "best_dbplp_bound"]

Cover = list[tuple[int, frozenset[str]]]  # (atom index, covered attrs A_j)


def default_cover(query: QueryPattern) -> Cover:
    """Every atom covers all of its attributes (always a valid cover)."""
    return [
        (index, frozenset(edge.variables()))
        for index, edge in enumerate(query.edges)
    ]


def enumerate_covers(query: QueryPattern, limit: int = 5000) -> list[Cover]:
    """All covers built from per-atom attribute subsets (small queries).

    Each atom contributes one of: nothing, one endpoint, or both
    endpoints.  Combinations that fail to cover every variable are
    dropped.  ``limit`` caps the enumeration.
    """
    options: list[list[frozenset[str]]] = []
    for edge in query.edges:
        attrs = frozenset(edge.variables())
        atom_options = [frozenset()] + [frozenset({a}) for a in sorted(attrs)]
        atom_options.append(attrs)
        options.append(list(dict.fromkeys(atom_options)))
    covers: list[Cover] = []
    everything = set(query.variables)
    for combo in product(*options):
        covered = set().union(*combo) if combo else set()
        if covered != everything:
            continue
        covers.append(
            [(i, chosen) for i, chosen in enumerate(combo) if chosen]
        )
        if len(covers) >= limit:
            break
    return covers


def dbplp_bound(
    query: QueryPattern, catalog: DegreeCatalog, cover: Cover | None = None
) -> float:
    """The DBPLP bound ``2^{Σ v_a}`` for one cover."""
    from scipy.optimize import linprog  # only the LP baselines load scipy

    if cover is None:
        cover = default_cover(query)
    variables = list(query.variables)
    index_of = {var: i for i, var in enumerate(variables)}
    rows: list[list[float]] = []
    rhs: list[float] = []
    for atom_index, covered in cover:
        relation = catalog.relation_for(query.subpattern([atom_index]))
        if relation.cardinality == 0:
            return 0.0
        covered_list = sorted(covered)
        for size in range(len(covered_list) + 1):
            for prime in combinations(covered_list, size):
                prime_set = frozenset(prime)
                payers = covered - prime_set
                if not payers:
                    continue
                degree = relation.deg(prime_set, covered)
                if degree <= 0:
                    return 0.0
                row = [0.0] * len(variables)
                for attr in payers:
                    row[index_of[attr]] = -1.0  # flip >= into <=
                rows.append(row)
                rhs.append(-math.log2(degree))
    result = linprog(
        np.ones(len(variables)),
        A_ub=np.asarray(rows),
        b_ub=np.asarray(rhs),
        bounds=[(None, None)] * len(variables),
        method="highs",
    )
    if not result.success:
        raise EstimationError(f"DBPLP LP failed: {result.message}")
    return float(2.0 ** result.fun)


def best_dbplp_bound(query: QueryPattern, catalog: DegreeCatalog) -> float:
    """Minimum DBPLP bound over the enumerable covers."""
    covers = enumerate_covers(query)
    if not covers:
        raise EstimationError("query admits no DBPLP cover")
    return min(dbplp_bound(query, catalog, cover) for cover in covers)
