"""Path statistics over a CEG: the estimator heuristic space of §4.2.

Each (source, target) path is an estimate; an estimator picks a set of
paths by *path length* (max-hop / min-hop / all-hops) and aggregates
their estimates (max-aggr / min-aggr / avg-aggr).  Instead of
enumerating paths (their number explodes — the paper counts 252 formulas
for one query), a single dynamic program over the DAG keyed by
(vertex, hop-count) tracks the count, sum, minimum and maximum of path
products, which is exactly enough to answer all nine estimators.
:func:`hop_statistics_compiled` runs it as one bottom-up NumPy pass per
hop level over the CEG's in-edge arrays, folding every edge's
contribution with sequential ufunc accumulation in the order contract
of :mod:`repro.core.compiled`, so its sums are bit-identical to a
vertex-by-vertex dict DP (kept as an oracle in ``tests/oracles/``).

The P* oracle (§6.2.3) needs the full multiset of *distinct* path
estimates; :func:`distinct_estimates` runs a second DP over value sets
with a configurable cap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.ceg import CEG
from repro.errors import EstimationError

__all__ = [
    "HopStats",
    "PATH_LENGTH_CHOICES",
    "AGGREGATOR_CHOICES",
    "hop_statistics_compiled",
    "estimate_from_ceg",
    "distinct_estimates",
]

PATH_LENGTH_CHOICES = ("max", "min", "all")
AGGREGATOR_CHOICES = ("max", "min", "avg")


@dataclass
class HopStats:
    """Aggregate over all paths reaching a vertex in a fixed hop count."""

    count: float = 0.0
    total: float = 0.0
    minimum: float = float("inf")
    maximum: float = float("-inf")


def hop_statistics_compiled(ceg: CEG) -> dict[int, HopStats]:
    """Per-hop-count path statistics at the CEG's target vertex.

    One hop level at a time: ``stats_{k+1}[v]`` folds every in-edge
    contribution ``stats_k[u] ∘ rate`` with unbuffered ufunc
    accumulation (``np.add.at`` applies repeated indexes sequentially in
    array order).  The in-edge order is (target, source topological
    position, emission order), so every float sum reproduces a
    vertex-by-vertex DP bit for bit.
    """
    n = ceg.num_nodes
    count = np.zeros(n)
    total = np.zeros(n)
    minimum = np.full(n, np.inf)
    maximum = np.full(n, -np.inf)
    source = ceg.source_pos
    count[source] = 1.0
    total[source] = 1.0
    minimum[source] = 1.0
    maximum[source] = 1.0
    target = ceg.target_pos
    result: dict[int, HopStats] = {}
    if target == source:
        result[0] = HopStats(count=1.0, total=1.0, minimum=1.0, maximum=1.0)
    sources = ceg.in_source
    targets = ceg.in_target
    rates = ceg.in_rate
    hops = 0
    while hops < n:
        live = count[sources] > 0.0
        if not live.any():
            break
        src = sources[live]
        tgt = targets[live]
        rate = rates[live]
        next_count = np.zeros(n)
        next_total = np.zeros(n)
        next_min = np.full(n, np.inf)
        next_max = np.full(n, -np.inf)
        np.add.at(next_count, tgt, count[src])
        np.add.at(next_total, tgt, total[src] * rate)
        np.minimum.at(next_min, tgt, minimum[src] * rate)
        np.maximum.at(next_max, tgt, maximum[src] * rate)
        count, total, minimum, maximum = (
            next_count, next_total, next_min, next_max,
        )
        hops += 1
        if count[target] > 0.0:
            result[hops] = HopStats(
                count=float(count[target]),
                total=float(total[target]),
                minimum=float(minimum[target]),
                maximum=float(maximum[target]),
            )
    return result


def estimate_from_ceg(ceg: CEG, path_length: str, aggregator: str) -> float:
    """One of the nine §4.2 estimates from a built CEG.

    Raises :class:`EstimationError` when the CEG has no (source, target)
    path — the estimator has no formula for the query.
    """
    if path_length not in PATH_LENGTH_CHOICES:
        raise ValueError(f"path_length must be one of {PATH_LENGTH_CHOICES}")
    if aggregator not in AGGREGATOR_CHOICES:
        raise ValueError(f"aggregator must be one of {AGGREGATOR_CHOICES}")
    per_hop = hop_statistics_compiled(ceg)
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


def distinct_estimates(ceg: CEG, cap: int = 50_000) -> list[float]:
    """All distinct path estimates (P* oracle input), capped.

    Values are deduplicated up to 12 significant digits to absorb float
    noise from different multiplication orders.
    """
    table: dict[object, set[float]] = {ceg.source: {1.0}}
    for node in ceg.topological_order():
        at_node = table.get(node)
        if not at_node:
            continue
        for edge in ceg.out_edges(node):
            into = table.setdefault(edge.target, set())
            if len(into) >= cap:
                continue
            for value in at_node:
                into.add(_round_sig(value * edge.rate))
    found = table.get(ceg.target, set())
    if not found:
        raise EstimationError("CEG has no bottom-to-top path")
    return sorted(found)


def _round_sig(value: float, digits: int = 12) -> float:
    if value == 0.0 or value != value or value in (float("inf"), float("-inf")):
        return value
    return float(f"%.{digits}e" % value)
