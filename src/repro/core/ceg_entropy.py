"""The entropy-weighted CEG estimator sketched in the paper's §8.

Build ``CEG_O`` as usual, annotate every edge with the degree
*irregularity* of the uniformity assumption it makes (see
:mod:`repro.catalog.entropy`), then pick the bottom-to-top path whose
total irregularity is lowest — "trust the most regular formula" — and
return that path's estimate.  Ties break toward the larger estimate
(the paper's anti-underestimation default for acyclic queries).

This is an *extension* beyond the paper's evaluated contributions; the
ablation bench compares it against max-hop-max and the P* oracle.
"""

from __future__ import annotations

from repro.catalog.entropy import EntropyCatalog
from repro.catalog.markov import MarkovTable
from repro.core.ceg import CEG
from repro.core.ceg_o import build_ceg_o
from repro.errors import EstimationError
from repro.query.pattern import QueryPattern

__all__ = ["LowestEntropyEstimator", "lowest_entropy_estimate"]


def _edge_irregularity(
    query: QueryPattern,
    source: frozenset[int],
    target: frozenset[int],
    entropy: EntropyCatalog,
) -> float:
    """Irregularity of one CEG_O edge, reconstructed from its endpoints.

    The extension pattern is not stored on the edge, so the tightest
    reconstruction is the union of the new atoms with the intersection
    variables they condition on — the set of shared variables between
    the old and new parts.
    """
    new_atoms = target - source
    if not new_atoms or not source:
        return 0.0
    old_vars = query.variables_of(source)
    new_vars = query.variables_of(new_atoms)
    shared = frozenset(old_vars & new_vars)
    return entropy.irregularity(
        extension_pattern(query, new_atoms, source), shared
    )


def extension_pattern(
    query: QueryPattern, new_atoms: frozenset[int], source: frozenset[int]
) -> QueryPattern:
    """The new atoms plus the source atoms adjacent to them.

    This approximates the CEG edge's (E = D ∪ I) extension join closely
    enough for an irregularity score while staying Markov-table sized.
    """
    adjacent: set[int] = set(new_atoms)
    new_vars = query.variables_of(new_atoms)
    for index in source:
        edge = query.edges[index]
        if edge.src in new_vars or edge.dst in new_vars:
            adjacent.add(index)
    return query.subpattern(adjacent)


def lowest_entropy_estimate(
    query: QueryPattern,
    markov: MarkovTable,
    entropy: EntropyCatalog,
) -> float:
    """The estimate of the minimum-total-irregularity (∅, Q) path."""
    ceg = build_ceg_o(query, markov)
    return _select_path(ceg, query, entropy)


def _select_path(ceg: CEG, query: QueryPattern, entropy: EntropyCatalog) -> float:
    best: dict[object, tuple[float, float]] = {ceg.source: (0.0, 1.0)}
    for node in ceg.topological_order():
        state = best.get(node)
        if state is None:
            continue
        irregularity, estimate = state
        for edge in ceg.out_edges(node):
            step = _edge_irregularity(query, node, edge.target, entropy)
            candidate = (irregularity + step, estimate * edge.rate)
            current = best.get(edge.target)
            if (
                current is None
                or candidate[0] < current[0] - 1e-12
                or (
                    abs(candidate[0] - current[0]) <= 1e-12
                    and candidate[1] > current[1]
                )
            ):
                best[edge.target] = candidate
    state = best.get(ceg.target)
    if state is None:
        raise EstimationError("no (∅, Q) path in the entropy-weighted CEG")
    return state[1]


class LowestEntropyEstimator:
    """§8's 'lowest entropy path' estimator over ``CEG_O``."""

    def __init__(self, markov: MarkovTable, entropy: EntropyCatalog | None = None):
        self.markov = markov
        self.entropy = entropy or EntropyCatalog(markov.graph)

    @property
    def name(self) -> str:
        """Display name used in reports."""
        return "lowest-entropy"

    def estimate(self, query: QueryPattern) -> float:
        """Estimate via the minimum-irregularity CEG_O path."""
        return lowest_entropy_estimate(query, self.markov, self.entropy)
