"""Degree-irregularity statistics for the entropy-weighted CEG (§8).

The paper's future-work sketch proposes using "entropies of the
distributions of small-size joins as edge weights ... and pick the
minimum-weight, e.g. 'lowest entropy', paths, assuming that degrees are
more regular in lower entropy edges".

We instantiate that idea with the KL divergence from uniform of the
extension-degree distribution of a CEG edge ``(E, I)``: if the ``n_I``
matches of ``I`` extend to ``c_1 .. c_n`` matches of ``E`` (zeros
included), the irregularity is ``log2(n_I) - H(c / Σc)`` — exactly 0
when every ``I``-match extends equally often (the uniformity assumption
is then *exact*) and growing with skew.  Summing it along a path scores
how much trust the path's uniformity assumptions deserve.

The catalog measures the base graph on demand and is never persisted:
it backs the §8 ablation bench, not the served statistics.
"""

from __future__ import annotations

import math

import numpy as np

from repro.catalog.degrees import materialise_table
from repro.engine.counter import count_pattern
from repro.engine.frames import encode_columns
from repro.errors import PlanningError
from repro.graph.digraph import LabeledDiGraph
from repro.query.canonical import canonical_key, canonical_order
from repro.query.pattern import QueryPattern

__all__ = ["EntropyCatalog", "degree_irregularity"]


def degree_irregularity(counts: np.ndarray, num_groups: float) -> float:
    """``log2(n) - H(counts / total)``: KL divergence from uniform.

    ``counts`` are the non-zero extension counts; ``num_groups`` is the
    total number of groups including those with zero extensions.
    """
    total = float(counts.sum())
    if total <= 0 or num_groups <= 1:
        return 0.0
    probabilities = counts / total
    entropy = float(-(probabilities * np.log2(probabilities)).sum())
    return max(math.log2(num_groups) - entropy, 0.0)


def _canonical_vars(
    extension: QueryPattern, intersection_vars: frozenset[str]
) -> tuple[str, ...]:
    """The intersection variables translated to canonical names.

    Entries are keyed by ``(canonical pattern key, canonical variable
    names)`` so the cache is purely shape-addressed: isomorphic
    requests under different variable namings share one entry
    (irregularity is renaming-invariant).  ``canonical_order(...)[i]``
    plays ``v{i}``.
    """
    position = {var: i for i, var in enumerate(canonical_order(extension))}
    return tuple(sorted(f"v{position[var]}" for var in intersection_vars))


class EntropyCatalog:
    """Cached per-(E, I) degree-irregularity statistics of ``graph``."""

    def __init__(
        self,
        graph: LabeledDiGraph,
        max_rows: int | None = 5_000_000,
    ):
        self.graph = graph
        self.max_rows = max_rows
        self._cache: dict[tuple, float] = {}

    def irregularity(
        self, extension: QueryPattern, intersection_vars: frozenset[str]
    ) -> float:
        """Irregularity of extending ``intersection_vars`` to ``extension``.

        ``intersection_vars`` must be a subset of the extension pattern's
        variables; an empty set (the CEG's first hop uses the exact
        cardinality) scores 0.
        """
        if not intersection_vars:
            return 0.0
        key = (
            canonical_key(extension),
            _canonical_vars(extension, intersection_vars),
        )
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        value = self._compute(extension, intersection_vars)
        self._cache[key] = value
        return value

    def _compute(
        self, extension: QueryPattern, intersection_vars: frozenset[str]
    ) -> float:
        try:
            table = materialise_table(self.graph, extension, self.max_rows)
        except PlanningError:
            # Over max_rows: too large to measure, scored as regular.
            return 0.0
        if table.size == 0:
            return 0.0
        columns = [
            table.column(var)
            for var in sorted(intersection_vars)
            if var in table.variables
        ]
        if not columns:
            return 0.0
        keys = encode_columns(columns, self.graph.num_vertices)
        _, counts = np.unique(keys, return_counts=True)
        # Number of groups: all distinct bindings of the intersection
        # variables that have at least one match of the *intersection*
        # pattern itself (zero-extension groups dilute the uniform
        # reference distribution).
        groups = self._group_count(extension, intersection_vars)
        groups = max(groups, float(len(counts)))
        return degree_irregularity(counts.astype(np.float64), groups)

    def _group_count(
        self, extension: QueryPattern, intersection_vars: frozenset[str]
    ) -> float:
        """Distinct bindings of the intersection vars in the data."""
        # Use the projection of any single atom touching the vars as a
        # cheap proxy domain; exact group counting would require the
        # intersection pattern, which the CEG builder supplies only as a
        # variable set here.
        for edge in extension.edges:
            if edge.src in intersection_vars and edge.dst in intersection_vars:
                return float(count_pattern(self.graph, QueryPattern([edge])))
        best = 0.0
        for edge in extension.edges:
            if edge.src in intersection_vars:
                best = max(best, float(self.graph.distinct_sources(edge.label)))
            if edge.dst in intersection_vars:
                best = max(
                    best, float(self.graph.distinct_destinations(edge.label))
                )
        return best

    @property
    def num_entries(self) -> int:
        """Number of cached irregularity statistics."""
        return len(self._cache)
