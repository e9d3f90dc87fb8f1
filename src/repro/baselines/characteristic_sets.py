"""Characteristic Sets (CS) estimator [Neumann & Moerkotte, ICDE 2011].

CS groups vertices by their *characteristic set* — the set of distinct
**outgoing** edge labels, as in the original RDF-3X design — and stores,
per group, the vertex count and the total occurrences of each label.

An outgoing star is estimated by summing, over the characteristic sets
containing all the star's labels, the group count times the per-label
mean multiplicities.  Any other query is decomposed into one outgoing
star per source variable (§6.4: "Q is decomposed into multiple stars
s1..sk, and the estimates for each si is multiplied, which corresponds
to an independence assumption"); each shared variable contributes a
uniform-domain join selectivity ``1 / |subjects|`` (the G-CARE CS
behaviour).  That combination underestimates joins catastrophically on
real shapes, reproducing the paper's Figure-13 observation that CS "was
not competitive" with mean q-errors in the 1e5 range.
"""

from __future__ import annotations

from collections import defaultdict

from repro.graph.digraph import LabeledDiGraph
from repro.query.pattern import QueryPattern

__all__ = ["CharacteristicSetsEstimator"]


class CharacteristicSetsEstimator:
    """The CS summary and estimator (outgoing-label characteristic sets).

    The summary (set counts, per-label occurrences, subject count) is all
    estimation reads.
    """

    def __init__(self, graph: LabeledDiGraph):
        self.graph = graph
        self._build()

    def _build(self) -> None:
        outgoing: dict[int, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        for label in self.graph.labels:
            relation = self.graph.relation(label)
            for u in relation.src_by_src:
                outgoing[int(u)][label] += 1
        set_count: dict[frozenset[str], int] = defaultdict(int)
        set_occurrences: dict[frozenset[str], dict[str, int]] = defaultdict(
            lambda: defaultdict(int)
        )
        for _, labels in outgoing.items():
            charset = frozenset(labels)
            set_count[charset] += 1
            occurrences = set_occurrences[charset]
            for label, count in labels.items():
                occurrences[label] += count
        # Insert in sorted-label order so summary iteration (and hence
        # the float summation order of estimate_star) depends on the
        # summary alone, not on the order vertices were visited.
        self.set_count: dict[frozenset[str], int] = defaultdict(int)
        self.set_occurrences: dict[frozenset[str], dict[str, int]] = defaultdict(
            lambda: defaultdict(int)
        )
        for charset in sorted(set_count, key=sorted):
            self.set_count[charset] = set_count[charset]
            occurrences = self.set_occurrences[charset]
            for label in sorted(set_occurrences[charset]):
                occurrences[label] = set_occurrences[charset][label]
        # The entity domain used for join selectivities: every vertex
        # that can be a star center (has at least one outgoing edge).
        self.num_subjects = max(len(outgoing), 1)

    @property
    def num_characteristic_sets(self) -> int:
        """Number of distinct characteristic sets in the summary."""
        return len(self.set_count)

    # ------------------------------------------------------------------
    # Star estimation
    # ------------------------------------------------------------------
    def estimate_star(self, labels: list[str]) -> float:
        """Expected matches of an outgoing star with the given labels."""
        needed = frozenset(labels)
        total = 0.0
        for charset, count in self.set_count.items():
            if not needed <= charset:
                continue
            occurrences = self.set_occurrences[charset]
            contribution = float(count)
            for label in labels:
                contribution *= occurrences[label] / count
            total += contribution
        return total

    # ------------------------------------------------------------------
    # General queries via star decomposition
    # ------------------------------------------------------------------
    def estimate(self, query: QueryPattern) -> float:
        """Cardinality estimate via star decomposition + independence."""
        stars: dict[str, list[str]] = defaultdict(list)
        for edge in query.edges:
            stars[edge.src].append(edge.label)
        estimate = 1.0
        for _, labels in stars.items():
            estimate *= self.estimate_star(labels)
        if estimate == 0.0:
            return 0.0
        # Every variable shared by k > 1 stars is an equi-join predicate
        # combined under a uniform entity domain: selectivity
        # 1/|subjects| per extra appearance.
        appearances: dict[str, int] = defaultdict(int)
        for center, labels in stars.items():
            star_vars = {center}
            for edge in query.edges:
                if edge.src == center:
                    star_vars.add(edge.dst)
            for var in star_vars:
                appearances[var] += 1
        for _, seen in appearances.items():
            if seen > 1:
                estimate /= float(self.num_subjects) ** (seen - 1)
        return estimate
