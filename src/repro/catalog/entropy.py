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
"""

from __future__ import annotations

import math

import numpy as np

from repro.catalog.degrees import materialise_table
from repro.engine.counter import count_pattern
from repro.engine.frames import encode_columns
from repro.errors import (
    MissingStatisticError,
    PlanningError,
    check_format_version,
)
from repro.graph.digraph import LabeledDiGraph
from repro.query.canonical import canonical_key, canonical_pattern
from repro.query.pattern import QueryPattern

__all__ = ["EntropyCatalog", "degree_irregularity", "ENTROPY_FORMAT_VERSION"]

# Version 2: cache entries are keyed by *canonical* variable names (see
# _canonical_vars) so they are recomputable from the key alone.  Version-1
# artifacts keyed entries by request variable names; loading one would
# silently miss on every lookup, so the version check rejects them with
# the standard "rebuild the artifact" error instead.
ENTROPY_FORMAT_VERSION = 2


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
    (irregularity is renaming-invariant), and the dynamic-graph
    maintainer can recompute any stored entry from its key alone.
    """
    canon = canonical_pattern(extension)
    if canon == extension:
        return tuple(sorted(intersection_vars))
    mapping = _isomorphism(extension, canon)
    return tuple(sorted(mapping.get(v, v) for v in intersection_vars))


class EntropyCatalog:
    """Cached per-(E, I) degree-irregularity statistics.

    ``graph`` may be None for a catalog loaded from an artifact; a
    statistic absent from the artifact then raises
    :class:`MissingStatisticError` rather than silently scoring 0.
    """

    def __init__(
        self,
        graph: LabeledDiGraph | None,
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
        if self.graph is None:
            raise MissingStatisticError(
                "statistics artifact does not cover entropy for "
                f"{extension!r} on {sorted(intersection_vars)}"
            )
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

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def to_artifact(self) -> dict:
        """JSON-serialisable snapshot of the cached irregularities."""
        return {
            "format_version": ENTROPY_FORMAT_VERSION,
            "kind": "entropy",
            "entries": [
                {
                    "key": [list(atom) for atom in pattern_key],
                    "vars": list(variables),
                    "value": value,
                }
                for (pattern_key, variables), value in sorted(
                    self._cache.items()
                )
            ],
        }

    @classmethod
    def from_artifact(
        cls,
        payload: dict,
        graph: LabeledDiGraph | None = None,
        max_rows: int | None = 5_000_000,
    ) -> "EntropyCatalog":
        """Rebuild a catalog from :meth:`to_artifact` output."""
        check_format_version(payload, ENTROPY_FORMAT_VERSION, "entropy catalog")
        catalog = cls(graph, max_rows=max_rows)
        for entry in payload["entries"]:
            pattern_key = tuple(
                (int(src), int(dst), str(label))
                for src, dst, label in entry["key"]
            )
            catalog._cache[
                (pattern_key, tuple(str(v) for v in entry["vars"]))
            ] = float(entry["value"])
        return catalog


def _isomorphism(source: QueryPattern, target: QueryPattern) -> dict[str, str]:
    """A variable mapping turning ``source`` into ``target``.

    Both patterns are small (≤ h atoms) and known to share a canonical
    key, so a backtracking search over atom correspondences terminates
    immediately.
    """
    target_edges = list(target.edges)

    def backtrack(
        index: int, mapping: dict[str, str], used: set[int]
    ) -> dict[str, str] | None:
        if index == len(source.edges):
            return dict(mapping)
        edge = source.edges[index]
        for position, candidate in enumerate(target_edges):
            if position in used or candidate.label != edge.label:
                continue
            bound_src = mapping.get(edge.src)
            bound_dst = mapping.get(edge.dst)
            if bound_src not in (None, candidate.src):
                continue
            if bound_dst not in (None, candidate.dst):
                continue
            if bound_src is None and candidate.src in mapping.values():
                if edge.src not in mapping:
                    conflict = any(
                        mapping.get(k) == candidate.src for k in mapping
                    )
                    if conflict:
                        continue
            mapping2 = dict(mapping)
            mapping2[edge.src] = candidate.src
            mapping2[edge.dst] = candidate.dst
            if len(set(mapping2.values())) != len(mapping2):
                continue
            used.add(position)
            found = backtrack(index + 1, mapping2, used)
            if found is not None:
                return found
            used.discard(position)
        return None

    found = backtrack(0, {}, set())
    if found is None:
        raise MissingStatisticError(
            "internal error: cached pattern is not isomorphic to request"
        )
    return found
