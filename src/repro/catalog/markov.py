"""Markov tables: exact cardinalities of small joins (§4.1).

A Markov table of size ``h`` stores the true cardinality of every
connected join pattern with at most ``h`` atoms.  §6 builds
*workload-specific* tables ("we worked backwards from the queries to
find the necessary subqueries"); a graph-backed table mirrors that by
populating entries lazily — a pattern's count is computed through the
exact engine on first request and cached under its canonical key.

Tables persist as part of a statistics store's generation image
(:mod:`repro.stats.flatpack`): in a deployment the statistics are
computed offline by :mod:`repro.stats.build` and shipped to the
optimizer, exactly as the paper's sub-MB tables are.  A table loaded
*without* a graph serves purely from its stored entries: a miss returns
0 when the table is ``complete`` over a known label universe (bulk
enumeration stores every non-empty pattern, so absence means emptiness)
and raises :class:`MissingStatisticError` otherwise — it never silently
scans a base graph at estimation time.
"""

from __future__ import annotations

from repro.engine.counter import count_pattern
from repro.errors import MissingStatisticError
from repro.graph.digraph import LabeledDiGraph
from repro.query.canonical import canonical_key, key_pattern, key_to_json
from repro.query.pattern import QueryPattern

__all__ = ["MarkovTable"]


class MarkovTable:
    """Cardinalities of connected joins with at most ``h`` atoms.

    ``graph`` may be None for a table served purely from stored entries
    (see the module docstring); ``labels`` is the label universe such a
    table was built over and ``complete`` asserts that every non-empty
    pattern of at most ``h`` atoms over those labels has an entry.
    """

    def __init__(
        self,
        graph: LabeledDiGraph | None,
        h: int = 2,
        count_budget: int | None = None,
        labels: tuple[str, ...] | None = None,
        complete: bool = False,
    ):
        if h < 1:
            raise ValueError("Markov table size h must be >= 1")
        if graph is None and labels is None:
            raise ValueError(
                "a graph-free Markov table needs its label universe"
            )
        self.graph = graph
        self.h = h
        self.count_budget = count_budget
        self.labels = tuple(labels) if labels is not None else None
        self.complete = complete
        self._cache: dict[tuple, float] = {}
        # Optional lazy array backing (repro.stats.flatpack.FlatMarkov):
        # cache misses binary-search it before falling back to _on_miss,
        # and materialize() must fold it into _cache before any mutation.
        self._flat = None

    def contains(self, pattern: QueryPattern) -> bool:
        """Whether the table covers this pattern (size and connectivity)."""
        return len(pattern) <= self.h and pattern.is_connected()

    def cardinality(self, pattern: QueryPattern) -> float:
        """Exact cardinality of a stored pattern.

        Raises :class:`MissingStatisticError` if the pattern is larger
        than ``h`` or disconnected — estimators must never peek beyond
        the summary they are allowed.
        """
        if not self.contains(pattern):
            raise MissingStatisticError(
                f"pattern with {len(pattern)} atoms not covered by "
                f"Markov table of size h={self.h}"
            )
        return self.keyed_cardinality(canonical_key(pattern), pattern)

    def keyed_cardinality(
        self, key: tuple, pattern: QueryPattern | None = None
    ) -> float:
        """Cardinality of the covered pattern whose canonical key is ``key``.

        The caller vouches for coverage (connected, at most ``h`` atoms).
        ``pattern`` is only read on a miss; it defaults to the key's
        canonical pattern, which has the same count.
        """
        cached = self._cache.get(key)
        if cached is None:
            flat = self._flat
            if flat is not None:
                cached = flat.lookup(key)
            if cached is None:
                cached = self._on_miss(
                    pattern if pattern is not None else key_pattern(key)
                )
            self._cache[key] = cached
        return cached

    def materialize(self) -> None:
        """Decode any flat array backing into the ordinary entry dict.

        Mandatory before mutating ``_cache`` (delta replay, maintenance,
        re-serialisation): flat-backed entries are otherwise still
        visible behind a ``pop``/``del``.  Idempotent and cheap when the
        table has no flat backing.
        """
        flat = self._flat
        if flat is None:
            return
        for key, value in flat.items():
            self._cache.setdefault(key, value)
        self._flat = None

    def _on_miss(self, pattern: QueryPattern) -> float:
        if self.graph is not None:
            return float(
                count_pattern(self.graph, pattern, budget=self.count_budget)
            )
        assert self.labels is not None
        known = set(self.labels)
        if any(label not in known for label in pattern.labels):
            # A label absent from the dataset: the relation is empty, so
            # the join is too (matches the graph-backed count of 0).
            return 0.0
        if self.complete:
            # Bulk enumeration stored every non-empty pattern, so a
            # known-label miss can only be an empty join.
            return 0.0
        raise MissingStatisticError(
            "statistics artifact does not cover pattern "
            f"{pattern!r} (workload-directed table without a graph)"
        )

    @property
    def num_entries(self) -> int:
        """Number of distinct patterns stored (flat backing included)."""
        if self._flat is not None:
            extras = sum(
                1 for key in self._cache if self._flat.lookup(key) is None
            )
            return self._flat.count + extras
        return len(self._cache)

    def estimated_size_bytes(self) -> int:
        """Rough memory footprint of the materialised entries.

        Each entry is one canonical pattern key (≈ 24 bytes per atom)
        plus an 8-byte float; the paper reports tables under 0.9 MB and
        this estimate lets benches confirm the same order of magnitude.
        """
        per_entry = 8
        for key in self._cache:
            per_entry += 24 * len(key) + 8
        return per_entry

    def prime(self, patterns: list[QueryPattern]) -> None:
        """Precompute entries for the given patterns (bench warm-up)."""
        for pattern in patterns:
            if self.contains(pattern):
                self.cardinality(pattern)

    def to_artifact(self) -> dict:
        """A JSON-serialisable snapshot of the table, for comparisons
        (``repro updates replay --verify``, the maintenance gates).

        Canonical keys are tuples of ``(src_index, dst_index, label)``
        triples; they serialise as nested lists.
        """
        self.materialize()
        labels = self.labels
        if labels is None and self.graph is not None:
            labels = self.graph.labels
        return {
            "h": self.h,
            "complete": self.complete,
            "labels": list(labels) if labels is not None else None,
            "entries": [
                {"key": key_to_json(key), "count": value}
                for key, value in sorted(self._cache.items())
            ],
        }
