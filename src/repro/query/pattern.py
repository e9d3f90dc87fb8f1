"""Query patterns: edge-labeled directed subgraph queries.

A :class:`QueryPattern` is the library's representation of a conjunctive
query over binary relations.  Each :class:`QueryEdge` ``(src, dst, label)``
denotes one atom ``R_label(src, dst)`` where ``src`` and ``dst`` are query
variables (the paper's attributes ``a1, a2, ...``).  A subgraph query in
the paper's graph notation, e.g. ``a1 -A-> a2 -B-> a3``, is the pattern
``QueryPattern([QueryEdge("a1", "a2", "A"), QueryEdge("a2", "a3", "B")])``.

Patterns are immutable and hashable so they can key statistic caches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from repro.errors import PatternError

__all__ = ["QueryEdge", "QueryPattern"]


@dataclass(frozen=True, order=True)
class QueryEdge:
    """One directed, labeled edge (one binary-relation atom) of a query."""

    src: str
    dst: str
    label: str

    def variables(self) -> tuple[str, str]:
        """Return the (src, dst) variable pair of this atom."""
        return (self.src, self.dst)

    def touches(self, var: str) -> bool:
        """Return True if this edge is incident to variable ``var``."""
        return var == self.src or var == self.dst

    def other_end(self, var: str) -> str:
        """Return the endpoint opposite to ``var``.

        Raises :class:`PatternError` if ``var`` is not an endpoint.  For a
        self-loop both ends are ``var`` and ``var`` is returned.
        """
        if var == self.src:
            return self.dst
        if var == self.dst:
            return self.src
        raise PatternError(f"variable {var!r} is not an endpoint of {self}")

    def __str__(self) -> str:
        return f"{self.src}-[{self.label}]->{self.dst}"


class QueryPattern:
    """An immutable multiset of :class:`QueryEdge` atoms forming a query.

    Edge order is preserved (edges are addressed by index throughout the
    library, e.g. CEG vertices are frozensets of edge indices), but
    equality and hashing are order-insensitive so that two patterns with
    the same atoms compare equal.
    """

    __slots__ = (
        "_edges", "_vars", "_adjacency", "_hash", "_canonical_key",
        "_canonical_order",
    )

    def __init__(self, edges: Iterable[QueryEdge | tuple[str, str, str]]):
        normalized: list[QueryEdge] = []
        for edge in edges:
            if isinstance(edge, QueryEdge):
                normalized.append(edge)
            else:
                src, dst, label = edge
                normalized.append(QueryEdge(str(src), str(dst), str(label)))
        if not normalized:
            raise PatternError("a query pattern must contain at least one edge")
        if len(set(normalized)) != len(normalized):
            raise PatternError("duplicate atoms in query pattern")
        self._edges: tuple[QueryEdge, ...] = tuple(normalized)
        variables: list[str] = []
        seen: set[str] = set()
        for edge in self._edges:
            for var in edge.variables():
                if var not in seen:
                    seen.add(var)
                    variables.append(var)
        self._vars: tuple[str, ...] = tuple(variables)
        adjacency: dict[str, tuple[int, ...]] = {}
        scratch: dict[str, list[int]] = {var: [] for var in self._vars}
        for index, edge in enumerate(self._edges):
            scratch[edge.src].append(index)
            if edge.dst != edge.src:
                scratch[edge.dst].append(index)
        for var, indexes in scratch.items():
            adjacency[var] = tuple(indexes)
        self._adjacency = adjacency
        self._hash = hash(frozenset(self._edges))
        # Memo slot for repro.query.canonical.canonical_key: the exact
        # canonical form is a brute-force minimum over variable orderings
        # (worst case 8! for fully symmetric patterns), and the caching
        # service keys every lookup by it — pay it once per pattern.
        # The variable order that realises the key is kept beside it:
        # it maps the pattern onto the stored relation's columns.
        self._canonical_key: tuple | None = None
        self._canonical_order: tuple[str, ...] | None = None

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def edges(self) -> tuple[QueryEdge, ...]:
        """The atoms of the query, in declaration order."""
        return self._edges

    @property
    def variables(self) -> tuple[str, ...]:
        """All query variables, in first-appearance order."""
        return self._vars

    @property
    def labels(self) -> tuple[str, ...]:
        """The edge labels, aligned with :attr:`edges`."""
        return tuple(edge.label for edge in self._edges)

    def __len__(self) -> int:
        return len(self._edges)

    def __iter__(self) -> Iterator[QueryEdge]:
        return iter(self._edges)

    def __getitem__(self, index: int) -> QueryEdge:
        return self._edges[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QueryPattern):
            return NotImplemented
        return frozenset(self._edges) == frozenset(other._edges)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        body = ", ".join(str(edge) for edge in self._edges)
        return f"QueryPattern({body})"

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    def edges_at(self, var: str) -> tuple[int, ...]:
        """Indexes of edges incident to variable ``var``."""
        return self._adjacency.get(var, ())

    def degree(self, var: str) -> int:
        """Number of atoms incident to ``var`` (self-loops count once)."""
        return len(self.edges_at(var))

    def variables_of(self, edge_indexes: Iterable[int]) -> frozenset[str]:
        """The set of variables covered by the given edge indexes."""
        result: set[str] = set()
        for index in edge_indexes:
            edge = self._edges[index]
            result.add(edge.src)
            result.add(edge.dst)
        return frozenset(result)

    def subpattern(self, edge_indexes: Iterable[int]) -> "QueryPattern":
        """The pattern induced by a subset of edge indexes."""
        indexes = sorted(set(edge_indexes))
        if not indexes:
            raise PatternError("cannot build an empty subpattern")
        return QueryPattern(self._edges[index] for index in indexes)

    def is_connected_subset(self, edge_indexes: Iterable[int]) -> bool:
        """Return True if the given edges form a connected subpattern.

        Connectivity is via shared variables; the empty set is vacuously
        connected.
        """
        indexes = set(edge_indexes)
        if len(indexes) <= 1:
            return True
        start = next(iter(indexes))
        frontier = [start]
        visited = {start}
        while frontier:
            current = frontier.pop()
            for var in self._edges[current].variables():
                for neighbor in self.edges_at(var):
                    if neighbor in indexes and neighbor not in visited:
                        visited.add(neighbor)
                        frontier.append(neighbor)
        return visited == indexes

    def is_connected(self) -> bool:
        """Return True if the whole pattern is connected."""
        return self.is_connected_subset(range(len(self._edges)))

    def neighbors_of_subset(self, edge_indexes: Iterable[int]) -> frozenset[int]:
        """Edge indexes outside the subset that share a variable with it."""
        inside = set(edge_indexes)
        touched = self.variables_of(inside)
        result: set[int] = set()
        for var in touched:
            for index in self.edges_at(var):
                if index not in inside:
                    result.add(index)
        return frozenset(result)

    def connected_edge_subsets(self, max_size: int | None = None) -> list[frozenset[int]]:
        """All non-empty connected subsets of edge indexes, smallest first.

        ``max_size`` caps the subset size.  The enumeration grows subsets
        one adjacent edge at a time, so every returned subset is connected.
        """
        limit = len(self._edges) if max_size is None else min(max_size, len(self._edges))
        if limit <= 0:
            return []
        found: set[frozenset[int]] = set()
        frontier: list[frozenset[int]] = [
            frozenset([index]) for index in range(len(self._edges))
        ]
        found.update(frontier)
        current = frontier
        size = 1
        while size < limit and current:
            nxt: list[frozenset[int]] = []
            for subset in current:
                for candidate in self.neighbors_of_subset(subset):
                    grown = subset | {candidate}
                    if grown not in found:
                        found.add(grown)
                        nxt.append(grown)
            current = nxt
            size += 1
        return sorted(found, key=lambda s: (len(s), sorted(s)))

    def rename(self, mapping: dict[str, str]) -> "QueryPattern":
        """Return a copy with variables renamed through ``mapping``."""
        return QueryPattern(
            QueryEdge(mapping.get(e.src, e.src), mapping.get(e.dst, e.dst), e.label)
            for e in self._edges
        )

    def with_labels(self, labels: Sequence[str]) -> "QueryPattern":
        """Return a copy with edge labels replaced positionally."""
        if len(labels) != len(self._edges):
            raise PatternError(
                f"expected {len(self._edges)} labels, got {len(labels)}"
            )
        return QueryPattern(
            QueryEdge(e.src, e.dst, str(label))
            for e, label in zip(self._edges, labels)
        )
