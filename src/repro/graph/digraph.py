"""Labeled directed graph storage.

A :class:`LabeledDiGraph` stores one binary relation per edge label, which
is exactly the paper's data model (§2): an edge-labeled graph is the set
of relations ``R_A(src, dst), R_B(src, dst), ...``.  Each relation is kept
as a pair of numpy arrays sorted by source (with a twin copy sorted by
destination), giving O(log m) adjacency lookups and vectorised degree
statistics without any per-vertex Python objects.

Vertices are dense integers ``0..num_vertices-1``.  Relations are sets:
duplicate ``(src, dst)`` pairs within one label are removed on
construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from repro.errors import DatasetError

__all__ = ["LabelRelation", "LabeledDiGraph"]


@dataclass
class LabelRelation:
    """One label's edge set with src-sorted and dst-sorted views."""

    label: str
    src_by_src: np.ndarray
    dst_by_src: np.ndarray
    src_by_dst: np.ndarray
    dst_by_dst: np.ndarray
    _pair_keys: np.ndarray | None = field(repr=False, default=None)
    _pair_keys_modulus: int = field(repr=False, default=-1)

    @classmethod
    def build(cls, label: str, src: np.ndarray, dst: np.ndarray) -> "LabelRelation":
        """Construct (dedup + sort) a relation from raw edge arrays."""
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        if src.shape != dst.shape:
            raise DatasetError(f"label {label!r}: src/dst length mismatch")
        # Deduplicate (relations are sets) and sort by (src, dst).
        order = np.lexsort((dst, src))
        src, dst = src[order], dst[order]
        if len(src) > 1:
            keep = np.concatenate(
                ([True], (src[1:] != src[:-1]) | (dst[1:] != dst[:-1]))
            )
            src, dst = src[keep], dst[keep]
        order_by_dst = np.lexsort((src, dst))
        return cls(
            label=label,
            src_by_src=src,
            dst_by_src=dst,
            src_by_dst=src[order_by_dst],
            dst_by_dst=dst[order_by_dst],
        )

    @classmethod
    def from_sorted(
        cls,
        label: str,
        src_by_src: np.ndarray,
        dst_by_src: np.ndarray,
        src_by_dst: np.ndarray,
        dst_by_dst: np.ndarray,
    ) -> "LabelRelation":
        """Adopt pre-sorted, pre-deduplicated views without copying.

        The arrays are used as-is (e.g. read-only memory maps of an
        ``.npz`` artifact), so the caller guarantees they came from a
        :meth:`build`-constructed relation.  Cheap shape checks only —
        no O(m) re-sort or dedup pass.
        """
        if not (
            src_by_src.shape
            == dst_by_src.shape
            == src_by_dst.shape
            == dst_by_dst.shape
        ) or src_by_src.ndim != 1:
            raise DatasetError(
                f"label {label!r}: sorted views must be 1-d and equal length"
            )
        return cls(
            label=label,
            src_by_src=src_by_src,
            dst_by_src=dst_by_src,
            src_by_dst=src_by_dst,
            dst_by_dst=dst_by_dst,
        )

    @property
    def size(self) -> int:
        """Number of edges (tuples) in the relation."""
        return int(self.src_by_src.shape[0])

    def out_neighbors(self, vertex: int) -> np.ndarray:
        """Destinations of edges leaving ``vertex``."""
        lo = np.searchsorted(self.src_by_src, vertex, side="left")
        hi = np.searchsorted(self.src_by_src, vertex, side="right")
        return self.dst_by_src[lo:hi]

    def in_neighbors(self, vertex: int) -> np.ndarray:
        """Sources of edges entering ``vertex``."""
        lo = np.searchsorted(self.dst_by_dst, vertex, side="left")
        hi = np.searchsorted(self.dst_by_dst, vertex, side="right")
        return self.src_by_dst[lo:hi]

    def out_degree(self, vertex: int) -> int:
        """Number of edges leaving ``vertex``."""
        lo = np.searchsorted(self.src_by_src, vertex, side="left")
        hi = np.searchsorted(self.src_by_src, vertex, side="right")
        return int(hi - lo)

    def in_degree(self, vertex: int) -> int:
        """Number of edges entering ``vertex``."""
        lo = np.searchsorted(self.dst_by_dst, vertex, side="left")
        hi = np.searchsorted(self.dst_by_dst, vertex, side="right")
        return int(hi - lo)

    def pair_keys(self, num_vertices: int) -> np.ndarray:
        """Sorted scalar keys ``src * n + dst`` of the relation (cached).

        Sortedness follows from the (src, dst) lexsort at build time;
        both point membership tests and vectorized frame semijoins
        binary-search this array.
        """
        if self._pair_keys is None or self._pair_keys_modulus != num_vertices:
            self._pair_keys = (
                self.src_by_src * np.int64(num_vertices) + self.dst_by_src
            )
            self._pair_keys_modulus = int(num_vertices)
        return self._pair_keys

    def has_edge(self, u: int, v: int, num_vertices: int) -> bool:
        """Membership test for the pair ``(u, v)``."""
        keys = self.pair_keys(num_vertices)
        key = np.int64(u) * np.int64(num_vertices) + np.int64(v)
        index = np.searchsorted(keys, key)
        return bool(index < len(keys) and keys[index] == key)


class LabeledDiGraph:
    """An edge-labeled directed graph / a database of binary relations."""

    def __init__(
        self,
        num_vertices: int,
        edges_by_label: Mapping[str, tuple[np.ndarray, np.ndarray]],
    ):
        if num_vertices <= 0:
            raise DatasetError("graph needs at least one vertex")
        self._num_vertices = int(num_vertices)
        self._relations: dict[str, LabelRelation] = {}
        for label, (src, dst) in edges_by_label.items():
            relation = LabelRelation.build(str(label), src, dst)
            if relation.size == 0:
                continue
            upper = max(
                int(relation.src_by_src.max(initial=-1)),
                int(relation.dst_by_src.max(initial=-1)),
            )
            if upper >= self._num_vertices:
                raise DatasetError(
                    f"label {label!r} references vertex {upper} "
                    f">= num_vertices={self._num_vertices}"
                )
            self._relations[str(label)] = relation

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_relations(
        cls,
        num_vertices: int,
        relations: Mapping[str, LabelRelation],
    ) -> "LabeledDiGraph":
        """Adopt already-built relations (e.g. memory-mapped) zero-copy.

        Bound checks are O(1) per relation — the arrays are sorted, so
        only the last element of each view needs inspecting.
        """
        if num_vertices <= 0:
            raise DatasetError("graph needs at least one vertex")
        graph = cls.__new__(cls)
        graph._num_vertices = int(num_vertices)
        graph._relations = {}
        for label, relation in relations.items():
            if relation.size == 0:
                continue
            upper = max(
                int(relation.src_by_src[-1]), int(relation.dst_by_dst[-1])
            )
            if upper >= graph._num_vertices:
                raise DatasetError(
                    f"label {label!r} references vertex {upper} "
                    f">= num_vertices={graph._num_vertices}"
                )
            graph._relations[str(label)] = relation
        return graph

    @classmethod
    def from_triples(
        cls, triples: Iterable[tuple[int, int, str]], num_vertices: int | None = None
    ) -> "LabeledDiGraph":
        """Build a graph from ``(src, dst, label)`` triples."""
        by_label: dict[str, tuple[list[int], list[int]]] = {}
        top = -1
        for src, dst, label in triples:
            bucket = by_label.setdefault(str(label), ([], []))
            bucket[0].append(int(src))
            bucket[1].append(int(dst))
            top = max(top, int(src), int(dst))
        if num_vertices is None:
            num_vertices = top + 1
        arrays = {
            label: (np.asarray(s, dtype=np.int64), np.asarray(d, dtype=np.int64))
            for label, (s, d) in by_label.items()
        }
        return cls(num_vertices, arrays)

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Number of vertices (ids are dense 0..n-1)."""
        return self._num_vertices

    @property
    def num_edges(self) -> int:
        """Total edges across all labels."""
        return sum(rel.size for rel in self._relations.values())

    @property
    def labels(self) -> tuple[str, ...]:
        """All edge labels present, sorted."""
        return tuple(sorted(self._relations))

    def __contains__(self, label: str) -> bool:
        return label in self._relations

    def relation(self, label: str) -> LabelRelation:
        """The :class:`LabelRelation` for ``label``.

        Raises :class:`DatasetError` for unknown labels — estimators treat
        a missing label as an empty relation at a higher level.
        """
        try:
            return self._relations[label]
        except KeyError:
            raise DatasetError(f"unknown edge label {label!r}") from None

    def cardinality(self, label: str) -> int:
        """``|R_label|``; 0 for labels absent from the graph."""
        relation = self._relations.get(label)
        return 0 if relation is None else relation.size

    def triples(self) -> Iterable[tuple[int, int, str]]:
        """Iterate all edges as ``(src, dst, label)``."""
        for label in self.labels:
            relation = self._relations[label]
            for u, v in zip(relation.src_by_src, relation.dst_by_src):
                yield int(u), int(v), label

    # ------------------------------------------------------------------
    # Vectorised statistics
    # ------------------------------------------------------------------
    def out_degrees(self, label: str) -> np.ndarray:
        """Out-degree per vertex for ``label`` (length ``num_vertices``)."""
        relation = self._relations.get(label)
        if relation is None:
            return np.zeros(self._num_vertices, dtype=np.int64)
        return np.bincount(relation.src_by_src, minlength=self._num_vertices)

    def in_degrees(self, label: str) -> np.ndarray:
        """In-degree per vertex for ``label``."""
        relation = self._relations.get(label)
        if relation is None:
            return np.zeros(self._num_vertices, dtype=np.int64)
        return np.bincount(relation.dst_by_src, minlength=self._num_vertices)

    def distinct_sources(self, label: str) -> int:
        """Number of distinct source vertices of ``label``."""
        relation = self._relations.get(label)
        if relation is None:
            return 0
        return int(len(np.unique(relation.src_by_src)))

    def distinct_destinations(self, label: str) -> int:
        """Number of distinct destination vertices of ``label``."""
        relation = self._relations.get(label)
        if relation is None:
            return 0
        return int(len(np.unique(relation.dst_by_src)))

    def summary(self) -> dict[str, int]:
        """Dataset description in the style of Table 2."""
        return {
            "num_vertices": self.num_vertices,
            "num_edges": self.num_edges,
            "num_labels": len(self.labels),
        }

    def __repr__(self) -> str:
        return (
            f"LabeledDiGraph(|V|={self.num_vertices}, |E|={self.num_edges}, "
            f"labels={len(self.labels)})"
        )
