"""The generic Cardinality Estimation Graph (§3).

A CEG is a DAG whose vertices are sub-queries and whose edges carry
*extension rates*: the estimated (or bounded) cardinality of the larger
sub-query relative to the smaller one.  Every bottom-to-top path from the
``source`` (∅) to the ``target`` (the full query) yields one estimate —
the product of the extension rates along it.

This module is agnostic to what vertices mean: ``CEG_O`` uses frozensets
of query-edge indexes.  The only structural requirement is acyclicity
with a rank function (vertex "size") that strictly increases along
edges, which all the paper's CEGs satisfy once projection edges are
removed (Observation 3 / Appendix A).

A :class:`CEG` is stored as arrays: vertices at dense topological
positions, edges as a CSR-style in-edge list, so the path DPs of
:mod:`repro.core.paths` run as bottom-up NumPy passes.  The order
contract the bit-identical float sums rest on is stated in
:mod:`repro.core.compiled`.  :meth:`CEG.out_edges` and the other views
serve consumers that walk the graph vertex by vertex.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Hashable, Iterable, NamedTuple

import numpy as np

__all__ = ["CEGEdge", "CEG"]

NodeKey = Hashable


class CEGEdge(NamedTuple):
    """One extension edge, as :meth:`CEG.out_edges` returns it."""

    source: NodeKey
    target: NodeKey
    rate: float


@dataclass(frozen=True, eq=False)
class CEG:
    """A cardinality estimation graph with a single source and target.

    ``keys[i]`` is the vertex at topological position ``i``: positions
    run by (rank, ``repr`` of the key).  Edge ``e`` runs from position
    ``in_source[e]`` to ``in_target[e]`` with rate ``in_rate[e]``; edges
    are sorted by (target, source position, emission order), with
    ``in_indptr`` delimiting each target's slice, and ``in_emission[e]``
    is the edge's index in emission order.
    """

    keys: tuple
    ranks: np.ndarray  # int64 per position
    source_pos: int
    target_pos: int
    in_indptr: np.ndarray  # int64, len num_nodes + 1
    in_source: np.ndarray  # int64 per edge
    in_target: np.ndarray  # int64 per edge
    in_rate: np.ndarray  # float64 per edge
    in_emission: np.ndarray  # int64 per edge

    @classmethod
    def from_edges(
        cls,
        source: NodeKey,
        target: NodeKey,
        nodes: Iterable[tuple[NodeKey, int]],
        edges: Iterable[tuple[NodeKey, NodeKey, float]],
    ) -> "CEG":
        """A CEG from ``(key, rank)`` vertices and ``(source, target,
        rate)`` edges; the edges' order is their emission order."""
        rank_of: dict = {}
        for key, rank in nodes:
            if rank_of.setdefault(key, rank) != rank:
                raise ValueError(f"node {key!r} re-registered with rank {rank}")
        if source not in rank_of or target not in rank_of:
            raise ValueError("register the source and target nodes")
        keys = sorted(rank_of, key=lambda key: (rank_of[key], repr(key)))
        position = {key: i for i, key in enumerate(keys)}
        tails: list[int] = []
        heads: list[int] = []
        rates: list[float] = []
        for tail, head, rate in edges:
            if tail not in rank_of or head not in rank_of:
                raise ValueError("register nodes before adding edges")
            if rank_of[head] <= rank_of[tail]:
                raise ValueError(
                    f"edge {tail!r} -> {head!r} does not increase rank"
                )
            tails.append(position[tail])
            heads.append(position[head])
            rates.append(rate)
        return layout(
            tuple(keys),
            np.asarray([rank_of[key] for key in keys], dtype=np.int64),
            position[source],
            position[target],
            np.asarray(tails, dtype=np.int64),
            np.asarray(heads, dtype=np.int64),
            np.asarray(rates, dtype=np.float64),
        )

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    @property
    def source(self) -> NodeKey:
        """The source vertex (∅)."""
        return self.keys[self.source_pos]

    @property
    def target(self) -> NodeKey:
        """The target vertex (the full query)."""
        return self.keys[self.target_pos]

    @property
    def nodes(self) -> list[NodeKey]:
        """All vertices, in topological order."""
        return list(self.keys)

    @property
    def num_nodes(self) -> int:
        """Number of vertices."""
        return len(self.keys)

    @property
    def num_edges(self) -> int:
        """Total number of extension edges."""
        return len(self.in_rate)

    def topological_order(self) -> list[NodeKey]:
        """Vertices sorted by (rank, ``repr``): a valid topological order."""
        return list(self.keys)

    def position(self, key: NodeKey) -> int:
        """Topological position of a vertex."""
        return self._positions[key]

    def rank(self, key: NodeKey) -> int:
        """The topological rank of a vertex."""
        return int(self.ranks[self.position(key)])

    def out_edges(self, key: NodeKey) -> list[CEGEdge]:
        """Extension edges leaving a vertex, in emission order."""
        position = self._positions.get(key)
        return [] if position is None else self._out[position]

    @functools.cached_property
    def _positions(self) -> dict:
        return {key: i for i, key in enumerate(self.keys)}

    @functools.cached_property
    def _out(self) -> list[list[CEGEdge]]:
        keys = self.keys
        sources = self.in_source.tolist()
        targets = self.in_target.tolist()
        rates = self.in_rate.tolist()
        out: list[list[CEGEdge]] = [[] for _ in keys]
        for e in np.lexsort((self.in_emission, self.in_source)).tolist():
            out[sources[e]].append(
                CEGEdge(keys[sources[e]], keys[targets[e]], rates[e])
            )
        return out


def layout(
    keys: tuple,
    ranks: np.ndarray,
    source: int,
    target: int,
    tails: np.ndarray,
    heads: np.ndarray,
    rates: np.ndarray,
) -> CEG:
    """A CEG from vertices already at their positions.

    ``tails``/``heads`` are int64 positions and ``rates`` float64, one
    per edge in emission order; the in-edges are that order sorted
    stably by (target, source) position.
    """
    count = len(keys)
    emission = np.lexsort((tails, heads))
    in_target = heads[emission]
    in_indptr = np.zeros(count + 1, dtype=np.int64)
    np.cumsum(np.bincount(in_target, minlength=count), out=in_indptr[1:])
    return CEG(
        keys=keys,
        ranks=ranks,
        source_pos=source,
        target_pos=target,
        in_indptr=in_indptr,
        in_source=tails[emission],
        in_target=in_target,
        in_rate=rates[emission],
        in_emission=emission,
    )
