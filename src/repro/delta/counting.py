"""Incremental pattern counting: count only what touched edges reach.

The classic delta-join identity for a join of ``k`` atoms (incremental
view maintenance, specialised to homomorphism *counts* over set-valued
relations): with ``G'`` the mutated graph, effective inserts ``A``
(``A ∩ G = ∅``) and effective deletes ``D`` (``D ⊆ G``),

    count_{G'}(P) − count_G(P)
      = Σ_j [ atoms < j over G', atom j over A, atoms > j over G ]
      − Σ_j [ atoms < j over G', atom j over D, atoms > j over G ]

Each term is one frame join *seeded at the delta atom* — the frame
starts from the (tiny) insert/delete relation and extends outward along
a connected order, so its size is proportional to how many matches the
touched edges actually participate in, not to ``count(P)``.  All
arithmetic is integer-valued float64, so ``old + Δ`` is bit-identical
to a cold recount.

This module holds only that identity.  How a pattern grows by one atom
and what a counted pattern stores belong to the offline builder
(:mod:`repro.stats.build`); :mod:`repro.delta.maintain` discovers newly
non-empty patterns and re-records touched ones through it.
"""

from __future__ import annotations

from typing import Callable

from repro.engine.frames import extend_frame, frame_from_edge
from repro.errors import PlanningError
from repro.graph.digraph import LabeledDiGraph
from repro.query.pattern import QueryPattern

__all__ = ["delta_count_with_touch"]


def _connected_order(pattern: QueryPattern, start: int) -> list[int]:
    """A BFS atom order starting at ``start`` (patterns are connected)."""
    order = [start]
    bound = set(pattern.edges[start].variables())
    remaining = set(range(len(pattern.edges))) - {start}
    while remaining:
        nxt = None
        for index in sorted(remaining):
            edge = pattern.edges[index]
            if edge.src in bound or edge.dst in bound:
                nxt = index
                break
        if nxt is None:  # pragma: no cover - catalogs store connected patterns
            raise PlanningError("pattern is disconnected")
        order.append(nxt)
        bound.update(pattern.edges[nxt].variables())
        remaining.discard(nxt)
    return order


def _count_seeded(
    pattern: QueryPattern,
    seed_index: int,
    seed_graph: LabeledDiGraph,
    graph_for: Callable[[int], LabeledDiGraph],
    max_rows: int | None,
) -> float:
    """Matches of ``pattern`` with atom ``seed_index`` bound to ``seed_graph``.

    Every other atom ``t`` matches in ``graph_for(t)``.  Raises
    :class:`~repro.errors.PlanningError` when an intermediate frame
    exceeds ``max_rows`` (callers fall back to a cold recount).
    """
    order = _connected_order(pattern, seed_index)
    frame = frame_from_edge(seed_graph, pattern.edges[seed_index])
    for index in order[1:]:
        if frame.size == 0:
            return 0.0
        frame, _ = extend_frame(
            graph_for(index), frame, pattern.edges[index], max_rows=max_rows
        )
    return float(frame.size)


def delta_count_with_touch(
    pattern: QueryPattern,
    old_graph: LabeledDiGraph,
    new_graph: LabeledDiGraph,
    insert_graph: LabeledDiGraph | None,
    delete_graph: LabeledDiGraph | None,
    max_rows: int | None = None,
) -> tuple[float, bool]:
    """``(count_new − count_old, support_changed)`` via seeded joins.

    ``insert_graph``/``delete_graph`` hold only the effective inserted/
    deleted edges (None when that side is empty).  The delta is an exact
    integer-valued float; ``support_changed`` is True iff any term found
    a match — i.e. some new match uses an inserted edge or some old
    match used a deleted edge, which is exactly the condition under
    which the pattern's match *set* (and hence its degree statistics)
    changed at all.  All terms zero ⇒ the match set is untouched, even
    when labels overlap the delta.
    """

    def graph_for(j: int) -> Callable[[int], LabeledDiGraph]:
        return lambda t: new_graph if t < j else old_graph

    delta = 0.0
    support_changed = False
    for j, edge in enumerate(pattern.edges):
        if insert_graph is not None and edge.label in insert_graph:
            term = _count_seeded(
                pattern, j, insert_graph, graph_for(j), max_rows
            )
            delta += term
            support_changed = support_changed or term != 0.0
        if delete_graph is not None and edge.label in delete_graph:
            term = _count_seeded(
                pattern, j, delete_graph, graph_for(j), max_rows
            )
            delta -= term
            support_changed = support_changed or term != 0.0
    return delta, support_changed
