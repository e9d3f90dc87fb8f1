"""The match-frame kernel: the library's one exact-count engine.

A *frame* holds partial join results columnar: one sorted-gatherable
int64 array per bound query variable, position ``i`` across all columns
being one partial homomorphism.  One kernel — searchsorted range
expansion for edges that bind a new variable, sorted-key semijoins for
edges whose endpoints are already bound — backs every match-table
consumer in the library:

* :func:`frame_from_edge` and :func:`extend_frame` grow full match
  tables for the offline statistics builder, delta maintenance, the
  degree and entropy catalogs and the Figure-15 plan executors;
* :func:`count_core_frames` counts a cyclic 2-core: it joins the core's
  edges along a greedy connected plan (:func:`plan_core_edges`) while
  folding precomputed hanging-tree weights into a per-row weight column
  (see :func:`repro.engine.counter.count_general`);
* :func:`encode_columns` packs a frame's columns into one sortable key
  per row for degree extraction, entropy groups and bushy joins.

Budget semantics: :class:`RowBudget` caps the *total materialized rows*
of a core count — the first core relation's rows up front, then the
rows each join step produces — and raises ``CountBudgetExceeded`` once
that total exceeds the cap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import CountBudgetExceeded, PatternError, PlanningError
from repro.graph.digraph import LabeledDiGraph
from repro.query.pattern import QueryEdge, QueryPattern

__all__ = [
    "Frame",
    "RowBudget",
    "expand_ranges",
    "sorted_intersects",
    "encode_columns",
    "frame_from_edge",
    "extend_frame",
    "plan_core_edges",
    "count_core_frames",
]


def expand_ranges(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flatten per-row index ranges ``[lo_i, hi_i)`` into gather indexes.

    Returns ``(row_index, flat_index)`` such that iterating ``flat_index``
    visits every position of every range, and ``row_index`` names the row
    each position came from.
    """
    counts = hi - lo
    total = int(counts.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    row_index = np.repeat(np.arange(len(lo), dtype=np.int64), counts)
    offsets = np.concatenate(([0], np.cumsum(counts)[:-1]))
    within = np.arange(total, dtype=np.int64) - np.repeat(offsets, counts)
    flat_index = np.repeat(lo, counts) + within
    return row_index, flat_index


def sorted_intersects(sorted_values: np.ndarray, sorted_probe: np.ndarray) -> bool:
    """Whether two sorted unique int arrays share an element."""
    if len(sorted_values) == 0 or len(sorted_probe) == 0:
        return False
    if len(sorted_probe) > len(sorted_values):
        sorted_values, sorted_probe = sorted_probe, sorted_values
    slots = np.searchsorted(sorted_values, sorted_probe)
    valid = slots < len(sorted_values)
    return bool(np.any(sorted_values[slots[valid]] == sorted_probe[valid]))


def encode_columns(columns: list[np.ndarray], num_vertices: int) -> np.ndarray:
    """Pack parallel columns into one sortable key per row.

    Radix keys in int64 while ``num_vertices ** width`` fits below
    ``2**62``; wider tuples fall back to a structured view that sorts
    and searches lexicographically.  The keys are a fresh array: sorting
    them never touches a column.
    """
    width = len(columns)
    if num_vertices ** width < 2 ** 62:
        keys = columns[0].astype(np.int64)
        for column in columns[1:]:
            keys = keys * np.int64(num_vertices) + column
        return keys
    packed = np.stack(columns, axis=1).astype(np.int64)
    return packed.view([("", np.int64)] * width).reshape(-1)


class RowBudget:
    """Counts materialized rows and raises when a cap is exhausted.

    The one budget unit of exact counting: the starting frame and every
    join step charge the rows they materialized, and a total above
    ``limit`` raises :class:`~repro.errors.CountBudgetExceeded` — the
    library's equivalent of the per-query timeouts of §6.  A count that
    materializes exactly ``limit`` rows passes.
    """

    __slots__ = ("limit", "spent")

    def __init__(self, limit: int | None):
        self.limit = limit
        self.spent = 0

    def charge(self, rows: int) -> None:
        """Record ``rows`` materialized rows; raise when over the cap."""
        if self.limit is None:
            return
        self.spent += int(rows)
        if self.spent > self.limit:
            raise CountBudgetExceeded(
                f"core counting exceeded budget of {self.limit} "
                "materialized rows"
            )


@dataclass
class Frame:
    """Partial matches as parallel int64 column arrays.

    ``columns[j][i]`` binds ``variables[j]`` in the ``i``-th partial
    match.  All columns share one length.
    """

    variables: tuple[str, ...]
    columns: tuple[np.ndarray, ...]

    @property
    def size(self) -> int:
        """Number of partial matches in the frame."""
        return int(len(self.columns[0])) if self.columns else 0

    def column(self, var: str) -> np.ndarray:
        """The binding column of one variable."""
        return self.columns[self.variables.index(var)]


def _member_mask(sorted_keys: np.ndarray, probe: np.ndarray) -> np.ndarray:
    """Boolean membership of each probe key in a sorted key array."""
    if len(sorted_keys) == 0:
        return np.zeros(len(probe), dtype=bool)
    slots = np.searchsorted(sorted_keys, probe)
    slots = np.minimum(slots, len(sorted_keys) - 1)
    return sorted_keys[slots] == probe


def _empty_frame(variables: tuple[str, ...]) -> Frame:
    return Frame(
        variables,
        tuple(np.empty(0, dtype=np.int64) for _ in variables),
    )


def frame_from_edge(graph: LabeledDiGraph, edge: QueryEdge) -> Frame:
    """A frame initialised from one atom's relation."""
    if edge.label not in graph:
        if edge.src == edge.dst:
            return _empty_frame((edge.src,))
        return _empty_frame((edge.src, edge.dst))
    relation = graph.relation(edge.label)
    if edge.src == edge.dst:
        mask = relation.src_by_src == relation.dst_by_src
        return Frame((edge.src,), (relation.src_by_src[mask],))
    return Frame(
        (edge.src, edge.dst), (relation.src_by_src, relation.dst_by_src)
    )


def extend_frame(
    graph: LabeledDiGraph,
    frame: Frame,
    edge: QueryEdge,
    max_rows: int | None = None,
    budget: RowBudget | None = None,
) -> tuple[Frame, np.ndarray]:
    """Join a frame with one more atom.

    The atom must share at least one variable with the frame (connected
    plans guarantee this).  Returns ``(new_frame, row_index)`` where
    ``row_index`` maps each output row to the input row it extends, so
    callers carrying per-row payloads (weights) can realign them.

    ``max_rows`` aborts runaway intermediates with
    :class:`~repro.errors.PlanningError` (the planner/executor contract);
    ``budget`` charges materialized rows against a
    :class:`RowBudget` (the counting contract).
    """
    src_bound = edge.src in frame.variables
    dst_bound = edge.dst in frame.variables
    if not src_bound and not dst_bound:
        raise PlanningError(f"atom {edge} shares no variable with the frame")
    if edge.label not in graph:
        new_vars = frame.variables
        if not (src_bound and dst_bound):
            new_vars = frame.variables + (
                (edge.dst,) if src_bound else (edge.src,)
            )
        return _empty_frame(new_vars), np.empty(0, dtype=np.int64)
    relation = graph.relation(edge.label)
    n = graph.num_vertices

    if src_bound and dst_bound:
        # Closing edge (or self-loop on a bound variable): semijoin the
        # frame against the relation's sorted (src, dst) key set.
        probe = (
            frame.column(edge.src) * np.int64(n) + frame.column(edge.dst)
        )
        hit = np.flatnonzero(_member_mask(relation.pair_keys(n), probe))
        survivors = Frame(
            frame.variables, tuple(col[hit] for col in frame.columns)
        )
        if budget is not None:
            budget.charge(survivors.size)
        return survivors, hit

    if src_bound:
        sorted_keys = relation.src_by_src
        partner = relation.dst_by_src
        values = frame.column(edge.src)
        new_var = edge.dst
    else:
        sorted_keys = relation.dst_by_dst
        partner = relation.src_by_dst
        values = frame.column(edge.dst)
        new_var = edge.src
    lo = np.searchsorted(sorted_keys, values, side="left")
    hi = np.searchsorted(sorted_keys, values, side="right")
    # Enforce both caps on the predicted output size BEFORE materializing
    # the expansion: a runaway join must fail from three cheap
    # searchsorted arrays, not after allocating the full gather indexes.
    total = int((hi - lo).sum())
    if max_rows is not None and total > max_rows:
        raise PlanningError(
            f"intermediate exceeded {max_rows} rows while joining {edge}"
        )
    if budget is not None:
        budget.charge(total)
    row_index, flat_index = expand_ranges(lo, hi)
    columns = tuple(col[row_index] for col in frame.columns)
    return (
        Frame(frame.variables + (new_var,), columns + (partner[flat_index],)),
        row_index,
    )


def plan_core_edges(graph: LabeledDiGraph, pattern: QueryPattern) -> list[int]:
    """A greedy connected join order over a (2-core) pattern's edges.

    Starts from the smallest relation, then repeatedly appends the edge
    with the most already-bound endpoints — closing edges run as
    row-shrinking semijoins as early as possible — breaking ties by
    relation cardinality, then edge index (deterministic).
    """
    edges = pattern.edges
    sizes = [graph.cardinality(edge.label) for edge in edges]
    start = min(range(len(edges)), key=lambda i: (sizes[i], i))
    order = [start]
    bound: set[str] = set(edges[start].variables())
    remaining = set(range(len(edges))) - {start}
    while remaining:
        best: int | None = None
        best_key: tuple | None = None
        for index in remaining:
            edge = edges[index]
            if edge.src == edge.dst:
                attached = 2 if edge.src in bound else 0
            else:
                attached = (edge.src in bound) + (edge.dst in bound)
            if attached == 0:
                continue
            key = (-attached, sizes[index], index)
            if best_key is None or key < best_key:
                best_key = key
                best = index
        if best is None:
            raise PatternError("core pattern is disconnected")
        order.append(best)
        bound.update(edges[best].variables())
        remaining.discard(best)
    return order


def count_core_frames(
    graph: LabeledDiGraph,
    core_pattern: QueryPattern,
    weights: dict[str, np.ndarray],
    budget: int | None = None,
) -> float:
    """Exact homomorphism count of a cyclic core via frame joins.

    ``weights`` carries the hanging-tree weight array per core variable
    (see :func:`repro.engine.acyclic_dp.tree_weight_array`); each is
    folded into a per-row float64 weight column the moment its variable
    is bound, so the final count is one vectorized sum.  All arithmetic
    is products and sums of integer-valued float64, exact below 2**53.
    """
    for edge in core_pattern.edges:
        if edge.label not in graph:
            return 0.0
    row_budget = RowBudget(budget)
    order = plan_core_edges(graph, core_pattern)

    first = core_pattern.edges[order[0]]
    frame = frame_from_edge(graph, first)
    row_budget.charge(frame.size)
    row_weights: np.ndarray | None = None
    for var in frame.variables:
        array = weights.get(var)
        if array is not None:
            gathered = array[frame.column(var)]
            row_weights = (
                gathered if row_weights is None else row_weights * gathered
            )

    for index in order[1:]:
        if frame.size == 0:
            return 0.0
        edge = core_pattern.edges[index]
        known = set(frame.variables)
        frame, row_index = extend_frame(graph, frame, edge, budget=row_budget)
        if row_weights is not None:
            row_weights = row_weights[row_index]
        for var in frame.variables:
            if var in known:
                continue
            array = weights.get(var)
            if array is not None:
                gathered = array[frame.column(var)]
                row_weights = (
                    gathered if row_weights is None else row_weights * gathered
                )
    if frame.size == 0:
        return 0.0
    if row_weights is None:
        return float(frame.size)
    return float(row_weights.sum())
