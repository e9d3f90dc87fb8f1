"""Bushy join-order optimization and execution.

The RDF-3X optimizer that Figure 15 injects estimates into is a bushy
DP; this module extends the left-deep planner with full bushy search:
``cost(S) = min over connected splits (S1, S2) of cost(S1) + cost(S2)
+ card_est(S)`` — and an executor that runs the resulting join tree on
:func:`repro.engine.join.join_frames`.

Plan trees are nested tuples: a leaf is an atom index, an inner node is
``(left_tree, right_tree)``.
"""

from __future__ import annotations

import time
from typing import Callable

from repro.engine.frames import Frame, frame_from_edge
from repro.engine.join import join_frames
from repro.errors import PlanningError
from repro.graph.digraph import LabeledDiGraph
from repro.planner.executor import ExecutionResult
from repro.query.pattern import QueryPattern

__all__ = ["BushyPlan", "optimize_bushy", "execute_bushy", "tree_atoms"]

PlanTree = object  # int leaf | tuple[PlanTree, PlanTree]


class BushyPlan:
    """A bushy join tree with its estimated C_out cost."""

    def __init__(self, tree: PlanTree, estimated_cost: float):
        self.tree = tree
        self.estimated_cost = estimated_cost

    def __repr__(self) -> str:
        return f"BushyPlan(tree={self.tree!r}, est_cost={self.estimated_cost:.1f})"


def tree_atoms(tree: PlanTree) -> frozenset[int]:
    """All atom indexes in a plan tree."""
    if isinstance(tree, int):
        return frozenset([tree])
    left, right = tree  # type: ignore[misc]
    return tree_atoms(left) | tree_atoms(right)


def optimize_bushy(
    query: QueryPattern,
    estimate: Callable[[QueryPattern], float],
) -> BushyPlan:
    """The cheapest bushy plan under injected estimates.

    Searches every split of every connected subset into two connected,
    variable-sharing halves.  Exponential in the number of atoms; capped
    at 12 (the workloads top out at 9).
    """
    atoms = len(query)
    if atoms == 0:
        raise PlanningError("cannot plan an empty query")
    if atoms > 12:
        raise PlanningError("bushy DP limited to 12 atoms")

    card_cache: dict[frozenset[int], float] = {}

    def card(subset: frozenset[int]) -> float:
        cached = card_cache.get(subset)
        if cached is None:
            try:
                cached = max(float(estimate(query.subpattern(subset))), 0.0)
            except Exception:
                cached = 1e30
            card_cache[subset] = cached
        return cached

    best_cost: dict[frozenset[int], float] = {}
    best_tree: dict[frozenset[int], PlanTree] = {}
    for index in range(atoms):
        leaf = frozenset([index])
        best_cost[leaf] = card(leaf)
        best_tree[leaf] = index

    subsets = [s for s in query.connected_edge_subsets() if len(s) >= 2]
    subsets.sort(key=len)
    for subset in subsets:
        members = sorted(subset)
        anchor = members[0]
        cheapest = float("inf")
        chosen: PlanTree | None = None
        # Enumerate splits via subsets of the remaining members joined
        # with the anchor (each unordered split counted once).
        rest = [m for m in members if m != anchor]
        for mask in range(1 << len(rest)):
            left = frozenset(
                [anchor] + [rest[i] for i in range(len(rest)) if mask >> i & 1]
            )
            right = subset - left
            if not right:
                continue
            if left not in best_cost or right not in best_cost:
                continue
            # The halves must share a variable for the join to be
            # non-Cartesian (connected subsets of a connected query
            # always do when both halves are connected).
            if not (
                query.variables_of(left) & query.variables_of(right)
            ):
                continue
            candidate = best_cost[left] + best_cost[right] + card(subset)
            if candidate < cheapest:
                cheapest = candidate
                chosen = (best_tree[left], best_tree[right])
        if chosen is not None:
            best_cost[subset] = cheapest
            best_tree[subset] = chosen

    full = frozenset(range(atoms))
    if full not in best_tree:
        raise PlanningError("no connected bushy plan exists")
    return BushyPlan(best_tree[full], best_cost[full])


def execute_bushy(
    graph: LabeledDiGraph,
    query: QueryPattern,
    tree: PlanTree,
    max_rows: int | None = 20_000_000,
) -> ExecutionResult:
    """Run a bushy join tree; cost = total intermediate tuples."""
    if tree_atoms(tree) != frozenset(range(len(query))):
        raise PlanningError("plan tree does not cover every atom")
    produced = 0.0
    started = time.perf_counter()

    def run(node: PlanTree) -> Frame:
        nonlocal produced
        if isinstance(node, int):
            frame = frame_from_edge(graph, query.edges[node])
            produced += float(frame.size)
            return frame
        left, right = node  # type: ignore[misc]
        frame = join_frames(
            run(left), run(right), graph.num_vertices, max_rows=max_rows
        )
        produced += float(frame.size)
        return frame

    try:
        final = run(tree)
    except PlanningError:
        penalty = float(max_rows) if max_rows is not None else float("inf")
        return ExecutionResult(
            order=sorted(tree_atoms(tree)),
            intermediate_tuples=produced + penalty,
            final_cardinality=float("nan"),
            elapsed_seconds=time.perf_counter() - started,
            aborted=True,
        )
    return ExecutionResult(
        order=sorted(tree_atoms(tree)),
        intermediate_tuples=produced,
        final_cardinality=float(final.size),
        elapsed_seconds=time.perf_counter() - started,
    )
