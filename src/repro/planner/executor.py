"""Plan execution: run a left-deep order for real and measure its cost.

The Figure-15 "runtime" proxy is the total number of intermediate tuples
the plan materialises (C_out on *true* data) plus the wall-clock time of
actually executing it on the vectorised join engine — both reported, so
benches can show either.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.engine.frames import extend_frame, frame_from_edge
from repro.errors import PlanningError
from repro.graph.digraph import LabeledDiGraph
from repro.query.pattern import QueryPattern

__all__ = ["ExecutionResult", "execute_plan"]


@dataclass
class ExecutionResult:
    """Outcome of executing one join order."""

    order: list[int]
    intermediate_tuples: float
    final_cardinality: float
    elapsed_seconds: float
    aborted: bool = False

    @property
    def cost(self) -> float:
        """The plan-quality metric: work done, in tuples."""
        return self.intermediate_tuples


def execute_plan(
    graph: LabeledDiGraph,
    query: QueryPattern,
    order: list[int],
    max_rows: int | None = 20_000_000,
) -> ExecutionResult:
    """Run the left-deep order; abort (with the cap as cost) on blow-up."""
    if sorted(order) != list(range(len(query))):
        raise PlanningError(f"order {order} is not a permutation of the atoms")
    started = time.perf_counter()
    frame = frame_from_edge(graph, query.edges[order[0]])
    produced = float(frame.size)
    try:
        for index in order[1:]:
            frame, _ = extend_frame(
                graph, frame, query.edges[index], max_rows=max_rows
            )
            produced += float(frame.size)
    except PlanningError:
        elapsed = time.perf_counter() - started
        penalty = float(max_rows) if max_rows is not None else float("inf")
        return ExecutionResult(
            order=list(order),
            intermediate_tuples=produced + penalty,
            final_cardinality=float("nan"),
            elapsed_seconds=elapsed,
            aborted=True,
        )
    elapsed = time.perf_counter() - started
    return ExecutionResult(
        order=list(order),
        intermediate_tuples=produced,
        final_cardinality=float(frame.size),
        elapsed_seconds=elapsed,
    )
