"""Differential tests: the frame counter == the backtracking oracle.

:func:`repro.engine.count_pattern`, the match-frame join counter, must
be observationally identical to the per-candidate backtracker it
replaced (kept verbatim in ``tests/oracles/engine.py``): exact float
equality of every count on random graphs × random cyclic patterns,
including hanging trees, self-loops, parallel atoms and disconnected
components, plus budget-exhaustion parity (both raise
``CountBudgetExceeded`` at compatible thresholds), and an exact pin of
the frame counter's budget unit.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.engine import count_general_backtracking
from repro.engine import (
    count_core_frames,
    count_pattern,
    extend_frame,
    frame_from_edge,
    plan_core_edges,
)
from repro.engine import counter as counter_module
from repro.errors import CountBudgetExceeded
from repro.graph import LabeledDiGraph
from repro.query import QueryPattern, templates
from repro.query.shape import two_core_edges


@st.composite
def graph_and_cyclic_pattern(draw):
    """A small random graph and a pattern with a non-empty 2-core."""
    n = draw(st.integers(min_value=2, max_value=6))
    labels = ["A", "B", "C"]
    num_edges = draw(st.integers(min_value=2, max_value=14))
    triples = set()
    for _ in range(num_edges):
        u = draw(st.integers(min_value=0, max_value=n - 1))
        v = draw(st.integers(min_value=0, max_value=n - 1))
        triples.add((u, v, draw(st.sampled_from(labels))))
    graph = LabeledDiGraph.from_triples(sorted(triples), num_vertices=n)

    shape = draw(
        st.sampled_from(
            [
                "triangle",
                "cycle4",
                "cycle5",
                "lollipop",
                "tailed_cycle4",
                "parallel",
                "self_loop",
                "loop_tail",
                "two_triangles",
                "k4_minus",
            ]
        )
    )
    if shape == "triangle":
        base = templates.triangle()
    elif shape == "cycle4":
        base = templates.cycle(4)
    elif shape == "cycle5":
        base = templates.cycle(5)
    elif shape == "lollipop":
        base = QueryPattern(
            [("a", "b", "?"), ("b", "c", "?"), ("c", "a", "?"), ("a", "t", "?")]
        )
    elif shape == "tailed_cycle4":
        base = QueryPattern(
            [
                ("a", "b", "?"), ("b", "c", "?"), ("c", "d", "?"),
                ("d", "a", "?"), ("b", "t", "?"), ("t", "u", "?"),
            ]
        )
    elif shape == "parallel":
        # Two atoms over the same variable pair: a 2-cycle core.
        base = QueryPattern([("a", "b", "?"), ("a", "b", "!"), ("b", "t", "?")])
    elif shape == "self_loop":
        base = QueryPattern([("a", "a", "?")])
    elif shape == "loop_tail":
        base = QueryPattern([("a", "a", "?"), ("a", "b", "?"), ("b", "c", "?")])
    elif shape == "two_triangles":
        # Disconnected: two cyclic components (counts multiply).
        base = QueryPattern(
            [
                ("a", "b", "?"), ("b", "c", "?"), ("c", "a", "?"),
                ("x", "y", "?"), ("y", "z", "?"), ("z", "x", "?"),
            ]
        )
    else:  # k4_minus: 4-cycle with one chord — two overlapping cycles
        base = QueryPattern(
            [
                ("a", "b", "?"), ("b", "c", "?"), ("c", "d", "?"),
                ("d", "a", "?"), ("a", "c", "?"),
            ]
        )
    chosen = [draw(st.sampled_from(labels)) for _ in range(len(base))]
    atoms = [
        (edge.src, edge.dst, label) for edge, label in zip(base, chosen)
    ]
    if len(set(atoms)) != len(atoms):
        # Label draw collapsed parallel atoms into duplicates; force them
        # apart (QueryPattern forbids duplicate atoms).
        chosen = [labels[i % len(labels)] for i in range(len(base))]
    return graph, base.with_labels(chosen)


class TestDifferential:
    @given(graph_and_cyclic_pattern())
    @settings(max_examples=120, deadline=None)
    def test_vectorized_equals_python(self, case):
        graph, pattern = case
        legacy = count_general_backtracking(graph, pattern)
        vectorized = count_pattern(graph, pattern)
        assert vectorized == legacy  # exact float equality, no approx

    @given(graph_and_cyclic_pattern())
    @settings(max_examples=60, deadline=None)
    def test_default_impl_is_vectorized(self, case):
        """Every cyclic component is counted by the frame counter."""
        graph, pattern = case
        cores = []

        def spy(graph, core_pattern, weights, budget=None):
            cores.append(core_pattern)
            return count_core_frames(graph, core_pattern, weights, budget)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(counter_module, "count_core_frames", spy)
            value = count_pattern(graph, pattern)
        assert value == count_general_backtracking(graph, pattern)
        if all(label in graph for label in pattern.labels):
            assert cores  # the pattern has a cyclic component

    @given(graph_and_cyclic_pattern())
    @settings(max_examples=60, deadline=None)
    def test_budget_parity(self, case):
        """Both counters raise on tiny budgets, agree under generous ones.

        The budgets are *compatible*, not identical: the backtracker
        charges ``candidates + 1`` per expansion step, the frame counter
        one unit per materialized row.  Whenever the pattern has any
        matching work to do, budget 1 exhausts the backtracker and
        budget 0 exhausts the frame counter (a frame with matches always
        materializes at least one row); a generous budget exhausts
        neither and both return the same count.
        """
        graph, pattern = case
        if not two_core_edges(pattern):
            return
        generous = 10_000_000
        legacy = count_general_backtracking(graph, pattern, budget=generous)
        vectorized = count_pattern(graph, pattern, budget=generous)
        assert vectorized == legacy
        if legacy > 0.0:
            with pytest.raises(CountBudgetExceeded):
                count_general_backtracking(graph, pattern, budget=1)
            with pytest.raises(CountBudgetExceeded):
                count_pattern(graph, pattern, budget=0)


class TestFrameCounterDirect:
    """Unit coverage of the frame kernel's counting entry points."""

    def test_plan_is_connected_permutation(self, tiny_graph):
        pattern = QueryPattern(
            [("a", "b", "A"), ("b", "c", "B"), ("c", "a", "C"), ("a", "c", "B")]
        )
        order = plan_core_edges(tiny_graph, pattern)
        assert sorted(order) == [0, 1, 2, 3]
        bound = set(pattern.edges[order[0]].variables())
        for index in order[1:]:
            edge = pattern.edges[index]
            assert edge.src in bound or edge.dst in bound
            bound.update(edge.variables())

    def test_core_count_with_weights(self, tiny_graph):
        # Lollipop: triangle core with a weighted tail at `a`; the frame
        # counter must fold the tree weight per binding of `a`.
        pattern = QueryPattern(
            [("a", "b", "A"), ("b", "c", "B"), ("c", "a", "C"), ("a", "t", "A")]
        )
        legacy = count_general_backtracking(tiny_graph, pattern)
        vectorized = count_pattern(tiny_graph, pattern)
        assert vectorized == legacy

    def test_missing_label_core_counts_zero(self, tiny_graph):
        pattern = templates.triangle().with_labels(["Z", "Z", "Z"])
        core = two_core_edges(pattern)
        assert core
        assert count_core_frames(tiny_graph, pattern, {}) == 0.0

    def test_budget_counts_materialized_rows(self, tiny_graph):
        pattern = QueryPattern([("x", "y", "A"), ("y", "x", "B")])
        # The A relation has 3 tuples, so even the starting frame
        # overflows a budget of 2.
        with pytest.raises(CountBudgetExceeded):
            count_core_frames(tiny_graph, pattern, {}, budget=2)

    def test_self_loop_only_core(self):
        graph = LabeledDiGraph.from_triples(
            [(0, 0, "L"), (1, 1, "L"), (1, 2, "L")], num_vertices=3
        )
        pattern = QueryPattern([("a", "a", "L")])
        assert count_pattern(graph, pattern) == 2.0
        assert count_general_backtracking(graph, pattern) == 2.0


class TestBudgetUnit:
    """``budget`` counts materialized frame rows: the first core
    relation's rows up front, then each join step's output."""

    def test_exact_boundary_on_triangle_with_hanging_trees(self):
        triples = [
            (u, v, "E") for u, v in [(0, 1), (1, 2), (2, 0), (0, 2), (2, 1), (3, 4)]
        ] + [(u, v, "T") for u, v in [(0, 5), (0, 6), (2, 5), (1, 6), (5, 6)]]
        graph = LabeledDiGraph.from_triples(triples, num_vertices=7)
        pattern = QueryPattern(
            [
                ("a", "b", "E"), ("b", "c", "E"), ("c", "a", "E"),
                ("a", "t", "T"), ("t", "u", "T"), ("b", "s", "T"),
            ]
        )
        core = pattern.subpattern(sorted(two_core_edges(pattern)))
        order = plan_core_edges(graph, core)
        frame = frame_from_edge(graph, core.edges[order[0]])
        spent = frame.size
        for index in order[1:]:
            frame, _ = extend_frame(graph, frame, core.edges[index])
            spent += frame.size
        # By hand: 6 E rows, 8 after a -E-> b -E-> c, 3 close c -E-> a.
        assert spent == 6 + 8 + 3
        count = count_pattern(graph, pattern)
        assert count == count_general_backtracking(graph, pattern) == 3.0
        assert count_pattern(graph, pattern, budget=spent) == count
        with pytest.raises(CountBudgetExceeded):
            count_pattern(graph, pattern, budget=spent - 1)


class TestTwoCoreWorklist:
    """The worklist peeling must match a literal fixpoint reference."""

    @staticmethod
    def _reference(pattern: QueryPattern) -> frozenset[int]:
        remaining = set(range(len(pattern)))
        degree = {var: 0 for var in pattern.variables}
        for edge in pattern.edges:
            if edge.src == edge.dst:
                degree[edge.src] += 2
            else:
                degree[edge.src] += 1
                degree[edge.dst] += 1
        changed = True
        while changed:
            changed = False
            for index in sorted(remaining):
                edge = pattern.edges[index]
                if edge.src == edge.dst:
                    continue
                if degree[edge.src] == 1 or degree[edge.dst] == 1:
                    remaining.discard(index)
                    degree[edge.src] -= 1
                    degree[edge.dst] -= 1
                    changed = True
        return frozenset(remaining)

    @given(graph_and_cyclic_pattern())
    @settings(max_examples=80, deadline=None)
    def test_matches_reference(self, case):
        _, pattern = case
        assert two_core_edges(pattern) == self._reference(pattern)

    def test_long_path_is_linear_friendly(self):
        # A 60-edge path peels to nothing; the worklist makes this O(E).
        pattern = templates.path(60)
        assert two_core_edges(pattern) == frozenset()

    def test_barbell(self):
        # Two triangles joined by a 3-edge bridge: the bridge is part of
        # the 2-core (no degree-1 endpoint ever appears on it).
        pattern = QueryPattern(
            [
                ("a", "b", "A"), ("b", "c", "A"), ("c", "a", "A"),
                ("a", "p", "B"), ("p", "q", "B"), ("q", "x", "B"),
                ("x", "y", "A"), ("y", "z", "A"), ("z", "x", "A"),
            ]
        )
        assert two_core_edges(pattern) == frozenset(range(9))

    def test_weight_alignment_through_semijoin(self):
        """Weights must be realigned when a closing edge filters rows."""
        triples = []
        for u, v in [(0, 1), (1, 2), (2, 0), (0, 2), (3, 4)]:
            triples.append((u, v, "E"))
        for u, v in [(0, 5), (0, 6), (2, 5)]:
            triples.append((u, v, "T"))
        graph = LabeledDiGraph.from_triples(triples, num_vertices=7)
        pattern = QueryPattern(
            [("a", "b", "E"), ("b", "c", "E"), ("c", "a", "E"), ("a", "t", "T")]
        )
        legacy = count_general_backtracking(graph, pattern)
        assert count_pattern(graph, pattern) == legacy
        assert legacy > 0.0


@st.composite
def acyclic_graph_pattern(draw):
    """Random graphs with acyclic patterns: the core counter never runs."""
    n = draw(st.integers(min_value=2, max_value=5))
    triples = set()
    for _ in range(draw(st.integers(min_value=1, max_value=8))):
        u = draw(st.integers(min_value=0, max_value=n - 1))
        v = draw(st.integers(min_value=0, max_value=n - 1))
        triples.add((u, v, draw(st.sampled_from(["A", "B"]))))
    graph = LabeledDiGraph.from_triples(sorted(triples), num_vertices=n)
    base = draw(st.sampled_from([templates.path(3), templates.star(3)]))
    labels = [draw(st.sampled_from(["A", "B"])) for _ in range(len(base))]
    return graph, base.with_labels(labels)


class TestAcyclicUnaffected:
    @given(acyclic_graph_pattern())
    @settings(max_examples=40, deadline=None)
    def test_impl_choice_is_inert(self, case):
        graph, pattern = case
        assert count_general_backtracking(graph, pattern) == count_pattern(
            graph, pattern
        )


def test_frame_weights_are_float64(tiny_graph):
    """Tree weights enter the frame as float64 — no silent downcast."""
    pattern = QueryPattern(
        [("a", "b", "A"), ("b", "c", "B"), ("c", "a", "C"), ("a", "t", "A")]
    )
    core = two_core_edges(pattern)
    assert core == frozenset({0, 1, 2})
    from repro.engine import tree_weight_array

    tree = pattern.subpattern([3])
    weights = tree_weight_array(tiny_graph, tree, "a")
    assert weights.dtype == np.float64
