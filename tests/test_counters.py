"""Correctness of the exact counting engine.

The acyclic DP and the core-based frame counter are validated against
the brute-force oracle of ``tests/oracles/engine.py`` on small random
graphs (hypothesis), and against hand-computed counts on the tiny
fixture graph.  The DP's ``np.bincount`` messages are checked bit for
bit against the scipy CSR mat-vec oracle of the same file.
"""

import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles.engine import adjacency_csr, count_bruteforce, tree_weight_array_csr
from repro.engine import count_acyclic, count_general, count_pattern
from repro.engine.acyclic_dp import tree_weight_array
from repro.errors import CountBudgetExceeded
from repro.graph import LabeledDiGraph
from repro.query import QueryPattern, parse_pattern, templates
from repro.query.shape import two_core_edges


class TestTinyGraphCounts:
    """Hand-verified counts on the conftest tiny graph."""

    def test_single_edge(self, tiny_graph):
        assert count_pattern(tiny_graph, parse_pattern("x -[A]-> y")) == 3

    def test_two_path(self, tiny_graph):
        # A->B paths: 0-2-{4,5}, 1-2-{4,5}, 0-3-4  => 5
        assert count_pattern(tiny_graph, parse_pattern("x -[A]-> y -[B]-> z")) == 5

    def test_three_path(self, tiny_graph):
        # A->B->C: through 2-4 (C out deg 2): (0,1)->2->4->{6,7} = 4
        #          through 2-5: (0,1)->2->5->6 = 2
        #          through 3-4: 0->3->4->{6,7} = 2            => 8
        pattern = parse_pattern("w -[A]-> x -[B]-> y -[C]-> z")
        assert count_pattern(tiny_graph, pattern) == 8

    def test_star_count(self, tiny_graph):
        # y <-B- x -B-> z (2-star, homomorphisms incl. y=z):
        # src 2 has B-outdeg 2 -> 4; src 3 has 1 -> 1  => 5
        pattern = QueryPattern([("x", "y", "B"), ("x", "z", "B")])
        assert count_pattern(tiny_graph, pattern) == 5

    def test_cyclic_triangle_zero(self, tiny_graph):
        pattern = templates.triangle().with_labels(["A", "A", "A"])
        assert count_pattern(tiny_graph, pattern) == 0

    def test_four_cycle_via_c_edge(self, tiny_graph):
        # Every A->B->C chain must close with a C edge back to `a`; the
        # only C edge into an A-source is 6->0, giving three matches:
        # 0-2-4-6, 0-2-5-6 and 0-3-4-6.
        pattern = QueryPattern(
            [("a", "b", "A"), ("b", "c", "B"), ("c", "d", "C"), ("d", "a", "C")]
        )
        assert count_pattern(tiny_graph, pattern) == 3

    def test_missing_label_counts_zero(self, tiny_graph):
        assert count_pattern(tiny_graph, parse_pattern("x -[Z]-> y")) == 0

    def test_disconnected_product(self, tiny_graph):
        pattern = QueryPattern([("a", "b", "A"), ("c", "d", "B")])
        assert count_pattern(tiny_graph, pattern) == 3 * 3


class TestCoreDecomposition:
    def test_acyclic_core_empty(self):
        assert two_core_edges(templates.path(5)) == frozenset()

    def test_cycle_core_is_whole(self):
        assert two_core_edges(templates.cycle(4)) == frozenset(range(4))

    def test_lollipop_core(self):
        # Triangle with a tail: core is the triangle.
        pattern = QueryPattern(
            [("a", "b", "A"), ("b", "c", "B"), ("c", "a", "C"), ("a", "t", "D")]
        )
        assert two_core_edges(pattern) == frozenset({0, 1, 2})

    def test_self_loop_in_core(self):
        pattern = QueryPattern([("a", "a", "A"), ("a", "b", "B")])
        assert two_core_edges(pattern) == frozenset({0})


class TestBudget:
    def test_budget_enforced(self, medium_random_graph):
        labels = medium_random_graph.labels[:4]
        pattern = templates.cycle(4).with_labels(
            [labels[0], labels[1], labels[0], labels[1]]
        )
        with pytest.raises(CountBudgetExceeded):
            count_pattern(medium_random_graph, pattern, budget=1)


# ----------------------------------------------------------------------
# Property tests against brute force
# ----------------------------------------------------------------------

@st.composite
def graph_and_pattern(draw):
    n = draw(st.integers(min_value=2, max_value=5))
    labels = ["A", "B"]
    num_edges = draw(st.integers(min_value=1, max_value=10))
    triples = set()
    for _ in range(num_edges):
        u = draw(st.integers(min_value=0, max_value=n - 1))
        v = draw(st.integers(min_value=0, max_value=n - 1))
        label = draw(st.sampled_from(labels))
        triples.add((u, v, label))
    graph = LabeledDiGraph.from_triples(sorted(triples), num_vertices=n)

    shape_name = draw(
        st.sampled_from(["path2", "path3", "star2", "triangle", "cycle4", "lollipop"])
    )
    if shape_name == "path2":
        base = templates.path(2)
    elif shape_name == "path3":
        base = templates.path(3)
    elif shape_name == "star2":
        base = templates.star(2)
    elif shape_name == "triangle":
        base = templates.triangle()
    elif shape_name == "cycle4":
        base = templates.cycle(4)
    else:
        base = QueryPattern(
            [("a", "b", "?0"), ("b", "c", "?1"), ("c", "a", "?2"), ("a", "t", "?3")]
        )
    chosen = [draw(st.sampled_from(labels)) for _ in range(len(base))]
    pattern = base.with_labels(chosen)
    return graph, pattern


class TestAgainstBruteForce:
    @given(graph_and_pattern())
    @settings(max_examples=80, deadline=None)
    def test_count_matches_bruteforce(self, case):
        graph, pattern = case
        expected = count_bruteforce(graph, pattern)
        assert count_pattern(graph, pattern) == expected

    @given(graph_and_pattern())
    @settings(max_examples=40, deadline=None)
    def test_acyclic_and_general_agree(self, case):
        graph, pattern = case
        if two_core_edges(pattern):
            return
        assert count_acyclic(graph, pattern) == count_general(graph, pattern)


@st.composite
def tree_dp_cases(draw):
    """A random graph (self-loops allowed), a random acyclic pattern whose
    labels may be missing from the graph, a root and optional leaf weights."""
    n = draw(st.integers(min_value=1, max_value=8))
    triples = draw(
        st.lists(
            st.tuples(
                st.integers(0, n - 1),
                st.integers(0, n - 1),
                st.sampled_from(["A", "B", "C"]),
            ),
            min_size=1,
            max_size=60,
        )
    )
    graph = LabeledDiGraph.from_triples(triples, num_vertices=n)
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    tree = templates.random_tree(draw(st.integers(1, 6)), rng)
    pattern = tree.with_labels(
        [draw(st.sampled_from(["A", "B", "C", "Z"])) for _ in range(len(tree))]
    )
    root = draw(st.sampled_from(pattern.variables))
    weighted = draw(st.lists(st.sampled_from(pattern.variables), unique=True))
    values = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    leaf_weights = {var: values.random(n) * 1e3 for var in weighted} or None
    return graph, pattern, root, leaf_weights


_FAN = LabeledDiGraph.from_triples(
    [(0, 1, "A"), (0, 2, "A"), (0, 3, "A"), (1, 4, "A"), (2, 4, "A"), (3, 4, "A")],
    num_vertices=5,
)
_TENTHS = {"y": np.array([0.0, 0.1, 0.2, 0.3, 0.0])}


class TestTreeDpAgainstCsr:
    @given(tree_dp_cases())
    @settings(max_examples=150, deadline=None)
    # Three-term sums whose float result depends on their order,
    # (0.1 + 0.2) + 0.3 != (0.3 + 0.2) + 0.1: along A, then against it.
    @example((_FAN, QueryPattern([("x", "y", "A")]), "x", _TENTHS))
    @example((_FAN, QueryPattern([("y", "x", "A")]), "x", _TENTHS))
    @example(
        (
            LabeledDiGraph.from_triples(
                [(0, 0, "A"), (0, 1, "A"), (1, 1, "B")], num_vertices=3
            ),
            QueryPattern([("x", "y", "A"), ("z", "y", "B"), ("y", "w", "Z")]),
            "y",
            {"x": np.array([0.1, 0.7, 3.3]), "y": np.array([1.5, 0.25, 9.0])},
        )
    )
    def test_bincount_messages_equal_csr_matvec_bit_for_bit(self, case):
        graph, pattern, root, leaf_weights = case
        got = tree_weight_array(graph, pattern, root, leaf_weights)
        want = tree_weight_array_csr(graph, pattern, root, leaf_weights)
        assert got.dtype == want.dtype == np.float64
        assert got.tobytes() == want.tobytes()


class TestClosedForms:
    def test_two_path_closed_form(self, medium_random_graph):
        """|A join B| == sum_v in_A(v) * out_B(v)."""
        graph = medium_random_graph
        la, lb = graph.labels[0], graph.labels[1]
        expected = float(
            (graph.in_degrees(la) * graph.out_degrees(lb)).sum()
        )
        pattern = QueryPattern([("x", "y", la), ("y", "z", lb)])
        assert count_pattern(graph, pattern) == pytest.approx(expected)

    def test_star_closed_form(self, medium_random_graph):
        """2-star homomorphism count == sum_v out_A(v) * out_B(v)."""
        graph = medium_random_graph
        la, lb = graph.labels[0], graph.labels[2]
        expected = float(
            (graph.out_degrees(la) * graph.out_degrees(lb)).sum()
        )
        pattern = QueryPattern([("x", "y", la), ("x", "z", lb)])
        assert count_pattern(graph, pattern) == pytest.approx(expected)

    def test_triangle_via_trace(self, medium_random_graph):
        """Triangle homomorphisms == trace(A @ B @ C)."""
        graph = medium_random_graph
        la, lb, lc = graph.labels[0], graph.labels[1], graph.labels[2]
        product = (
            adjacency_csr(graph, la)
            @ adjacency_csr(graph, lb)
            @ adjacency_csr(graph, lc)
        )
        expected = float(np.asarray(product.diagonal()).sum())
        pattern = templates.triangle().with_labels([la, lb, lc])
        assert count_pattern(graph, pattern) == pytest.approx(expected)
