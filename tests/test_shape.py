"""Tests for query shape analysis (cycles, depth, decompositions)."""

import networkx as nx
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import ceg as ceg_oracle
from oracles import shape as oracle
from repro.errors import PatternError
from repro.query import QueryPattern, shape, templates


@st.composite
def multigraph_patterns(draw):
    """Random patterns with self-loops, parallel atoms and several parts."""
    variables = [f"x{i}" for i in range(draw(st.integers(1, 6)))]
    atoms = draw(
        st.lists(
            st.tuples(
                st.sampled_from(variables),
                st.sampled_from(variables),
                st.sampled_from(["A", "B"]),
            ),
            min_size=1,
            max_size=8,
            unique=True,
        )
    )
    return QueryPattern(atoms)


class TestCycles:
    def test_path_is_acyclic(self):
        assert shape.is_acyclic(templates.path(4))

    def test_star_is_acyclic(self):
        assert shape.is_acyclic(templates.star(5))

    def test_cycle_detected(self):
        assert not shape.is_acyclic(templates.cycle(4))

    def test_triangle_cycles(self):
        found = shape.cycles(templates.triangle())
        assert found == [frozenset({0, 1, 2})]

    def test_four_cycle_length(self):
        assert shape.largest_cycle_length(templates.cycle(4)) == 4

    def test_acyclic_has_no_cycles(self):
        assert shape.largest_cycle_length(templates.path(3)) == 0

    def test_self_loop_is_cycle(self):
        pattern = QueryPattern([("a", "a", "A"), ("a", "b", "B")])
        assert frozenset({0}) in shape.cycles(pattern)

    def test_parallel_atoms_form_2cycle(self):
        pattern = QueryPattern([("a", "b", "A"), ("a", "b", "B")])
        assert frozenset({0, 1}) in shape.cycles(pattern)

    def test_k4_has_triangles_and_4cycles(self):
        lengths = {len(c) for c in shape.cycles(templates.clique(4))}
        assert 3 in lengths and 4 in lengths

    def test_bowtie_only_triangles(self):
        assert shape.has_only_triangles(templates.bowtie())

    def test_diamond_not_only_triangles(self):
        # The diamond contains a 4-cycle (the square) plus triangles.
        assert not shape.has_only_triangles(templates.diamond_with_chord())

    def test_large_cycle_classification(self):
        assert shape.largest_cycle_length(templates.cycle(4)) > 3
        assert shape.largest_cycle_length(templates.triangle()) == 3
        # K4: every 4-cycle contains a chord triangle, but the 4-cycles
        # still exist as simple cycles, so K4 counts as "large" here; the
        # workload split in the paper keys on whether all cycles are
        # triangles, which for K4 is false.
        assert shape.largest_cycle_length(templates.clique(4)) == 4


class TestDepth:
    def test_star_depth(self):
        assert shape.depth(templates.star(6)) == 2

    def test_path_depth(self):
        assert shape.depth(templates.path(6)) == 6

    def test_single_edge_depth(self):
        assert shape.depth(templates.path(1)) == 1

    def test_tree_of_depth_hits_targets(self):
        for k in (6, 7, 8):
            for d in range(2, k + 1):
                tree = templates.tree_of_depth(k, d)
                assert len(tree) == k
                assert shape.depth(tree) == d, (k, d)

    def test_every_template_matches_networkx(self):
        inventories = (
            templates.job_templates(),
            templates.acyclic_templates(),
            templates.cyclic_templates(),
            templates.gcare_acyclic_templates(),
            templates.gcare_cyclic_templates(),
        )
        for inventory in inventories:
            for name, pattern in inventory.items():
                assert shape.depth(pattern) == oracle.depth(pattern), name

    @given(multigraph_patterns())
    @settings(max_examples=300, deadline=None)
    @example(QueryPattern([("a", "a", "A")]))
    @example(QueryPattern([("a", "a", "A"), ("a", "b", "B")]))
    @example(QueryPattern([("a", "b", "A"), ("b", "a", "A")]))
    def test_matches_networkx_eccentricity(self, pattern):
        if pattern.is_connected():
            assert shape.depth(pattern) == oracle.depth(pattern)
            return
        with pytest.raises(PatternError):
            shape.depth(pattern)
        with pytest.raises(nx.NetworkXError):
            oracle.depth(pattern)


class TestCycleCompletions:
    """The rule ``CEG_OCR`` prices (§4.3), on the bitmask form the CEG
    oracle applies: an atom completes a cycle longer than ``h`` when it
    is the cycle's single atom outside the covered subset."""

    @staticmethod
    def completions(pattern, covered, h):
        query_cycles = [
            (sum(1 << atom for atom in cycle), len(cycle))
            for cycle in shape.cycles(pattern)
        ]
        return ceg_oracle._cycle_completions(covered, query_cycles, h)

    def test_four_cycle_missing_one_edge(self):
        assert self.completions(templates.cycle(4), 0b0111, h=3) == {3: 0b1111}

    def test_not_triggered_when_two_missing(self):
        assert self.completions(templates.cycle(4), 0b0011, h=3) == {}

    def test_not_triggered_for_small_cycles(self):
        assert self.completions(templates.triangle(), 0b011, h=3) == {}


class TestSpanningDecomposition:
    def test_acyclic_has_no_closures(self):
        tree, closures = shape.spanning_tree_and_closures(templates.path(4))
        assert len(tree) == 4 and closures == []

    def test_cycle_has_one_closure(self):
        tree, closures = shape.spanning_tree_and_closures(templates.cycle(5))
        assert len(tree) == 4 and len(closures) == 1

    def test_walk_order_validity(self):
        pattern = templates.clique(4)
        tree, closures = shape.spanning_tree_and_closures(pattern)
        bound: set[str] = set()
        for position, index in enumerate(tree + closures):
            edge = pattern.edges[index]
            if position == 0:
                bound.update(edge.variables())
                continue
            assert edge.src in bound or edge.dst in bound
            bound.update(edge.variables())
        assert bound == set(pattern.variables)


class TestIsAcyclicAgainstNetworkx:
    @staticmethod
    def _find_cycle_says_acyclic(pattern: QueryPattern) -> bool:
        try:
            nx.find_cycle(oracle.to_multigraph(pattern))
        except nx.NetworkXNoCycle:
            return True
        return False

    @given(multigraph_patterns())
    @example(QueryPattern([("a", "a", "A")]))
    @example(QueryPattern([("a", "b", "A"), ("b", "a", "A")]))
    @example(QueryPattern([("a", "b", "A"), ("c", "d", "B")]))
    @settings(max_examples=300, deadline=None)
    def test_matches_find_cycle(self, pattern):
        assert shape.is_acyclic(pattern) == self._find_cycle_says_acyclic(pattern)


@st.composite
def wide_multigraph_patterns(draw):
    """Up to 12 atoms over up to 8 variables: self-loops, parallel
    atoms (both directions, two labels) and disconnected parts."""
    variables = [f"x{i}" for i in range(draw(st.integers(1, 8)))]
    atoms = draw(
        st.lists(
            st.tuples(
                st.sampled_from(variables),
                st.sampled_from(variables),
                st.sampled_from(["A", "B"]),
            ),
            min_size=1,
            max_size=12,
            unique=True,
        )
    )
    return QueryPattern(atoms)


class TestCyclesAgainstNetworkx:
    """The bitmask enumeration returns the networkx oracle's list."""

    @given(wide_multigraph_patterns())
    @example(QueryPattern([("a", "a", "A")]))
    @example(QueryPattern([("a", "b", "A"), ("b", "a", "A"), ("a", "b", "B")]))
    @example(QueryPattern([("a", "b", "A"), ("b", "c", "A"), ("d", "e", "B")]))
    @settings(max_examples=300, deadline=None)
    def test_same_cycles_in_the_same_order(self, pattern):
        assert shape.cycles(pattern) == oracle.cycles(pattern)

    def test_templates_up_to_twelve_atoms(self):
        every = {
            **templates.acyclic_templates((6, 7, 8)),
            **templates.cyclic_templates(),
            **templates.gcare_acyclic_templates(),
            **templates.gcare_cyclic_templates(),
            "clique5": templates.clique(5),
        }
        for name, template in every.items():
            assert shape.cycles(template) == oracle.cycles(template), name
