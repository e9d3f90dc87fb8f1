"""Tests for bushy planning and the frame-frame join."""

import pytest

from repro.engine import count_pattern, frame_from_edge, join_frames
from repro.errors import PlanningError
from repro.planner import (
    execute_bushy,
    execute_plan,
    optimize_bushy,
    optimize_left_deep,
    tree_atoms,
)
from repro.query import QueryEdge, parse_pattern, templates


class TestJoinTables:
    def test_shared_variable_join(self, tiny_graph):
        left = frame_from_edge(tiny_graph, QueryEdge("x", "y", "A"))
        right = frame_from_edge(tiny_graph, QueryEdge("y", "z", "B"))
        joined = join_frames(left, right, tiny_graph.num_vertices)
        assert set(joined.variables) == {"x", "y", "z"}
        assert joined.size == 5

    def test_join_commutative_in_count(self, tiny_graph):
        left = frame_from_edge(tiny_graph, QueryEdge("x", "y", "A"))
        right = frame_from_edge(tiny_graph, QueryEdge("y", "z", "B"))
        a = join_frames(left, right, tiny_graph.num_vertices)
        b = join_frames(right, left, tiny_graph.num_vertices)
        assert a.size == b.size

    def test_two_shared_variables(self, tiny_graph):
        left = frame_from_edge(tiny_graph, QueryEdge("x", "y", "A"))
        right = frame_from_edge(tiny_graph, QueryEdge("x", "y", "A"))
        joined = join_frames(left, right, tiny_graph.num_vertices)
        assert joined.size == left.size  # self-join on both columns

    def test_no_shared_variable_rejected(self, tiny_graph):
        left = frame_from_edge(tiny_graph, QueryEdge("x", "y", "A"))
        right = frame_from_edge(tiny_graph, QueryEdge("p", "q", "B"))
        with pytest.raises(PlanningError):
            join_frames(left, right, tiny_graph.num_vertices)

    def test_empty_side(self, tiny_graph):
        left = frame_from_edge(tiny_graph, QueryEdge("x", "y", "Z"))
        right = frame_from_edge(tiny_graph, QueryEdge("y", "z", "B"))
        joined = join_frames(left, right, tiny_graph.num_vertices)
        assert joined.size == 0
        assert set(joined.variables) == {"x", "y", "z"}

    def test_max_rows(self, tiny_graph):
        left = frame_from_edge(tiny_graph, QueryEdge("x", "y", "B"))
        right = frame_from_edge(tiny_graph, QueryEdge("x", "z", "B"))
        with pytest.raises(PlanningError):
            join_frames(left, right, tiny_graph.num_vertices, max_rows=1)


class TestOptimizeBushy:
    def test_tree_covers_atoms(self, tiny_graph):
        query = parse_pattern("a -[A]-> b -[B]-> c -[C]-> d")
        plan = optimize_bushy(query, lambda p: float(len(p)))
        assert tree_atoms(plan.tree) == frozenset(range(3))

    def test_never_worse_than_left_deep(self, medium_random_graph):
        """Left-deep plans are bushy plans: optimal bushy est-cost <=
        optimal left-deep est-cost under the same estimates."""
        graph = medium_random_graph
        labels = list(graph.labels)
        query = templates.fork(2, 2).with_labels(labels[:4])

        def exact(pattern):
            return count_pattern(graph, pattern)

        left_deep = optimize_left_deep(query, exact)
        bushy = optimize_bushy(query, exact)
        assert bushy.estimated_cost <= left_deep.estimated_cost + 1e-6

    def test_atom_cap(self):
        big = templates.path(13)
        with pytest.raises(PlanningError):
            optimize_bushy(big, lambda p: 1.0)

    def test_single_atom(self, tiny_graph):
        plan = optimize_bushy(parse_pattern("x -[A]-> y"), lambda p: 1.0)
        assert plan.tree == 0


class TestExecuteBushy:
    def test_final_count_matches(self, medium_random_graph):
        graph = medium_random_graph
        labels = list(graph.labels)
        query = templates.fork(1, 2).with_labels(labels[:3])
        truth = count_pattern(graph, query)
        plan = optimize_bushy(query, lambda p: count_pattern(graph, p))
        result = execute_bushy(graph, query, plan.tree)
        assert result.final_cardinality == pytest.approx(truth)

    def test_agrees_with_left_deep_execution(self, medium_random_graph):
        graph = medium_random_graph
        labels = list(graph.labels)
        query = templates.path(3).with_labels(labels[:3])
        bushy_run = execute_bushy(graph, query, ((0, 1), 2))
        left_run = execute_plan(graph, query, [0, 1, 2])
        assert bushy_run.final_cardinality == pytest.approx(
            left_run.final_cardinality
        )

    def test_incomplete_tree_rejected(self, tiny_graph):
        query = parse_pattern("a -[A]-> b -[B]-> c")
        with pytest.raises(PlanningError):
            execute_bushy(tiny_graph, query, 0)

    def test_abort_on_blowup(self, medium_random_graph):
        graph = medium_random_graph
        labels = list(graph.labels)
        query = templates.star(3).with_labels(
            [labels[0], labels[0], labels[1]]
        )
        result = execute_bushy(graph, query, ((0, 1), 2), max_rows=5)
        assert result.aborted

    def test_cyclic_query_execution(self, small_random_graph):
        from repro.engine import PatternSampler

        sampler = PatternSampler(small_random_graph, seed=17)
        instance = sampler.sample_instance(templates.triangle(), max_tries=300)
        if instance is None:
            pytest.skip("no triangle instance")
        truth = count_pattern(small_random_graph, instance)
        result = execute_bushy(small_random_graph, instance, ((0, 1), 2))
        assert result.final_cardinality == pytest.approx(truth)
