"""Direct unit tests for the match-frame join kernel."""

import numpy as np
import pytest

from repro.engine import expand_ranges, extend_frame, frame_from_edge
from repro.errors import PlanningError
from repro.query import QueryEdge


class TestExpandRanges:
    def test_simple(self):
        lo = np.asarray([0, 2, 5])
        hi = np.asarray([2, 2, 7])
        rows, flat = expand_ranges(lo, hi)
        assert list(rows) == [0, 0, 2, 2]
        assert list(flat) == [0, 1, 5, 6]

    def test_all_empty(self):
        lo = np.asarray([3, 4])
        hi = np.asarray([3, 4])
        rows, flat = expand_ranges(lo, hi)
        assert rows.size == 0 and flat.size == 0

    def test_single_long_range(self):
        rows, flat = expand_ranges(np.asarray([10]), np.asarray([14]))
        assert list(rows) == [0, 0, 0, 0]
        assert list(flat) == [10, 11, 12, 13]


class TestStartTable:
    def test_regular_atom(self, tiny_graph):
        table = frame_from_edge(tiny_graph, QueryEdge("x", "y", "A"))
        assert table.variables == ("x", "y")
        assert table.size == 3

    def test_missing_label(self, tiny_graph):
        table = frame_from_edge(tiny_graph, QueryEdge("x", "y", "Z"))
        assert table.size == 0

    def test_self_loop_atom(self, tiny_graph):
        table = frame_from_edge(tiny_graph, QueryEdge("x", "x", "A"))
        assert table.variables == ("x",)
        assert table.size == 0  # tiny graph has no A self-loops


class TestExtend:
    def test_forward_extension(self, tiny_graph):
        table = frame_from_edge(tiny_graph, QueryEdge("x", "y", "A"))
        table, _ = extend_frame(tiny_graph, table, QueryEdge("y", "z", "B"))
        assert table.variables == ("x", "y", "z")
        assert table.size == 5

    def test_backward_extension(self, tiny_graph):
        table = frame_from_edge(tiny_graph, QueryEdge("y", "z", "B"))
        table, _ = extend_frame(tiny_graph, table, QueryEdge("x", "y", "A"))
        assert set(table.variables) == {"x", "y", "z"}
        assert table.size == 5

    def test_both_bound_filters(self, tiny_graph):
        # x -A-> y plus a second atom between the same variables with a
        # different label acts as a semi-join filter.
        table = frame_from_edge(tiny_graph, QueryEdge("x", "y", "A"))
        filtered, _ = extend_frame(tiny_graph, table, QueryEdge("x", "y", "B"))
        assert filtered.variables == ("x", "y")
        assert filtered.size == 0  # no pair has both an A and a B edge

    def test_disconnected_atom_rejected(self, tiny_graph):
        table = frame_from_edge(tiny_graph, QueryEdge("x", "y", "A"))
        with pytest.raises(PlanningError):
            extend_frame(tiny_graph, table, QueryEdge("p", "q", "B"))

    def test_max_rows_enforced(self, tiny_graph):
        table = frame_from_edge(tiny_graph, QueryEdge("x", "y", "A"))
        with pytest.raises(PlanningError):
            extend_frame(
                tiny_graph, table, QueryEdge("y", "z", "B"), max_rows=2
            )

    def test_missing_label_extension_empty(self, tiny_graph):
        table = frame_from_edge(tiny_graph, QueryEdge("x", "y", "A"))
        extended, _ = extend_frame(tiny_graph, table, QueryEdge("y", "z", "Z"))
        assert extended.size == 0
        assert extended.variables == ("x", "y", "z")

    def test_rows_are_genuine_matches(self, tiny_graph):
        table = frame_from_edge(tiny_graph, QueryEdge("x", "y", "A"))
        table, _ = extend_frame(tiny_graph, table, QueryEdge("y", "z", "B"))
        a = tiny_graph.relation("A")
        b = tiny_graph.relation("B")
        for row in zip(*table.columns):
            x, y, z = (int(v) for v in row)
            assert a.has_edge(x, y, tiny_graph.num_vertices)
            assert b.has_edge(y, z, tiny_graph.num_vertices)
