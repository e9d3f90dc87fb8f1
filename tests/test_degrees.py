"""Tests for max-degree statistics (StatRelation / DegreeCatalog)."""

import itertools
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog import DegreeCatalog, StatRelation, group_max_distinct
from repro.catalog.degrees import all_degree_pairs
from repro.errors import MissingStatisticError
from repro.query import QueryPattern, parse_pattern


def _f(*items):
    return frozenset(items)


class TestGroupMaxDistinct:
    def test_total_distinct_with_empty_x(self):
        rows = np.asarray([[0, 1], [0, 1], [2, 3]])
        assert group_max_distinct(rows, [], [0, 1], 10) == 2

    def test_grouped_max(self):
        rows = np.asarray([[0, 1], [0, 2], [1, 3]])
        assert group_max_distinct(rows, [0], [0, 1], 10) == 2

    def test_duplicates_in_projection_collapse(self):
        rows = np.asarray([[0, 1, 9], [0, 1, 8], [0, 2, 7]])
        # Projecting to the first two columns gives 2 distinct tuples
        # for x-value 0, not 3.
        assert group_max_distinct(rows, [0], [0, 1], 10) == 2

    def test_empty_rows(self):
        rows = np.empty((0, 2), dtype=np.int64)
        assert group_max_distinct(rows, [0], [0, 1], 10) == 0.0


@st.composite
def degree_tables(draw):
    """A match table, its column names and a vertex count.

    Values come from a handful of distinct vertices (so projections
    collide), some rows are repeated, and vertex counts reach past the
    int64 radix range so wide tables take the structured fallback.
    """
    width = draw(st.integers(0, 4))
    num_vertices = draw(st.sampled_from([1, 3, 40, 2**16 + 1, 2**31 + 7]))
    palette = sorted(
        v for v in {0, 1, 2, num_vertices // 2, num_vertices - 1}
        if v < num_vertices
    )
    distinct = draw(
        st.lists(
            st.tuples(*[st.sampled_from(palette)] * width),
            max_size=30,
        )
    )
    repeats = draw(st.lists(st.sampled_from(distinct), max_size=10)) if distinct else []
    listed = distinct + repeats
    rows = np.asarray(listed, dtype=np.int64).reshape(len(listed), width)
    rows = rows[draw(st.permutations(range(rows.shape[0])))]
    columns = tuple(draw(st.permutations([f"v{i}" for i in range(width)])))
    return rows, columns, num_vertices


def _float_bits(value: float) -> bytes:
    return struct.pack("<d", value)


class TestAllDegreePairs:
    @settings(max_examples=300, deadline=None)
    @given(degree_tables())
    def test_matches_group_max_distinct_bit_for_bit(self, table):
        rows, columns, num_vertices = table
        got = all_degree_pairs(rows, columns, num_vertices)
        subsets = [
            frozenset(chosen)
            for size in range(len(columns) + 1)
            for chosen in itertools.combinations(columns, size)
        ]
        assert set(got) == {(x, y) for y in subsets for x in subsets if x <= y}
        col_of = {var: i for i, var in enumerate(columns)}
        for (x, y), value in got.items():
            expected = group_max_distinct(
                rows,
                [col_of[v] for v in sorted(x)],
                [col_of[v] for v in sorted(y)],
                num_vertices,
            )
            assert type(value) is float
            assert _float_bits(value) == _float_bits(expected), (x, y)


class TestBaseRelationDegrees:
    def test_cardinality(self, tiny_graph):
        relation = StatRelation(tiny_graph, parse_pattern("s -[A]-> d"))
        assert relation.cardinality == 3

    def test_max_out_degree(self, tiny_graph):
        relation = StatRelation(tiny_graph, parse_pattern("s -[A]-> d"))
        # Vertex 0 has two outgoing A edges.
        assert relation.deg(_f("s"), _f("s", "d")) == 2

    def test_max_in_degree(self, tiny_graph):
        relation = StatRelation(tiny_graph, parse_pattern("s -[C]-> d"))
        # Vertex 6 has two incoming C edges.
        assert relation.deg(_f("d"), _f("s", "d")) == 2

    def test_distinct_projection(self, tiny_graph):
        relation = StatRelation(tiny_graph, parse_pattern("s -[A]-> d"))
        assert relation.deg(_f(), _f("s")) == 2  # sources {0, 1}
        assert relation.deg(_f(), _f("d")) == 2  # destinations {2, 3}

    def test_full_tuple_degree_is_one(self, tiny_graph):
        relation = StatRelation(tiny_graph, parse_pattern("s -[A]-> d"))
        assert relation.deg(_f("s", "d"), _f("s", "d")) == 1

    def test_x_equals_y_degree_is_one(self, tiny_graph):
        relation = StatRelation(tiny_graph, parse_pattern("s -[A]-> d"))
        assert relation.deg(_f("s"), _f("s")) == 1

    def test_invalid_subset_relation(self, tiny_graph):
        relation = StatRelation(tiny_graph, parse_pattern("s -[A]-> d"))
        with pytest.raises(MissingStatisticError):
            relation.deg(_f("s", "d"), _f("s"))
        with pytest.raises(MissingStatisticError):
            relation.deg(_f("q"), _f("q"))


class TestJoinRelationDegrees:
    def test_two_join_cardinality(self, tiny_graph):
        relation = StatRelation(
            tiny_graph, parse_pattern("x -[A]-> y -[B]-> z")
        )
        assert relation.cardinality == 5

    def test_two_join_degree(self, tiny_graph):
        relation = StatRelation(
            tiny_graph, parse_pattern("x -[A]-> y -[B]-> z")
        )
        # Middle vertex 2 participates in 2*2=4 of the 5 matches.
        assert relation.deg(_f("y"), _f("x", "y", "z")) == 4

    def test_cyclic_stat_pattern(self, small_random_graph):
        labels = small_random_graph.labels
        triangle = QueryPattern(
            [("a", "b", labels[0]), ("b", "c", labels[1]), ("c", "a", labels[2])]
        )
        relation = StatRelation(small_random_graph, triangle)
        assert relation.deg(_f(), _f("a", "b", "c")) == relation.cardinality


class TestDegreeCatalog:
    def test_stat_relations_h1(self, tiny_graph):
        catalog = DegreeCatalog(tiny_graph, h=1)
        query = parse_pattern("a -[A]-> b -[B]-> c")
        relations = catalog.stat_relations(query)
        assert len(relations) == 2  # the two atoms

    def test_stat_relations_h2(self, tiny_graph):
        catalog = DegreeCatalog(tiny_graph, h=2)
        query = parse_pattern("a -[A]-> b -[B]-> c")
        relations = catalog.stat_relations(query)
        assert len(relations) == 3  # two atoms + the 2-join

    def test_rejects_oversized(self, tiny_graph):
        catalog = DegreeCatalog(tiny_graph, h=1)
        with pytest.raises(MissingStatisticError):
            catalog.relation_for(parse_pattern("a -[A]-> b -[B]-> c"))

    def test_cache_with_renaming(self, tiny_graph):
        catalog = DegreeCatalog(tiny_graph, h=2)
        first = catalog.relation_for(parse_pattern("a -[A]-> b -[B]-> c"))
        second = catalog.relation_for(parse_pattern("x -[A]-> y -[B]-> z"))
        assert first.cardinality == second.cardinality
        assert second.deg(_f("y"), _f("x", "y", "z")) == first.deg(
            _f("b"), _f("a", "b", "c")
        )

    def test_renamed_view_uses_right_names(self, tiny_graph):
        catalog = DegreeCatalog(tiny_graph, h=2)
        catalog.relation_for(parse_pattern("a -[A]-> b -[B]-> c"))
        view = catalog.relation_for(parse_pattern("q -[A]-> r -[B]-> s"))
        assert view.attributes == _f("q", "r", "s")

    def test_h_validation(self, tiny_graph):
        with pytest.raises(ValueError):
            DegreeCatalog(tiny_graph, h=0)

    def test_monotone_in_x(self, medium_random_graph):
        """deg(X2, Y) <= deg(X1, Y) whenever X1 ⊆ X2 (antitone in X)."""
        labels = medium_random_graph.labels
        catalog = DegreeCatalog(medium_random_graph, h=2)
        relation = catalog.relation_for(
            QueryPattern([("a", "b", labels[0]), ("b", "c", labels[1])])
        )
        y = _f("a", "b", "c")
        d_empty = relation.deg(_f(), y)
        d_b = relation.deg(_f("b"), y)
        d_ab = relation.deg(_f("a", "b"), y)
        assert d_empty >= d_b >= d_ab
