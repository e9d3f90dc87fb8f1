"""Tests for max-degree statistics (StatRelation / DegreeCatalog)."""

import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles.degrees import group_max_distinct

from repro.catalog import DegreeCatalog, degrees
from repro.catalog.degrees import (
    StatRelation,
    all_degree_pairs,
    materialise_table,
    pair_table,
)
from repro.errors import MissingStatisticError
from repro.graph import LabeledDiGraph
from repro.query import QueryPattern, parse_pattern
from repro.query.canonical import canonical_order
from repro.stats import StatisticsStore, StatsBuildConfig, build_statistics


def _f(*items):
    return frozenset(items)


def _relation(graph, text):
    """The graph-backed relation of one pattern, read under its names."""
    pattern = parse_pattern(text) if isinstance(text, str) else text
    return DegreeCatalog(graph, h=len(pattern)).relation_for(pattern)


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
    # At least one column: a match table's row count is its columns'
    # length.
    width = draw(st.integers(1, 4))
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
        got = all_degree_pairs(tuple(rows.T), columns, num_vertices)
        names = sorted(columns)
        assert got.dtype == np.float64 and got.shape == (3 ** len(names),)
        col_of = {var: i for i, var in enumerate(columns)}

        def cols(mask):
            return [col_of[v] for i, v in enumerate(names) if mask >> i & 1]

        x_masks, y_masks = pair_table(len(names))
        for value, x_mask, y_mask in zip(got.tolist(), x_masks, y_masks):
            expected = group_max_distinct(
                rows, cols(x_mask), cols(y_mask), num_vertices
            )
            assert _float_bits(value) == _float_bits(expected), (x_mask, y_mask)


#: The three two-atom shapes, by the atoms' ends around the shared ``b``.
TWO_ATOM_SHAPES = {
    "path": (("a", "b"), ("b", "c")),
    "in-star": (("a", "b"), ("c", "b")),
    "out-star": (("b", "a"), ("b", "c")),
}
#: ``n ** 3`` passes ``2 ** 62``: the kernel's radix keys would overflow.
RADIX_OVERFLOW = 2**21 + 1


@st.composite
def two_atom_cases(draw):
    """A random graph, a two-atom shape, its labels and its atom order.

    Few vertices and two labels make projections collide, ``a`` and
    ``c`` share vertices and both atoms often carry one label; label
    ``C`` is never in the graph (an empty join).  Vertex counts reach
    past the kernel's int64 radix range.
    """
    num_vertices = draw(st.sampled_from([1, 3, 6, 2**16 + 1, RADIX_OVERFLOW]))
    palette = sorted(
        v for v in {0, 1, 2, num_vertices // 2, num_vertices - 1}
        if v < num_vertices
    )
    triples = draw(
        st.lists(
            st.tuples(
                st.sampled_from(palette),
                st.sampled_from(palette),
                st.sampled_from("AB"),
            ),
            max_size=24,
        )
    )
    shape = draw(st.sampled_from(sorted(TWO_ATOM_SHAPES)))
    labels = draw(st.tuples(st.sampled_from("ABC"), st.sampled_from("ABC")))
    return num_vertices, triples, shape, labels, draw(st.booleans())


class TestTwoAtomKernel:
    @settings(max_examples=300, deadline=None)
    @given(two_atom_cases())
    # An in-star whose a and c bind the same vertex, an empty join, and
    # a table past the radix limit.
    @example((3, [(0, 1, "A"), (2, 1, "A")], "in-star", ("A", "A"), False))
    @example((6, [(0, 1, "A"), (1, 2, "B")], "path", ("A", "C"), True))
    @example((RADIX_OVERFLOW, [(0, 1, "A"), (1, 2, "A"), (1, 1, "A")],
              "path", ("A", "A"), False))
    def test_matches_group_max_distinct_bit_for_bit(self, case):
        num_vertices, triples, shape, labels, reverse = case
        graph = LabeledDiGraph.from_triples(triples, num_vertices=num_vertices)
        atoms = [
            (src, dst, label)
            for (src, dst), label in zip(TWO_ATOM_SHAPES[shape], labels)
        ]
        pattern = QueryPattern(atoms[::-1] if reverse else atoms)
        table = materialise_table(graph, pattern, None)
        with mock.patch.object(
            degrees, "two_atom_degree_pairs",
            wraps=degrees.two_atom_degree_pairs,
        ) as kernel:
            relation = StatRelation.from_table(pattern, table, num_vertices)
        assert kernel.called == (num_vertices != RADIX_OVERFLOW)

        rows = np.stack(table.columns, axis=1)
        # Bit i of a mask is canonical v{i}, played by order[i].
        order = canonical_order(pattern)

        def cols(mask):
            return [table.variables.index(order[i]) for i in range(3)
                    if mask >> i & 1]

        x_masks, y_masks = pair_table(3)
        for value, x_mask, y_mask in zip(
            relation.values.tolist(), x_masks, y_masks
        ):
            expected = group_max_distinct(
                rows, cols(x_mask), cols(y_mask), num_vertices
            )
            assert _float_bits(value) == _float_bits(expected), (x_mask, y_mask)


class TestPairTable:
    def test_every_pair_once_in_image_order(self):
        for width in range(5):
            x_masks, y_masks = pair_table(width)
            pairs = list(zip(x_masks.tolist(), y_masks.tolist()))
            assert len(pairs) == len(set(pairs)) == 3 ** width
            assert all(x & y == x for x, y in pairs)

            def bits(mask):
                return [i for i in range(width) if mask >> i & 1]

            assert pairs == sorted(pairs, key=lambda p: (bits(p[1]), bits(p[0])))


class TestBaseRelationDegrees:
    def test_cardinality(self, tiny_graph):
        relation = _relation(tiny_graph, "s -[A]-> d")
        assert relation.cardinality == 3

    def test_max_out_degree(self, tiny_graph):
        relation = _relation(tiny_graph, "s -[A]-> d")
        # Vertex 0 has two outgoing A edges.
        assert relation.deg(_f("s"), _f("s", "d")) == 2

    def test_max_in_degree(self, tiny_graph):
        relation = _relation(tiny_graph, "s -[C]-> d")
        # Vertex 6 has two incoming C edges.
        assert relation.deg(_f("d"), _f("s", "d")) == 2

    def test_distinct_projection(self, tiny_graph):
        relation = _relation(tiny_graph, "s -[A]-> d")
        assert relation.deg(_f(), _f("s")) == 2  # sources {0, 1}
        assert relation.deg(_f(), _f("d")) == 2  # destinations {2, 3}

    def test_full_tuple_degree_is_one(self, tiny_graph):
        relation = _relation(tiny_graph, "s -[A]-> d")
        assert relation.deg(_f("s", "d"), _f("s", "d")) == 1

    def test_x_equals_y_degree_is_one(self, tiny_graph):
        relation = _relation(tiny_graph, "s -[A]-> d")
        assert relation.deg(_f("s"), _f("s")) == 1

    def test_invalid_subset_relation(self, tiny_graph):
        relation = _relation(tiny_graph, "s -[A]-> d")
        with pytest.raises(MissingStatisticError):
            relation.deg(_f("s", "d"), _f("s"))
        with pytest.raises(MissingStatisticError):
            relation.deg(_f("q"), _f("q"))


class TestJoinRelationDegrees:
    def test_two_join_cardinality(self, tiny_graph):
        relation = _relation(tiny_graph, "x -[A]-> y -[B]-> z")
        assert relation.cardinality == 5

    def test_two_join_degree(self, tiny_graph):
        relation = _relation(tiny_graph, "x -[A]-> y -[B]-> z")
        # Middle vertex 2 participates in 2*2=4 of the 5 matches.
        assert relation.deg(_f("y"), _f("x", "y", "z")) == 4

    def test_cyclic_stat_pattern(self, small_random_graph):
        labels = small_random_graph.labels
        triangle = QueryPattern(
            [("a", "b", labels[0]), ("b", "c", labels[1]), ("c", "a", labels[2])]
        )
        relation = _relation(small_random_graph, triangle)
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


# ----------------------------------------------------------------------
# Renaming property: a lookup maps the caller's variables onto the
# canonical relation's bits, under any renaming and any automorphism.
# ----------------------------------------------------------------------
RENAMING_TRIPLES = [
    (0, 1, "A"), (1, 0, "A"), (1, 2, "A"), (2, 1, "A"), (0, 2, "A"),
    (3, 3, "A"), (2, 3, "B"), (3, 2, "B"), (0, 3, "B"), (1, 4, "B"),
    (4, 4, "B"), (4, 0, "A"), (2, 4, "B"), (5, 1, "A"), (5, 2, "B"),
]
VARIABLES = ["a", "b", "c", "d"]


@pytest.fixture(scope="module")
def renaming_graph():
    return LabeledDiGraph.from_triples(RENAMING_TRIPLES, num_vertices=6)


@pytest.fixture(scope="module")
def image_catalog(renaming_graph, tmp_path_factory):
    """The graph-free, mmap'd degree catalog of a complete h=3 image."""
    directory = tmp_path_factory.mktemp("renaming-image")
    build_statistics(
        renaming_graph, StatsBuildConfig(h=3, molp_h=3)
    ).save(directory)
    return StatisticsStore.load(directory, mmap=True).degrees


@st.composite
def renamed_patterns(draw):
    """A connected ≤3-atom pattern and a renaming of its variables."""
    atoms = []
    for index in range(draw(st.integers(1, 3))):
        bound = sorted({v for src, dst, _ in atoms for v in (src, dst)})
        if index == 0:
            src = "a"
            dst = draw(st.sampled_from(["a", "b"]))
        else:
            old = draw(st.sampled_from(bound))
            new = draw(st.sampled_from(VARIABLES[: len(bound) + 1]))
            src, dst = (old, new) if draw(st.booleans()) else (new, old)
        atom = (src, dst, draw(st.sampled_from(["A", "B"])))
        if atom not in atoms:
            atoms.append(atom)
    names = sorted({v for src, dst, _ in atoms for v in (src, dst)})
    targets = draw(st.permutations(["p", "q", "r", "s", "a", "b"]))
    return atoms, dict(zip(names, targets))


@settings(max_examples=150, deadline=None)
@given(renamed_patterns())
# The renamed-view cases of the earlier catalog tests, and an automorphic
# pattern whose two L-atoms swap roles under the renaming.
@example(([("a", "b", "A"), ("b", "c", "B")], {"a": "x", "b": "y", "c": "z"}))
@example(([("x", "y", "A"), ("y", "z", "B")], {"x": "p", "y": "q", "z": "r"}))
@example(([("a", "b", "A"), ("b", "a", "A")], {"a": "b", "b": "a"}))
@example(([("a", "b", "A"), ("b", "c", "A"), ("c", "a", "A")],
          {"a": "b", "b": "c", "c": "a"}))
def test_renamed_lookup_matches_oracle(
    renaming_graph, image_catalog, case
):
    atoms, renaming = case
    original = QueryPattern(atoms)
    renamed = QueryPattern(
        (renaming[src], renaming[dst], label) for src, dst, label in atoms
    )
    table = materialise_table(renaming_graph, renamed, None)
    rows = np.stack(table.columns, axis=1)
    col_of = {var: i for i, var in enumerate(table.variables)}
    names = sorted(renamed.variables)
    graph_catalog = DegreeCatalog(renaming_graph, h=3)
    # Seed the shared relation through the original names first, so the
    # renamed lookup reads a relation some other pattern built.
    graph_catalog.relation_for(original)
    views = [
        graph_catalog.relation_for(renamed),
        image_catalog.relation_for(renamed),
    ]
    x_masks, y_masks = pair_table(len(names))
    for x_mask, y_mask in zip(x_masks.tolist(), y_masks.tolist()):
        x = frozenset(v for i, v in enumerate(names) if x_mask >> i & 1)
        y = frozenset(v for i, v in enumerate(names) if y_mask >> i & 1)
        expected = group_max_distinct(
            rows,
            [col_of[v] for v in sorted(x)],
            [col_of[v] for v in sorted(y)],
            renaming_graph.num_vertices,
        )
        for view in views:
            assert view.attributes == frozenset(names)
            assert view.cardinality == float(table.size)
            assert _float_bits(view.deg(x, y)) == _float_bits(expected), (
                renamed, x, y
            )
