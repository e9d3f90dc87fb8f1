"""Tests for canonical pattern keys (renaming invariance) and the one
growth order each key has."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog.degrees import materialise_table
from repro.engine.counter import count_pattern
from repro.graph import LabeledDiGraph
from repro.query import QueryPattern, canonical_key, canonical_pattern, templates
from repro.query.canonical import canonical_parent, growth_order


class TestCanonicalKey:
    def test_renaming_invariance(self):
        p1 = QueryPattern([("a", "b", "A"), ("b", "c", "B")])
        p2 = QueryPattern([("x", "y", "A"), ("y", "z", "B")])
        assert canonical_key(p1) == canonical_key(p2)

    def test_direction_matters(self):
        forward = QueryPattern([("a", "b", "A"), ("b", "c", "B")])
        backward = QueryPattern([("a", "b", "A"), ("c", "b", "B")])
        assert canonical_key(forward) != canonical_key(backward)

    def test_label_matters(self):
        p1 = QueryPattern([("a", "b", "A")])
        p2 = QueryPattern([("a", "b", "B")])
        assert canonical_key(p1) != canonical_key(p2)

    def test_edge_order_invariance(self):
        p1 = QueryPattern([("a", "b", "A"), ("b", "c", "B")])
        p2 = QueryPattern([("b", "c", "B"), ("a", "b", "A")])
        assert canonical_key(p1) == canonical_key(p2)

    def test_star_vs_path(self):
        assert canonical_key(templates.star(3)) != canonical_key(templates.path(3))

    def test_canonical_pattern_roundtrip(self):
        pattern = templates.fork(2, 3)
        rebuilt = canonical_pattern(pattern)
        assert canonical_key(rebuilt) == canonical_key(pattern)
        assert len(rebuilt) == len(pattern)


@st.composite
def small_patterns(draw):
    """Random connected patterns with <= 4 edges and <= 3 labels."""
    num_edges = draw(st.integers(min_value=1, max_value=4))
    labels = ["A", "B", "C"]
    edges = []
    variables = ["v0", "v1"]
    edges.append((
        "v0", "v1", draw(st.sampled_from(labels)),
    ))
    for i in range(1, num_edges):
        anchor = draw(st.sampled_from(variables))
        if draw(st.booleans()):
            new = f"v{len(variables)}"
            variables.append(new)
            other = new
        else:
            other = draw(st.sampled_from(variables))
        label = draw(st.sampled_from(labels))
        if draw(st.booleans()):
            candidate = (anchor, other, label)
        else:
            candidate = (other, anchor, label)
        if candidate in edges:
            continue
        edges.append(candidate)
    return QueryPattern(edges)


class TestCanonicalProperty:
    @given(small_patterns(), st.integers(min_value=0, max_value=999))
    @settings(max_examples=60, deadline=None)
    def test_random_renaming_preserves_key(self, pattern, seed):
        rng = random.Random(seed)
        names = [f"w{i}" for i in range(len(pattern.variables))]
        rng.shuffle(names)
        mapping = dict(zip(pattern.variables, names))
        assert canonical_key(pattern) == canonical_key(pattern.rename(mapping))


def _growth_graph() -> LabeledDiGraph:
    """30 random triples over labels A-C on 8 vertices, self-loops allowed."""
    rng = random.Random(4)
    triples = {
        (rng.randrange(8), rng.randrange(8), rng.choice("ABC"))
        for _ in range(30)
    }
    return LabeledDiGraph.from_triples(sorted(triples), num_vertices=8)


GROWTH_GRAPH = _growth_graph()


class TestGrowthOrder:
    @given(small_patterns(), st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_one_order_per_key(self, pattern, rng):
        names = [f"w{i}" for i in range(len(pattern.variables))]
        rng.shuffle(names)
        edges = list(pattern.rename(dict(zip(pattern.variables, names))))
        rng.shuffle(edges)
        variant = QueryPattern(edges)
        smallest = min(pattern.labels)
        chains = []
        for candidate in (pattern, variant):
            order = growth_order(candidate)
            assert sorted(order) == list(range(len(candidate)))
            prefixes = [
                QueryPattern(candidate.edges[i] for i in order[:size])
                for size in range(1, len(order) + 1)
            ]
            for prefix in prefixes:
                assert prefix.is_connected()
                assert min(prefix.labels) == smallest
            chains.append([canonical_key(prefix) for prefix in prefixes])
        assert chains[0] == chains[1]
        # Each prefix is its successor's canonical parent.
        for parent, child in zip(chains[0], chains[0][1:]):
            assert canonical_parent(child) == parent
        assert canonical_parent(chains[0][0]) is None
        table = materialise_table(GROWTH_GRAPH, variant, None)
        assert table.size == count_pattern(GROWTH_GRAPH, variant)
