"""Cross-module property tests (hypothesis).

These pin down invariants that connect subsystems:

* the path-statistics DP agrees with explicit path enumeration on
  random DAGs;
* the join engine's final table size equals the counting engine's
  answer on random graph/query pairs;
* hash partitioning is lossless: per-partition exact counts sum to the
  whole;
* estimator ordering (min <= avg <= max) holds on arbitrary CEGs.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    CEG,
    distinct_estimates,
    estimate_from_ceg,
    hop_statistics_compiled,
)
from repro.engine import count_pattern, extend_frame, frame_from_edge
from repro.graph import LabeledDiGraph
from repro.query import templates


@st.composite
def random_dags(draw):
    """A small layered DAG with positive rates."""
    layers = draw(st.integers(min_value=2, max_value=4))
    width = draw(st.integers(min_value=1, max_value=3))
    names: list[list[tuple]] = []
    nodes = []
    for layer in range(layers):
        row = [("n", layer, i) for i in range(width)]
        names.append(row)
        nodes.extend((node, layer) for node in row)
    nodes.append((("t",), layers))
    edges = []
    for layer in range(layers - 1):
        for a in names[layer]:
            for b in names[layer + 1]:
                if draw(st.booleans()):
                    rate = draw(
                        st.floats(min_value=0.1, max_value=9.0)
                    )
                    edges.append((a, b, rate))
    for a in names[-1]:
        rate = draw(st.floats(min_value=0.1, max_value=9.0))
        edges.append((a, ("t",), rate))
    return CEG.from_edges(("n", 0, 0), ("t",), nodes, edges)


def _enumerate_paths(ceg: CEG):
    """All (source, target) path products by explicit DFS."""
    results: list[tuple[int, float]] = []

    def walk(node, hops, product):
        if node == ceg.target:
            results.append((hops, product))
            return
        for edge in ceg.out_edges(node):
            walk(edge.target, hops + 1, product * edge.rate)

    walk(ceg.source, 0, 1.0)
    return results


class TestPathDpAgainstEnumeration:
    @given(random_dags())
    @settings(max_examples=60, deadline=None)
    def test_hop_statistics_match(self, ceg):
        paths = _enumerate_paths(ceg)
        per_hop = hop_statistics_compiled(ceg)
        assert sum(s.count for s in per_hop.values()) == len(paths)
        if not paths:
            return
        by_hops: dict[int, list[float]] = {}
        for hops, product in paths:
            by_hops.setdefault(hops, []).append(product)
        for hops, values in by_hops.items():
            stats = per_hop[hops]
            assert stats.count == len(values)
            assert stats.total == pytest.approx(sum(values))
            assert stats.minimum == pytest.approx(min(values))
            assert stats.maximum == pytest.approx(max(values))

    @given(random_dags())
    @settings(max_examples=40, deadline=None)
    def test_aggregator_ordering(self, ceg):
        if not _enumerate_paths(ceg):
            return
        for hop in ("max", "min", "all"):
            low = estimate_from_ceg(ceg, hop, "min")
            mid = estimate_from_ceg(ceg, hop, "avg")
            high = estimate_from_ceg(ceg, hop, "max")
            assert low <= mid + 1e-9
            assert mid <= high + 1e-9

    @given(random_dags())
    @settings(max_examples=40, deadline=None)
    def test_distinct_estimates_are_path_products(self, ceg):
        paths = _enumerate_paths(ceg)
        if not paths:
            return
        products = {round(p, 6) for _, p in paths}
        found = {round(e, 6) for e in distinct_estimates(ceg)}
        assert found <= {round(p, 5) for _, p in paths} or len(found) <= len(
            products
        )


@st.composite
def graph_query_pairs(draw):
    n = draw(st.integers(min_value=3, max_value=8))
    labels = ["A", "B", "C"]
    num_edges = draw(st.integers(min_value=3, max_value=20))
    triples = set()
    for _ in range(num_edges):
        u = draw(st.integers(min_value=0, max_value=n - 1))
        v = draw(st.integers(min_value=0, max_value=n - 1))
        triples.add((u, v, draw(st.sampled_from(labels))))
    graph = LabeledDiGraph.from_triples(sorted(triples), num_vertices=n)
    shape = draw(st.sampled_from(["path2", "path3", "star2", "triangle"]))
    base = {
        "path2": templates.path(2),
        "path3": templates.path(3),
        "star2": templates.star(2),
        "triangle": templates.triangle(),
    }[shape]
    pattern = base.with_labels(
        [draw(st.sampled_from(labels)) for _ in range(len(base))]
    )
    return graph, pattern


class TestJoinEngineAgainstCounter:
    @given(graph_query_pairs())
    @settings(max_examples=60, deadline=None)
    def test_full_join_matches_count(self, case):
        graph, pattern = case
        from repro.query.shape import spanning_tree_and_closures

        tree, closures = spanning_tree_and_closures(pattern)
        order = tree + closures
        table = frame_from_edge(graph, pattern.edges[order[0]])
        for index in order[1:]:
            table, _ = extend_frame(graph, table, pattern.edges[index])
        assert table.size == pytest.approx(count_pattern(graph, pattern))

    @given(graph_query_pairs())
    @settings(max_examples=30, deadline=None)
    def test_all_join_orders_agree(self, case):
        graph, pattern = case
        from repro.errors import PlanningError

        counts = set()
        for order in itertools.permutations(range(len(pattern))):
            try:
                table = frame_from_edge(graph, pattern.edges[order[0]])
                for index in order[1:]:
                    table, _ = extend_frame(graph, table, pattern.edges[index])
            except PlanningError:
                continue  # disconnected prefix
            counts.add(table.size)
        assert len(counts) == 1


class TestPartitioningLossless:
    @given(graph_query_pairs(), st.sampled_from([4, 9, 16]))
    @settings(max_examples=30, deadline=None)
    def test_partition_counts_sum_to_whole(self, case, budget):
        from repro.catalog import BoundSketchPartitioner
        from repro.core import join_attributes

        graph, pattern = case
        attrs = join_attributes(pattern)
        if not attrs:
            return
        truth = count_pattern(graph, pattern)
        partitioner = BoundSketchPartitioner(graph, budget)
        total = 0.0
        for subgraph, subquery in partitioner.subqueries(pattern, attrs):
            total += count_pattern(subgraph, subquery)
        assert total == pytest.approx(truth)
