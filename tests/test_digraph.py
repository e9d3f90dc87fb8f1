"""Tests for labeled digraph storage and generators."""

import numpy as np
import pytest

from oracles.engine import adjacency_csr
from repro.errors import DatasetError
from repro.graph import LabeledDiGraph, generate_graph, zipf_weights


class TestConstruction:
    def test_from_triples(self, tiny_graph):
        assert tiny_graph.num_vertices == 8
        assert tiny_graph.num_edges == 10
        assert tiny_graph.labels == ("A", "B", "C")

    def test_duplicate_edges_removed(self):
        graph = LabeledDiGraph.from_triples(
            [(0, 1, "A"), (0, 1, "A"), (1, 2, "A")], num_vertices=3
        )
        assert graph.cardinality("A") == 2

    def test_vertex_bound_checked(self):
        with pytest.raises(DatasetError):
            LabeledDiGraph.from_triples([(0, 5, "A")], num_vertices=3)

    def test_zero_vertices_rejected(self):
        with pytest.raises(DatasetError):
            LabeledDiGraph(0, {})

    def test_unknown_label(self, tiny_graph):
        assert tiny_graph.cardinality("Z") == 0
        with pytest.raises(DatasetError):
            tiny_graph.relation("Z")
        assert "Z" not in tiny_graph


class TestAdjacency:
    def test_out_neighbors(self, tiny_graph):
        relation = tiny_graph.relation("A")
        assert sorted(relation.out_neighbors(0)) == [2, 3]
        assert list(relation.out_neighbors(7)) == []

    def test_in_neighbors(self, tiny_graph):
        relation = tiny_graph.relation("A")
        assert sorted(relation.in_neighbors(2)) == [0, 1]

    def test_degrees(self, tiny_graph):
        relation = tiny_graph.relation("C")
        assert relation.out_degree(4) == 2
        assert relation.in_degree(6) == 2

    def test_has_edge(self, tiny_graph):
        relation = tiny_graph.relation("B")
        assert relation.has_edge(2, 4, 8)
        assert not relation.has_edge(4, 2, 8)


class TestStatistics:
    def test_degree_arrays(self, tiny_graph):
        out = tiny_graph.out_degrees("A")
        assert out[0] == 2 and out[1] == 1 and out.sum() == 3
        incoming = tiny_graph.in_degrees("B")
        assert incoming[4] == 2

    def test_degree_array_for_missing_label(self, tiny_graph):
        assert tiny_graph.out_degrees("Z").sum() == 0

    def test_distinct_counts(self, tiny_graph):
        assert tiny_graph.distinct_sources("A") == 2
        assert tiny_graph.distinct_destinations("A") == 2

    def test_adjacency_csr(self, tiny_graph):
        matrix = adjacency_csr(tiny_graph, "A")
        assert matrix.shape == (8, 8)
        assert matrix[0, 2] == 1 and matrix[2, 0] == 0
        # The matrix is the relation's src-sorted edge arrays, entry for entry.
        rows, cols = matrix.nonzero()
        relation = tiny_graph.relation("A")
        assert rows.tolist() == relation.src_by_src.tolist()
        assert cols.tolist() == relation.dst_by_src.tolist()
        assert adjacency_csr(tiny_graph, "Z").nnz == 0

    def test_summary(self, tiny_graph):
        summary = tiny_graph.summary()
        assert summary == {
            "num_vertices": 8, "num_edges": 10, "num_labels": 3,
        }

    def test_triples_roundtrip(self, tiny_graph):
        triples = list(tiny_graph.triples())
        rebuilt = LabeledDiGraph.from_triples(triples, num_vertices=8)
        assert rebuilt.num_edges == tiny_graph.num_edges


class TestGenerator:
    def test_deterministic(self):
        a = generate_graph(100, 500, 6, seed=42)
        b = generate_graph(100, 500, 6, seed=42)
        assert a.num_edges == b.num_edges
        assert list(a.triples()) == list(b.triples())

    def test_seed_changes_graph(self):
        a = generate_graph(100, 500, 6, seed=1)
        b = generate_graph(100, 500, 6, seed=2)
        assert list(a.triples()) != list(b.triples())

    def test_label_budget_respected(self):
        graph = generate_graph(50, 300, 4, seed=0)
        assert len(graph.labels) <= 4

    def test_closure_creates_triangles(self):
        from repro.engine import count_pattern
        from repro.query import templates

        graph = generate_graph(80, 800, 2, seed=3, closure=0.5)
        total = 0.0
        for la in graph.labels:
            for lb in graph.labels:
                for lc in graph.labels:
                    total += count_pattern(
                        graph, templates.triangle().with_labels([la, lb, lc])
                    )
        assert total > 0

    def test_zipf_weights_normalised(self):
        weights = zipf_weights(10, 1.0)
        assert weights.shape == (10,)
        assert np.isclose(weights.sum(), 1.0)
        assert weights[0] > weights[-1]

    def test_zipf_rejects_empty(self):
        with pytest.raises(DatasetError):
            zipf_weights(0, 1.0)

    def test_generator_rejects_no_labels(self):
        with pytest.raises(DatasetError):
            generate_graph(10, 10, 0, seed=0)


class TestIO:
    def test_edge_list_roundtrip(self, tiny_graph, tmp_path):
        from repro.graph import load_edge_list, save_edge_list

        path = tmp_path / "graph.tsv"
        save_edge_list(tiny_graph, path)
        loaded = load_edge_list(path)
        assert loaded.num_vertices == tiny_graph.num_vertices
        assert list(loaded.triples()) == list(tiny_graph.triples())

    def test_npz_roundtrip(self, tiny_graph, tmp_path):
        from repro.graph import load_npz, save_npz

        path = tmp_path / "graph.npz"
        save_npz(tiny_graph, path)
        loaded = load_npz(path)
        assert loaded.num_vertices == tiny_graph.num_vertices
        assert list(loaded.triples()) == list(tiny_graph.triples())

    def test_empty_edge_list_rejected(self, tmp_path):
        from repro.graph import load_edge_list

        path = tmp_path / "empty.tsv"
        path.write_text("# vertices=3\n")
        with pytest.raises(DatasetError):
            load_edge_list(path)
