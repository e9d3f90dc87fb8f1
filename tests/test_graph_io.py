"""Streaming/gzip/mmap graph IO (`repro.graph.io`)."""

from __future__ import annotations

import gzip

import numpy as np
import pytest

from repro.datasets.presets import load_dataset, running_example_graph
from repro.errors import DatasetError
from repro.graph.io import (
    load_edge_list,
    load_npz,
    load_ntriples,
    save_edge_list,
    save_npz,
)
from repro.stats.artifact import dataset_fingerprint
from repro.stats.flatpack import degree_images_equal


@pytest.fixture(scope="module")
def graph():
    return load_dataset("epinions", 0.02)


class TestEdgeList:
    def test_roundtrip_preserves_fingerprint(self, graph, tmp_path):
        path = tmp_path / "g.tsv"
        save_edge_list(graph, path)
        assert dataset_fingerprint(load_edge_list(path)) == (
            dataset_fingerprint(graph)
        )

    def test_batched_save_matches_triples_format(self, tmp_path):
        # The batched per-label writer must emit the exact bytes the old
        # one-write-per-edge loop did: header, then label-sorted triples.
        g = running_example_graph()
        path = tmp_path / "g.tsv"
        save_edge_list(g, path)
        expected = f"# vertices={g.num_vertices}\n" + "".join(
            f"{u}\t{v}\t{label}\n" for u, v, label in g.triples()
        )
        assert path.read_text() == expected

    def test_gzip_roundtrip(self, graph, tmp_path):
        path = tmp_path / "g.tsv.gz"
        save_edge_list(graph, path)
        with path.open("rb") as handle:
            assert handle.read(2) == b"\x1f\x8b"  # really gzipped
        assert dataset_fingerprint(load_edge_list(path)) == (
            dataset_fingerprint(graph)
        )

    def test_non_integer_column_names_path_and_line(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("# vertices=5\n0\t1\tA\n1\tx\tB\n")
        with pytest.raises(DatasetError, match=r"bad\.tsv:3: .*integers"):
            load_edge_list(path)

    def test_wrong_column_count_names_path_and_line(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("0\t1\n")
        with pytest.raises(DatasetError, match=r"bad\.tsv:1: expected 3"):
            load_edge_list(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.tsv"
        path.write_text("# vertices=3\n")
        with pytest.raises(DatasetError, match="no edges"):
            load_edge_list(path)

    def test_missing_file_wrapped(self, tmp_path):
        with pytest.raises(DatasetError):
            load_edge_list(tmp_path / "absent.tsv")

    def test_vertex_count_inferred_without_header(self, tmp_path):
        path = tmp_path / "g.tsv"
        path.write_text("0\t4\tA\n2\t1\tA\n")
        loaded = load_edge_list(path)
        assert loaded.num_vertices == 5
        assert loaded.num_edges == 2


class TestNTriples:
    def test_parses_iris_blank_nodes_and_literals(self, tmp_path):
        path = tmp_path / "t.nt"
        path.write_text(
            "# a comment\n"
            "<http://ex/a> <http://ex/p> <http://ex/b> .\n"
            "_:node <http://ex/p> \"a literal\" .\n"
            "<http://ex/b> <http://ex/q> _:node .\n"
        )
        graph, terms = load_ntriples(path, return_terms=True)
        assert graph.num_edges == 3
        assert graph.labels == ("http://ex/p", "http://ex/q")
        assert terms[0] == "<http://ex/a>"
        assert len(terms) == graph.num_vertices

    def test_gzip_transparency(self, tmp_path):
        path = tmp_path / "t.nt.gz"
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            handle.write("<http://a> <http://p> <http://b> .\n")
        assert load_ntriples(path).num_edges == 1

    def test_malformed_line_names_path_and_line(self, tmp_path):
        path = tmp_path / "bad.nt"
        path.write_text(
            "<http://a> <http://p> <http://b> .\n<http://a> <http://p>\n"
        )
        with pytest.raises(DatasetError, match=r"bad\.nt:2"):
            load_ntriples(path)

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "empty.nt"
        path.write_text("# nothing\n")
        with pytest.raises(DatasetError, match="no triples"):
            load_ntriples(path)


class TestNpz:
    def test_compressed_roundtrip(self, graph, tmp_path):
        path = tmp_path / "g.npz"
        save_npz(graph, path)
        assert dataset_fingerprint(load_npz(path)) == (
            dataset_fingerprint(graph)
        )

    def test_uncompressed_roundtrip(self, graph, tmp_path):
        path = tmp_path / "g.npz"
        save_npz(graph, path, compressed=False)
        assert dataset_fingerprint(load_npz(path)) == (
            dataset_fingerprint(graph)
        )

    def test_mmap_load_is_zero_copy_and_equal(self, graph, tmp_path):
        path = tmp_path / "g.npz"
        save_npz(graph, path, compressed=False)
        mapped = load_npz(path, mmap=True)
        assert dataset_fingerprint(mapped) == dataset_fingerprint(graph)
        relation = mapped.relation(mapped.labels[0])
        for view in (
            relation.src_by_src,
            relation.dst_by_src,
            relation.src_by_dst,
            relation.dst_by_dst,
        ):
            assert isinstance(view, np.memmap)
            assert not view.flags.writeable
        # Adjacency still works off the mapped views.
        original = graph.relation(mapped.labels[0])
        vertex = int(original.src_by_src[0])
        assert list(relation.out_neighbors(vertex)) == list(
            original.out_neighbors(vertex)
        )

    def test_mmap_on_compressed_archive_refused(self, graph, tmp_path):
        path = tmp_path / "g.npz"
        save_npz(graph, path)  # compressed: members are deflated
        with pytest.raises(DatasetError, match="compressed=False"):
            load_npz(path, mmap=True)

    def test_not_an_archive_wrapped(self, tmp_path):
        path = tmp_path / "junk.npz"
        path.write_bytes(b"this is not a zip file")
        with pytest.raises(DatasetError):
            load_npz(path)
        with pytest.raises(DatasetError):
            load_npz(path, mmap=True)

    def test_mmap_roundtrip_through_statistics(self, graph, tmp_path):
        # The build-plane path: statistics built from a memory-mapped
        # graph must match statistics built from the in-memory graph.
        from repro.stats.build import StatsBuildConfig, build_statistics

        path = tmp_path / "g.npz"
        save_npz(graph, path, compressed=False)
        mapped = load_npz(path, mmap=True)
        config = StatsBuildConfig(h=1, molp_h=1)
        a = build_statistics(graph, config)
        b = build_statistics(mapped, config)
        assert a.markov.to_artifact() == b.markov.to_artifact()
        assert degree_images_equal(a.degrees, b.degrees)
