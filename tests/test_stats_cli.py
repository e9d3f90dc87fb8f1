"""The ``repro stats`` CLI and ``repro batch --stats-dir`` serving path.

End-to-end contract (the ISSUE's acceptance gate): ``repro stats build``
followed by ``repro batch --stats-dir`` produces estimates bit-identical
to the graph-backed ``repro batch``, and invalid requests exit 2 with a
named reason.
"""

import json

import pytest

from repro.cli import main

QUERIES = [
    "a -[A]-> b -[B]-> c",
    "x -[B]-> y -[C]-> z",
    "s -[A]-> t",
]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def artifact_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("stats") / "example"
    code = main(
        ["stats", "build", "--dataset", "example", "--out", str(directory)]
    )
    assert code == 0
    return directory


class TestStatsBuild:
    def test_build_summary_json(self, capsys, tmp_path):
        out_dir = tmp_path / "artifact"
        code, out, _ = run_cli(
            capsys, "stats", "build", "--dataset", "example",
            "--out", str(out_dir),
        )
        assert code == 0
        summary = json.loads(out)
        assert summary["dataset"] == "example"
        assert summary["mode"] == "full"
        assert summary["complete"] is True
        assert summary["markov_entries"] > 0
        assert (out_dir / "manifest.json").exists()
        # A build publishes generation image 0: one aligned NPZ of
        # catalog arrays plus its metadata, no per-catalog JSON.
        image = out_dir / "gen-0000"
        assert (image / "catalogs.npz").exists()
        assert (image / "catalogs.meta.json").exists()
        assert not (image / "markov.json").exists()

    def test_inspect_reports_manifest_and_sizes(self, capsys, artifact_dir):
        code, out, _ = run_cli(capsys, "stats", "inspect", str(artifact_dir))
        assert code == 0
        report = json.loads(out)
        assert report["dataset_name"] == "example"
        assert report["format_version"] == 2
        assert report["image"] == "gen-0000"
        assert report["total_bytes"] > 0
        assert "catalogs.npz" in report["files"]

    def test_inspect_per_catalog_sizes_check_the_sub_mb_claim(
        self, capsys, artifact_dir
    ):
        # Satellite: operators can sanity-check the paper's "sub-MB
        # tables" claim per dataset from the inspect report alone.
        code, out, _ = run_cli(capsys, "stats", "inspect", str(artifact_dir))
        assert code == 0
        report = json.loads(out)
        sizes = report["catalogs_sizes"]
        assert {"manifest", "markov", "degrees"} <= set(sizes)
        for catalog, entry in sizes.items():
            # Array-backed catalogs share one file; their own rows carry
            # mapped_bytes instead (bytes counted once under "catalogs").
            assert entry["bytes"] > 0 or entry["mapped_bytes"] > 0, catalog
            if "human" in entry:
                assert entry["human"].split()[1] in ("B", "kB", "MB")
        assert sizes["markov"]["entries"] > 0
        assert report["total_bytes"] == sum(
            entry["bytes"] for entry in sizes.values()
        )
        flat = report["flat"]
        assert flat["markov"]["mapped_bytes"] > 0
        assert flat["degrees"]["mapped_bytes"] > 0
        assert report["total_human"].split()[1] in ("B", "kB", "MB")
        assert report["sub_mb"] is (report["total_bytes"] < 1_000_000)
        assert report["sub_mb"] is True  # the example artifact is tiny

    def test_inspect_missing_dir_exits_2(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "stats", "inspect", str(tmp_path / "nope")
        )
        assert code == 2
        assert "does not exist" in err

    def test_unknown_subcommand_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "stats", "frobnicate")
        assert code == 2
        assert "build | inspect" in err

    def test_cycle_rates_require_a_workload(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "stats", "build", "--dataset", "example",
            "--cycle-rates", "--out", str(tmp_path / "x"),
        )
        assert code == 2
        assert "workload" in err


class TestBatchFromStatsDir:
    def test_estimates_bit_identical_to_graph_backed(
        self, capsys, artifact_dir
    ):
        argv = []
        for query in QUERIES:
            argv += ["-q", query]
        argv += ["-e", "all9", "-e", "MOLP"]
        code, out, _ = run_cli(
            capsys, "batch", "--stats-dir", str(artifact_dir), *argv
        )
        assert code == 0
        served = json.loads(out)
        code, out, _ = run_cli(
            capsys, "batch", "--dataset", "example", "--h", "2",
            "--molp-h", "2", *argv
        )
        assert code == 0
        graph_backed = json.loads(out)
        for stored, fresh in zip(served["results"], graph_backed["results"]):
            assert stored["estimates"] == fresh["estimates"]
            assert stored["errors"] == fresh["errors"] == {}
        assert served["dataset"] == "example"
        assert served["stats_dir"] == str(artifact_dir)
        assert served["graph"]["vertices"] == 13

    def test_sketch_spec_rejected(self, capsys, artifact_dir):
        code, _, err = run_cli(
            capsys, "batch", "--stats-dir", str(artifact_dir),
            "-q", "a -[A]-> b", "-e", "MOLP-sketch4",
        )
        assert code == 2
        assert "partitions base relations" in err

    def test_ocr_spec_without_stored_rates_rejected(self, capsys, artifact_dir):
        code, _, err = run_cli(
            capsys, "batch", "--stats-dir", str(artifact_dir),
            "-q", "a -[A]-> b", "-e", "max-hop-max+ocr",
        )
        assert code == 2
        assert "cycle rates" in err

    def test_cycle_rates_flag_conflicts_with_stats_dir(
        self, capsys, artifact_dir
    ):
        code, _, err = run_cli(
            capsys, "batch", "--stats-dir", str(artifact_dir),
            "--cycle-rates", "-q", "a -[A]-> b",
        )
        assert code == 2
        assert "conflicts" in err

    def test_missing_artifact_dir_exits_2(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "batch", "--stats-dir", str(tmp_path / "nope"),
            "-q", "a -[A]-> b",
        )
        assert code == 2
        assert "does not exist" in err
