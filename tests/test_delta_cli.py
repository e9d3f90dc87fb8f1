"""The ``repro updates`` CLI verbs and the ``repro query`` delta/deadline
satellites: apply/replay end to end, ``--apply-deltas`` live
refresh over a real socket, and ``--timeout`` mapping onto the
per-request deadline with the exit-3 contract.
"""

from __future__ import annotations

import json
import time

import pytest

from repro.cli import main
from repro.server import StoreRegistry, ThreadedServer
from repro.stats import StatisticsStore

UPDATE_ROWS = [["+", 0, 5, "B"], ["-", 3, 5, "B"], ["+", 12, 0, "A"]]


def run_cli(capsys, *argv):
    capsys.readouterr()  # drain output of fixture-run commands
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def artifact_dir(tmp_path):
    directory = tmp_path / "example"
    assert main(
        ["stats", "build", "--dataset", "example", "--out", str(directory)]
    ) == 0
    return directory


@pytest.fixture()
def updates_file(tmp_path):
    path = tmp_path / "ops.json"
    path.write_text(json.dumps({"updates": UPDATE_ROWS}))
    return path


class TestUpdatesApply:
    def test_apply_writes_delta_and_reports(
        self, capsys, artifact_dir, updates_file
    ):
        code, out, _ = run_cli(
            capsys, "updates", "apply", "--stats-dir", str(artifact_dir),
            "--updates", str(updates_file),
        )
        assert code == 0
        report = json.loads(out)
        assert report["mode"] == "incremental"
        assert report["generation"] == 1
        assert report["inserts"] == 2 and report["deletes"] == 1
        assert report["ledger"]["markov"] == "exact"
        assert (artifact_dir / "deltas" / "0001.json").is_file()
        loaded = StatisticsStore.load(artifact_dir)
        assert loaded.manifest.generation == 1

    def test_apply_twice_chains_generations(
        self, capsys, artifact_dir, updates_file, tmp_path
    ):
        run_cli(
            capsys, "updates", "apply", "--stats-dir", str(artifact_dir),
            "--updates", str(updates_file),
        )
        second = tmp_path / "ops2.json"
        second.write_text(json.dumps({"updates": [["+", 1, 6, "B"]]}))
        code, out, _ = run_cli(
            capsys, "updates", "apply", "--stats-dir", str(artifact_dir),
            "--updates", str(second),
        )
        assert code == 0
        assert json.loads(out)["generation"] == 2

    def test_missing_updates_file_exits_2(self, capsys, artifact_dir):
        code, _, err = run_cli(
            capsys, "updates", "apply", "--stats-dir", str(artifact_dir),
            "--updates", str(artifact_dir / "nope.json"),
        )
        assert code == 2
        assert "cannot read update file" in err

    def test_missing_artifact_exits_2(self, capsys, tmp_path, updates_file):
        code, _, err = run_cli(
            capsys, "updates", "apply", "--stats-dir", str(tmp_path / "no"),
            "--updates", str(updates_file),
        )
        assert code == 2
        assert "manifest" in err

    def test_unknown_subcommand_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "updates", "frobnicate")
        assert code == 2
        assert "apply | replay" in err


class TestUpdatesReplayAndCompact:
    def test_replay_verifies_lineage_and_catalogs(
        self, capsys, artifact_dir, updates_file
    ):
        run_cli(
            capsys, "updates", "apply", "--stats-dir", str(artifact_dir),
            "--updates", str(updates_file),
        )
        code, out, _ = run_cli(
            capsys, "updates", "replay", "--stats-dir", str(artifact_dir),
            "--verify",
        )
        assert code == 0
        report = json.loads(out)
        assert report["generation"] == 1
        assert [d["generation"] for d in report["deltas"]] == [1]
        assert report["verified"] == {"markov": True, "degrees": True}
        assert report["skipped"] == []

    def test_delta_file_is_lineage_and_update_log_only(
        self, capsys, artifact_dir, updates_file
    ):
        run_cli(
            capsys, "updates", "apply", "--stats-dir", str(artifact_dir),
            "--updates", str(updates_file),
        )
        deltas = artifact_dir / "deltas"
        assert sorted(path.name for path in deltas.iterdir()) == ["0001.json"]
        payload = json.loads((deltas / "0001.json").read_text())
        assert set(payload) == {
            "format_version", "kind", "generation", "parent_fingerprint",
            "fingerprint", "applied_at", "compacted", "updates", "staleness",
        }
        assert payload["updates"] == UPDATE_ROWS
        assert payload["staleness"]["degrees"] == "exact"

    def test_replay_reads_legacy_delta_with_patches(
        self, capsys, artifact_dir, updates_file
    ):
        """Delta files of older writers also carry catalog patches and
        name a SumRDF sibling; replay reads only their update log."""
        run_cli(
            capsys, "updates", "apply", "--stats-dir", str(artifact_dir),
            "--updates", str(updates_file),
        )
        delta_path = artifact_dir / "deltas" / "0001.json"
        payload = json.loads(delta_path.read_text())
        payload.update(
            markov={"set": [{"key": [[0, 1, "A"]], "count": 99.0}],
                    "delete": [], "complete": True},
            degrees={"set": [], "delete": [[[0, 1, "B"]]], "complete": True},
            characteristic_sets={"replace": {}},
            sumrdf_file="deltas/0001.sumrdf.npz",
        )
        delta_path.write_text(json.dumps(payload))
        code, out, _ = run_cli(
            capsys, "updates", "replay", "--stats-dir", str(artifact_dir),
            "--verify",
        )
        assert code == 0
        assert all(json.loads(out)["verified"].values())

    def test_replay_verify_checks_image_digests(self, capsys, artifact_dir):
        path = artifact_dir / "gen-0000" / "catalogs.npz"
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0x01
        path.write_bytes(bytes(data))
        code, _, err = run_cli(
            capsys, "updates", "replay", "--stats-dir", str(artifact_dir),
            "--verify",
        )
        assert code == 2
        assert f"{path}: sha256" in err

    def test_replay_detects_tampered_log(
        self, capsys, artifact_dir, updates_file
    ):
        run_cli(
            capsys, "updates", "apply", "--stats-dir", str(artifact_dir),
            "--updates", str(updates_file),
        )
        delta_path = artifact_dir / "deltas" / "0001.json"
        payload = json.loads(delta_path.read_text())
        payload["updates"].append(["+", 2, 6, "B"])
        delta_path.write_text(json.dumps(payload))
        code, _, err = run_cli(
            capsys, "updates", "replay", "--stats-dir", str(artifact_dir)
        )
        assert code == 2
        assert "fingerprint" in err


class TestQueryDeltaVerb:
    def test_apply_deltas_flag_refreshes_live_tenant(
        self, capsys, artifact_dir, updates_file
    ):
        registry = StoreRegistry()
        registry.load("example", artifact_dir)
        with ThreadedServer(registry) as server:
            port = str(server.port)
            code, out, _ = run_cli(
                capsys, "query", "--port", port, "--tenant", "example",
                "--apply-deltas",
            )
            assert code == 0
            assert json.loads(out)["applied"] == 0
            run_cli(
                capsys, "updates", "apply", "--stats-dir", str(artifact_dir),
                "--updates", str(updates_file),
            )
            code, out, _ = run_cli(
                capsys, "query", "--port", port, "--tenant", "example",
                "--apply-deltas",
            )
            assert code == 0
            result = json.loads(out)
            assert result["applied"] == 1
            assert result["artifact_generation"] == 1

    def test_apply_deltas_needs_tenant(self, capsys):
        code, _, err = run_cli(capsys, "query", "--apply-deltas")
        assert code == 2
        assert "--apply-deltas needs --tenant" in err

    def test_apply_deltas_is_exclusive_mode(self, capsys):
        code, _, err = run_cli(
            capsys, "query", "--apply-deltas", "--stats",
        )
        assert code == 2
        assert "exactly one" in err


class TestQueryTimeout:
    def test_timeout_maps_to_deadline_exit_3(
        self, capsys, artifact_dir, monkeypatch
    ):
        registry = StoreRegistry()
        registry.load("example", artifact_dir)
        entry = registry.get("example")
        original = entry.session.estimate_one

        def slow(pattern, spec):
            time.sleep(1.0)
            return original(pattern, spec)

        monkeypatch.setattr(entry.session, "estimate_one", slow)
        with ThreadedServer(registry) as server:
            code, _, err = run_cli(
                capsys, "query", "--port", str(server.port),
                "--tenant", "example", "-q", "a -[A]-> b",
                "--timeout", "0.05",
            )
        assert code == 3
        assert "deadline_exceeded" in err

    def test_explicit_deadline_overrides_timeout(
        self, capsys, artifact_dir, monkeypatch
    ):
        registry = StoreRegistry()
        registry.load("example", artifact_dir)
        with ThreadedServer(registry) as server:
            code, out, _ = run_cli(
                capsys, "query", "--port", str(server.port),
                "--tenant", "example", "-q", "a -[A]-> b",
                "--timeout", "0.0001", "--deadline-ms", "30000",
            )
        # A generous explicit deadline wins over the tiny --timeout.
        assert code == 0
        [result] = json.loads(out)["results"]
        assert result["estimates"]

    def test_nonpositive_timeout_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys, "query", "--tenant", "example", "-q", "a -[A]-> b",
            "--timeout", "0",
        )
        assert code == 2
        assert "--timeout must be positive" in err

    def test_unreachable_server_exits_3(self, capsys):
        code, _, err = run_cli(
            capsys, "query", "--port", "1", "--tenant", "example",
            "-q", "a -[A]-> b", "--timeout", "2",
        )
        assert code == 3
        assert "cannot connect" in err
