"""Immutable generation images: one write path, one swap path.

Every published state of an artifact is a complete image directory
(``gen-NNNN/``) named by an atomically replaced root manifest.  Covers:

* published files are never rewritten under a live memory-mapped
  reader, and the manifest is never observed half-written;
* crash consistency: a writer killed after writing the next image but
  before the manifest swap leaves readers on the old generation, and
  the next writer cleans up after it;
* a reader that loses a race with two fast swaps re-reads the manifest;
* old-format artifacts fail with a typed error pointing at a rebuild;
* the registry's swap (shared mappings, lineage checks);
* a live fleet converging bit-identically on swaps under load and after
  a SIGKILL mid swap storm, with no files leaked after drain.
"""

from __future__ import annotations

import json
import os
import random
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.datasets.presets import running_example_graph
from repro.delta import UpdateBatch, apply_updates, random_update_batch
from repro.errors import DatasetError
from repro.query.parser import parse_pattern
from repro.server import (
    EstimationClient,
    FleetClient,
    ServerError,
    ServerUnavailable,
    StoreRegistry,
    ThreadedServer,
    wait_until_ready,
)
from repro.server.protocol import PROTOCOL_VERSION
from repro.stats import (
    StatisticsStore,
    StatsBuildConfig,
    build_statistics,
    inspect_artifact,
)
from repro.stats.artifact import StoreManifest, image_name, image_sequence
from repro.stats.flatpack import read_npz_arrays

SRC = Path(__file__).resolve().parent.parent / "src"

QUERIES = [
    "a -[A]-> b -[B]-> c",
    "x -[B]-> y -[C]-> z",
    "u -[B]-> v, u -[B]-> w",
]
SPECS = ["max-hop-max", "all-hops-avg", "MOLP"]

#: Grows the example graph with a new label, so a cold rebuild of the
#: catalogs is larger than the base (a shrinking in-place rewrite would
#: SIGBUS a mapped reader instead of showing changed bytes).
GROWTH = UpdateBatch(
    [["+", s, (s * 5 + 3) % 13, "F"] for s in range(13)]
    + [["+", s, (s * 7 + 1) % 13, "A"] for s in range(13)]
)


def example_store():
    return build_statistics(
        running_example_graph(),
        StatsBuildConfig(h=2, molp_h=2),
        dataset_name="example",
    )


@pytest.fixture()
def artifact_dir(tmp_path):
    example_store().save(tmp_path / "art")
    return tmp_path / "art"


def estimates_of(store):
    """Query-major (estimate, error) cells — the bit-identity probe."""
    batch = store.session().estimate_batch(
        [parse_pattern(text) for text in QUERIES], specs=SPECS
    )
    return [(item.estimate, item.error) for item in batch.items]


def images(directory: Path) -> list[str]:
    return sorted(path.name for path in directory.glob("gen-*"))


def shm_entries() -> set[str]:
    root = Path("/dev/shm")
    return {p.name for p in root.glob("repro-*")} if root.is_dir() else set()


class TestImmutableImages:
    def test_apply_never_rewrites_a_mapped_generation(self, artifact_dir):
        # What a serving process holds: the mapped arrays of the
        # artifact's catalogs.npz.
        (mapped_path,) = artifact_dir.rglob("catalogs.npz")
        held = read_npz_arrays(mapped_path, mmap=True)
        before = {name: bytes(array.tobytes()) for name, array in held.items()}
        inode = mapped_path.stat().st_ino
        manifests: list[str] = []
        torn: list[str] = []
        stop = threading.Event()

        def watch_manifest() -> None:
            path = artifact_dir / "manifest.json"
            while not stop.is_set():
                text = path.read_text()
                try:
                    manifests.append(json.loads(text)["dataset_fingerprint"])
                except ValueError:
                    torn.append(text)

        watcher = threading.Thread(target=watch_manifest)
        watcher.start()
        try:
            store = StatisticsStore.load(
                artifact_dir, graph=running_example_graph()
            )
            # compact_threshold=0 forces the cold-rebuild path, which
            # rewrites every catalog.
            outcome = apply_updates(
                store, GROWTH, directory=artifact_dir, compact_threshold=0.0
            )
        finally:
            stop.set()
            watcher.join(10.0)
        assert not watcher.is_alive()
        assert outcome.mode == "compacted"
        changed = [
            name for name, array in held.items()
            if bytes(array.tobytes()) != before[name]
        ]
        assert not changed, f"mapped arrays changed under the reader: {changed}"
        assert mapped_path.stat().st_ino == inode
        assert not torn, "a reader observed a half-written manifest"
        assert manifests, "the watcher never read the manifest"
        # The new generation really is different, and served.
        reloaded = StatisticsStore.load(artifact_dir)
        assert reloaded.manifest.dataset_fingerprint == outcome.fingerprint
        assert reloaded.markov.to_artifact() == store.markov.to_artifact()

    def test_each_save_is_a_new_image_and_two_survive(self, artifact_dir):
        store = StatisticsStore.load(artifact_dir)
        assert images(artifact_dir) == ["gen-0000"]
        store.save(artifact_dir)
        assert images(artifact_dir) == ["gen-0000", "gen-0001"]
        store.save(artifact_dir)
        assert images(artifact_dir) == ["gen-0001", "gen-0002"]
        assert StatisticsStore.load(artifact_dir).manifest.image == "gen-0002"
        # Each image carries its own frozen manifest and loads alone.
        old = StatisticsStore.load(artifact_dir / "gen-0001", mmap=True)
        assert old.manifest.image == "gen-0001"
        assert estimates_of(old) == estimates_of(store)
        assert not [p for p in artifact_dir.iterdir() if ".tmp-" in p.name]


class TestManifest:
    def test_save_replaces_the_manifest_atomically(self, artifact_dir):
        path = artifact_dir / "manifest.json"
        inode = path.stat().st_ino
        manifest = StoreManifest.load(artifact_dir)
        manifest.save(artifact_dir)
        # A rename over the old file, never an in-place rewrite.
        assert path.stat().st_ino != inode
        assert StoreManifest.load(artifact_dir) == manifest
        assert not [p for p in artifact_dir.iterdir() if ".tmp-" in p.name]

    def test_image_names_round_trip(self):
        assert image_name(7) == "gen-0007"
        assert image_sequence(image_name(12345)) == 12345
        assert image_sequence("gen-x") is None
        assert image_sequence(".gen-0001.tmp-42") is None

    def test_lineage_fingerprint_walks_the_chain(self, artifact_dir):
        store = StatisticsStore.load(artifact_dir, graph=running_example_graph())
        base = store.manifest.dataset_fingerprint
        for seed in (3, 4):
            apply_offline(store, artifact_dir, seed)
        manifest = StoreManifest.load(artifact_dir)
        assert manifest.lineage_fingerprint(0) == base
        assert manifest.lineage_fingerprint(1) == (
            manifest.deltas[0]["fingerprint"]
        )
        assert manifest.lineage_fingerprint(2) == manifest.dataset_fingerprint
        assert manifest.lineage_fingerprint(3) is None
        manifest.deltas[1]["parent_fingerprint"] = "bogus"
        with pytest.raises(DatasetError, match="broken delta lineage"):
            manifest.lineage_fingerprint(2)

    def test_inspect_reports_the_current_image(self, artifact_dir):
        store = StatisticsStore.load(artifact_dir, graph=running_example_graph())
        apply_offline(store, artifact_dir, 5)
        report = inspect_artifact(artifact_dir)
        assert report["image"] == "gen-0001"
        assert report["generation"] == 1
        image = artifact_dir / "gen-0001"
        assert report["files"]["catalogs.npz"]["bytes"] == (
            (image / "catalogs.npz").stat().st_size
        )
        assert report["files"]["deltas/0001.json"]["generation"] == 1


class TestCrashConsistency:
    KILL_AT_MANIFEST_SWAP = """
import os, signal, sys
from repro.datasets.presets import running_example_graph
from repro.delta import UpdateBatch, apply_updates
from repro.stats import StatisticsStore
from repro.stats.artifact import StoreManifest

root = sys.argv[1]
real_save = StoreManifest.save

def save(self, directory):
    if os.path.samefile(directory, root):
        os.kill(os.getpid(), signal.SIGKILL)  # image renamed, no swap
    real_save(self, directory)

StoreManifest.save = save
store = StatisticsStore.load(root, graph=running_example_graph())
apply_updates(store, UpdateBatch([["+", 0, 5, "B"]]), directory=root,
              compact_threshold=100.0)
"""

    def test_writer_killed_before_manifest_swap_serves_old(
        self, artifact_dir
    ):
        reference = estimates_of(StatisticsStore.load(artifact_dir))
        manifest_before = (artifact_dir / "manifest.json").read_bytes()
        done = subprocess.run(
            [sys.executable, "-c", self.KILL_AT_MANIFEST_SWAP,
             str(artifact_dir)],
            env={**os.environ, "PYTHONPATH": str(SRC)},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == -signal.SIGKILL, done.stderr
        # The next image is complete on disk, but unpublished.
        assert images(artifact_dir) == ["gen-0000", "gen-0001"]
        assert (artifact_dir / "manifest.json").read_bytes() == manifest_before
        survivor = StatisticsStore.load(artifact_dir, mmap=True)
        assert survivor.manifest.image == "gen-0000"
        assert survivor.manifest.generation == 0
        assert estimates_of(survivor) == reference
        # The next writer publishes past the orphan and prunes it.
        store = StatisticsStore.load(artifact_dir, graph=running_example_graph())
        apply_updates(
            store, UpdateBatch([["+", 0, 5, "B"]]), directory=artifact_dir,
            compact_threshold=100.0,
        )
        assert images(artifact_dir) == ["gen-0000", "gen-0002"]
        fresh = StatisticsStore.load(artifact_dir)
        assert fresh.manifest.generation == 1
        assert estimates_of(fresh) == estimates_of(store)

    KILL_AT_IMAGE_RENAME = """
import os, signal, sys
from repro.datasets.presets import running_example_graph
from repro.delta import UpdateBatch, apply_updates
from repro.stats import StatisticsStore

root = sys.argv[1]
real_rename = os.rename

def rename(source, target):
    os.kill(os.getpid(), signal.SIGKILL)  # log written, image staged

os.rename = rename
store = StatisticsStore.load(root, graph=running_example_graph())
apply_updates(store, UpdateBatch([["+", 0, 5, "B"]]), directory=root,
              compact_threshold=100.0)
"""

    def test_writer_killed_before_image_rename_leaves_a_retryable_log(
        self, artifact_dir
    ):
        from repro.delta import replay_graph

        reference = estimates_of(StatisticsStore.load(artifact_dir))
        done = subprocess.run(
            [sys.executable, "-c", self.KILL_AT_IMAGE_RENAME,
             str(artifact_dir)],
            env={**os.environ, "PYTHONPATH": str(SRC)},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == -signal.SIGKILL, done.stderr
        # The update log landed, but the manifest does not list it.
        assert (artifact_dir / "deltas" / "0001.json").is_file()
        assert images(artifact_dir) == ["gen-0000"]
        survivor = StatisticsStore.load(artifact_dir)
        assert survivor.manifest.generation == 0
        assert estimates_of(survivor) == reference
        # A retry of the same batch rewrites the log and publishes.
        store = StatisticsStore.load(artifact_dir, graph=running_example_graph())
        apply_updates(
            store, UpdateBatch([["+", 0, 5, "B"]]), directory=artifact_dir,
            compact_threshold=100.0,
        )
        assert images(artifact_dir) == ["gen-0000", "gen-0001"]
        assert not [p for p in artifact_dir.iterdir() if ".tmp-" in p.name]
        replayed = replay_graph(running_example_graph(), artifact_dir)
        assert replayed.num_edges == store.graph.num_edges

    def test_leftover_staging_directory_is_ignored_then_removed(
        self, artifact_dir
    ):
        # A writer killed mid image write leaves only a staging dir.
        staging = artifact_dir / ".gen-0001.tmp-999999"
        staging.mkdir()
        (staging / "catalogs.npz").write_bytes(b"partial")
        reference = estimates_of(StatisticsStore.load(artifact_dir))
        store = StatisticsStore.load(artifact_dir)
        assert estimates_of(store) == reference
        store.save(artifact_dir)
        assert not staging.exists()
        assert images(artifact_dir) == ["gen-0000", "gen-0001"]

    def test_reader_rereads_manifest_when_image_was_pruned(
        self, artifact_dir, monkeypatch
    ):
        import repro.stats.store as store_module

        stale = store_module.StoreManifest.load(artifact_dir)
        store = StatisticsStore.load(artifact_dir)
        store.save(artifact_dir)
        store.save(artifact_dir)  # two fast swaps: gen-0000 is gone
        assert images(artifact_dir) == ["gen-0001", "gen-0002"]
        real_load = store_module.StoreManifest.load
        calls = []

        def load_stale_first(directory):
            calls.append(directory)
            return stale if len(calls) == 1 else real_load(directory)

        monkeypatch.setattr(
            store_module.StoreManifest, "load", load_stale_first
        )
        loaded = StatisticsStore.load(artifact_dir, mmap=True)
        assert len(calls) == 2
        assert loaded.manifest.image == "gen-0002"
        assert estimates_of(loaded) == estimates_of(store)


class TestOldFormats:
    """Format-1 artifacts are refused, never half-read (no committed
    artifact uses them, so no migration path exists)."""

    def legacy(self, directory: Path, **fields) -> Path:
        directory.mkdir()
        payload = {
            "format_version": 1,
            "kind": "statistics_store",
            "dataset_fingerprint": "abc",
            "h": 2,
            "molp_h": 2,
            "catalogs": ["degrees", "markov"],
            **fields,
        }
        (directory / "manifest.json").write_text(json.dumps(payload))
        return directory

    @pytest.mark.parametrize(
        "fields",
        [
            {"layout": "flat"},
            {"layout": "json"},
            {
                "layout": "flat",
                "generation": 2,
                "compacted_generation": 0,
                "deltas": [{"generation": 1, "file": "deltas/0001.json"}],
            },
        ],
        ids=["flat", "json-layout", "uncompacted-chain"],
    )
    def test_format_1_points_at_stats_build(self, tmp_path, fields):
        directory = self.legacy(tmp_path / "old", **fields)
        with pytest.raises(DatasetError, match="repro stats build"):
            StatisticsStore.load(directory)
        with pytest.raises(DatasetError, match="repro stats build"):
            StoreRegistry().load("t", directory)

    def test_format_1_image_names_both_versions(self, artifact_dir):
        """An image of format 1 (metadata version 1, no recorded
        digests) is refused as old, not as corrupt."""
        image = artifact_dir / "gen-0000"
        meta_path = image / "catalogs.meta.json"
        meta = json.loads(meta_path.read_text())
        meta["format_version"] = 1
        meta_path.write_text(json.dumps(meta))
        for manifest_path in (image / "manifest.json",
                              artifact_dir / "manifest.json"):
            payload = json.loads(manifest_path.read_text())
            del payload["digests"]
            manifest_path.write_text(json.dumps(payload))
        expected = "image format 1, but this build reads format 2"
        with pytest.raises(DatasetError, match=expected) as raised:
            StatisticsStore.load(artifact_dir)
        assert "repro stats build" in str(raised.value)
        assert "corrupt" not in str(raised.value)
        with pytest.raises(DatasetError, match=expected):
            StoreRegistry().load("t", artifact_dir)


class TestRetiredVerbs:
    @pytest.mark.parametrize(
        "argv",
        [["stats", "repack"], ["updates", "compact"]],
        ids=["stats-repack", "updates-compact"],
    )
    def test_retired_verb_is_an_unknown_subcommand(
        self, capsys, artifact_dir, argv
    ):
        from repro.cli import main

        assert main([*argv, str(artifact_dir)]) == 2
        assert "expected a subcommand" in capsys.readouterr().err


class TestRegistrySwap:
    def test_two_registries_share_one_mapped_generation(self, artifact_dir):
        first = StoreRegistry().load("t", artifact_dir)
        second = StoreRegistry().load("t", artifact_dir)
        for entry in (first, second):
            counts = entry.store.markov._flat.counts
            assert isinstance(counts, np.memmap)
            assert Path(counts.filename).parent.name == "gen-0000"
        assert estimates_of(first.store) == estimates_of(second.store)

    def test_mapped_image_is_bit_identical_to_an_eager_load(
        self, artifact_dir
    ):
        path = artifact_dir / "gen-0000" / "catalogs.npz"
        mapped = read_npz_arrays(path, mmap=True)
        eager = read_npz_arrays(path)
        assert mapped and set(mapped) == set(eager)
        for name, array in eager.items():
            # Raw bytes, not just values: the mapping decodes nothing.
            assert isinstance(mapped[name], np.memmap)
            assert mapped[name].dtype == array.dtype
            assert mapped[name].tobytes() == array.tobytes()
        served = StoreRegistry().load("t", artifact_dir)
        assert estimates_of(served.store) == estimates_of(
            StatisticsStore.load(artifact_dir)
        )

    def test_invalid_artifact_raises_dataset_error(self, tmp_path):
        registry = StoreRegistry()
        with pytest.raises(DatasetError):
            registry.load("t", tmp_path / "nope")
        assert len(registry) == 0

    def test_swap_skips_to_newest_generation(self, artifact_dir):
        registry = StoreRegistry()
        registry.load("t", artifact_dir)
        store = StatisticsStore.load(artifact_dir, graph=running_example_graph())
        for seed in (1, 2):
            apply_offline(store, artifact_dir, seed)
        entry, applied = registry.apply_deltas("t")
        assert applied == 2
        assert entry.store.manifest.image == "gen-0002"
        assert estimates_of(entry.store) == estimates_of(store)

    def test_reload_maps_a_republished_image(self, artifact_dir):
        registry = StoreRegistry()
        first = registry.load("t", artifact_dir)
        StatisticsStore.load(artifact_dir).save(artifact_dir)
        # Same lineage generation, so apply_deltas has nothing to do;
        # a reload of the directory maps the newest image anyway.
        assert registry.apply_deltas("t") == (first, 0)
        entry = registry.reload("t")
        assert entry.store.manifest.image == "gen-0001"
        assert entry.describe()["image"] == "gen-0001"
        assert estimates_of(entry.store) == estimates_of(first.store)

    def test_apply_deltas_refuses_a_foreign_lineage(self, artifact_dir):
        registry = StoreRegistry()
        registry.load("t", artifact_dir)
        # An artifact of another lineage, one generation in, lands in
        # the tenant's directory: not a continuation of what it serves.
        other = example_store()
        other.manifest.base_fingerprint = "foreign"
        other.manifest.dataset_fingerprint = "foreign"
        apply_updates(
            other, UpdateBatch([["+", 0, 5, "B"]]), compact_threshold=100.0
        )
        other.save(artifact_dir)
        with pytest.raises(DatasetError, match="lineage"):
            registry.apply_deltas("t")
        with pytest.raises(DatasetError, match="lineage"):
            registry.refresh_if_stale("t")
        assert registry.get("t").store.manifest.generation == 0

    def test_stats_verb_reports_mapped_images(self, artifact_dir):
        registry = StoreRegistry()
        registry.load("t", artifact_dir)
        store = StatisticsStore.load(artifact_dir, graph=running_example_graph())
        with ThreadedServer(registry) as server:
            with EstimationClient("127.0.0.1", server.port) as client:
                client.estimate("t", QUERIES[0], SPECS)
                apply_offline(store, artifact_dir, 6)
                assert client.apply_deltas("t")["applied"] == 1
                client.estimate("t", QUERIES[0], SPECS)
                stats = client.stats()
        assert stats["artifact_plane"] == {
            "disk_parses": stats["artifact_plane"]["disk_parses"],
            "publishes": 0,
            "attaches": 0,
        }
        assert stats["artifact_plane"]["disk_parses"] >= 2
        mapped = {row["name"]: row for row in stats["memory"]["mapped"]}
        current = str(artifact_dir / "gen-0001" / "catalogs.npz")
        assert current in mapped, mapped
        assert mapped[current]["mapped_kb"] > 0
        assert mapped[current]["deleted"] is False


# ----------------------------------------------------------------------
# Live fleet (subprocess `repro serve --workers 2`)
# ----------------------------------------------------------------------
WORKERS = 2


class Fleet:
    """A ``repro serve --workers 2`` subprocess over two tenants."""

    def __init__(self, artifact_dir: Path):
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--tenant", f"t1={artifact_dir}",
                "--tenant", f"t2={artifact_dir}",
                "--port", "0",
                "--workers", str(WORKERS),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": str(SRC)},
            text=True,
        )
        self.events: list[dict] = []
        self._lock = threading.Lock()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        self.ready = self.wait_event(lambda e: e["event"] == "ready", 60.0)
        self.host = self.ready["host"]
        self.port = self.ready["port"]
        wait_until_ready(self.host, self.port, timeout=30.0)

    def _read(self) -> None:
        assert self.proc.stdout is not None
        for line in self.proc.stdout:
            if line.strip():
                with self._lock:
                    self.events.append(json.loads(line))

    def wait_event(self, predicate, timeout: float) -> dict:
        deadline = time.monotonic() + timeout
        seen = 0
        while time.monotonic() < deadline:
            with self._lock:
                fresh = self.events[seen:]
                seen = len(self.events)
            for event in fresh:
                if predicate(event):
                    return event
            time.sleep(0.02)
        raise AssertionError(
            f"fleet event did not arrive in {timeout}s; saw {self.events}"
        )

    def worker_pids(self) -> dict[int, int]:
        pids = {w["index"]: w["pid"] for w in self.ready["workers"]}
        with self._lock:
            for event in self.events:
                if event["event"] == "worker-started":
                    pids[event["index"]] = event["pid"]
        return pids

    def per_worker(self, verb: dict) -> list[dict]:
        """``verb`` answered by every worker's direct port."""
        results = []
        for worker in self.ready["workers"]:
            with EstimationClient(self.host, worker["direct_port"]) as client:
                results.append(client.call(verb))
        return results

    def finish(self, timeout: float = 30.0) -> tuple[int, str]:
        self.proc.wait(timeout=timeout)
        self._reader.join(5.0)
        stderr = self.proc.stderr.read() if self.proc.stderr else ""
        return self.proc.returncode, stderr

    def cleanup(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=5)
        for stream in (self.proc.stdout, self.proc.stderr):
            if stream:
                stream.close()


@pytest.fixture()
def fleet(artifact_dir):
    shm_before = shm_entries()
    fleet = Fleet(artifact_dir)
    yield fleet
    fleet.cleanup()
    assert shm_entries() <= shm_before, "the fleet left /dev/shm entries"


def apply_offline(store, directory: Path, seed: int) -> None:
    """One ``repro updates apply`` equivalent, in-process."""
    batch = random_update_batch(store.graph, random.Random(seed), 2, 1)
    apply_updates(store, batch, directory=directory, compact_threshold=100.0)


def assert_workers_serve(fleet: Fleet, reference, generation: int) -> None:
    """Every worker reports ``generation`` and serves ``reference``."""
    stats = fleet.per_worker(
        {"v": PROTOCOL_VERSION, "verb": "stats", "scope": "local"}
    )
    for worker_stats in stats:
        for tenant in ("t1", "t2"):
            described = worker_stats["tenants"][tenant]
            assert described["artifact_generation"] == generation
            assert described["image"] == f"gen-{generation:04d}"
        mapped = worker_stats["memory"]["mapped"]
        assert any(
            row["name"].endswith(f"gen-{generation:04d}/catalogs.npz")
            for row in mapped
        ), mapped
    for worker in fleet.ready["workers"]:
        with EstimationClient(fleet.host, worker["direct_port"]) as client:
            for tenant in ("t1", "t2"):
                for index, text in enumerate(QUERIES):
                    served = client.estimate(tenant, text, SPECS)
                    for position, spec in enumerate(SPECS):
                        expected, error = reference[
                            index * len(SPECS) + position
                        ]
                        if error is None:
                            assert served["estimates"][spec] == expected
                        else:
                            assert served["errors"][spec] == error


class TestFleetGenerations:
    def test_swaps_under_load_converge_and_leak_nothing(
        self, fleet, artifact_dir
    ):
        store = StatisticsStore.load(artifact_dir, graph=running_example_graph())
        failures: list[str] = []
        stop = threading.Event()

        def hammer() -> None:
            with FleetClient(fleet.host, fleet.port, timeout=30.0) as client:
                while not stop.is_set():
                    try:
                        client.estimate("t1", QUERIES[0], SPECS)
                    except Exception as error:  # noqa: BLE001
                        failures.append(repr(error))

        threads = [threading.Thread(target=hammer) for _ in range(2)]
        for thread in threads:
            thread.start()
        try:
            with FleetClient(fleet.host, fleet.port) as client:
                for seed in range(3):
                    apply_offline(store, artifact_dir, seed)
                    for tenant in ("t1", "t2"):
                        swap = client.apply_deltas(tenant)
                        assert swap["ok"], swap
        finally:
            stop.set()
            for thread in threads:
                thread.join(30.0)
        assert not any(thread.is_alive() for thread in threads)
        assert not failures, failures[:5]
        assert_workers_serve(fleet, estimates_of(store), generation=3)
        with FleetClient(fleet.host, fleet.port) as client:
            client.shutdown()
        code, stderr = fleet.finish()
        assert code == 0 and stderr == ""
        assert images(artifact_dir) == ["gen-0002", "gen-0003"]
        assert not [p for p in artifact_dir.iterdir() if ".tmp-" in p.name]

    def test_sigkill_mid_swap_storm_restarted_worker_converges(
        self, fleet, artifact_dir
    ):
        store = StatisticsStore.load(artifact_dir, graph=running_example_graph())
        victim = fleet.worker_pids()[0]
        outcomes: list[str] = []

        def storm() -> None:
            with FleetClient(fleet.host, fleet.port, timeout=30.0) as inner:
                for seed in range(4):
                    apply_offline(store, artifact_dir, seed)
                    for tenant in ("t1", "t2"):
                        try:
                            inner.apply_deltas(tenant)
                            outcomes.append("ok")
                        except (ServerError, ServerUnavailable, OSError):
                            outcomes.append("transient")  # dying worker

        thread = threading.Thread(target=storm)
        thread.start()
        time.sleep(0.05)
        os.kill(victim, signal.SIGKILL)
        thread.join(120.0)
        assert not thread.is_alive()
        fleet.wait_event(
            lambda e: e["event"] == "worker-started" and e["index"] == 0, 60.0
        )
        wait_until_ready(fleet.host, fleet.port, timeout=30.0)
        # The restarted worker caught up from its fork-time snapshot to
        # the newest generation on disk; the survivor swapped live.  A
        # swap the SIGKILL swallowed is repaired by one more fan-out.
        with FleetClient(fleet.host, fleet.port) as client:
            for tenant in ("t1", "t2"):
                client.apply_deltas(tenant)
        assert_workers_serve(fleet, estimates_of(store), generation=4)
        with FleetClient(fleet.host, fleet.port) as client:
            client.shutdown()
        code, stderr = fleet.finish()
        assert code == 0 and stderr == ""
        assert images(artifact_dir) == ["gen-0003", "gen-0004"]
