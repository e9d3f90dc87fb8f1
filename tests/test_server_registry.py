"""StoreRegistry hot-reload semantics and the single-flight coalescer."""

import threading

import pytest

from repro.datasets.presets import running_example_graph
from repro.errors import DatasetError
from repro.server.coalescer import SingleFlight
from repro.server.registry import StoreRegistry
from repro.stats import StatsBuildConfig, build_statistics


@pytest.fixture(scope="module")
def artifact_dirs(tmp_path_factory):
    """Two saved versions of the example artifact + one other-dataset dir."""
    base = tmp_path_factory.mktemp("registry")
    store = build_statistics(
        running_example_graph(),
        StatsBuildConfig(h=2, molp_h=2),
        dataset_name="example",
    )
    store.save(base / "v1")
    store.save(base / "v2")
    from repro.graph.generators import generate_graph

    other = build_statistics(
        generate_graph(num_vertices=20, num_edges=60, num_labels=3, seed=3),
        StatsBuildConfig(h=2, molp_h=2),
        dataset_name="other",
    )
    other.save(base / "other")
    return base


class TestRegistry:
    def test_load_and_get(self, artifact_dirs):
        registry = StoreRegistry()
        entry = registry.load("example", artifact_dirs / "v1")
        assert entry.generation == 1
        assert registry.get("example") is entry
        assert registry.get("nope") is None
        assert registry.names() == ["example"]
        assert len(registry) == 1

    def test_load_missing_directory_is_friendly(self, artifact_dirs):
        registry = StoreRegistry()
        with pytest.raises(DatasetError, match="does not exist"):
            registry.load("example", artifact_dirs / "missing")

    def test_load_duplicate_name_rejected(self, artifact_dirs):
        registry = StoreRegistry()
        registry.load("example", artifact_dirs / "v1")
        with pytest.raises(DatasetError, match="already registered"):
            registry.load("example", artifact_dirs / "v2")

    def test_reload_swaps_atomically(self, artifact_dirs):
        registry = StoreRegistry()
        old = registry.load("example", artifact_dirs / "v1")
        new = registry.reload("example", artifact_dirs / "v2")
        assert new.generation == 2
        assert registry.get("example") is new
        assert new.session is not old.session
        # The old entry keeps serving for requests that captured it.
        from repro.query.parser import parse_pattern

        pattern = parse_pattern("a -[A]-> b")
        assert old.session.estimate(pattern) == new.session.estimate(pattern)

    def test_reload_default_path_rereads_current(self, artifact_dirs):
        registry = StoreRegistry()
        registry.load("example", artifact_dirs / "v1")
        entry = registry.reload("example")
        assert entry.generation == 2
        assert entry.path == artifact_dirs / "v1"

    def test_reload_unknown_tenant(self, artifact_dirs):
        registry = StoreRegistry()
        with pytest.raises(DatasetError, match="unknown tenant"):
            registry.reload("example", artifact_dirs / "v1")

    def test_reload_rejects_fingerprint_change(self, artifact_dirs):
        registry = StoreRegistry()
        registry.load("example", artifact_dirs / "v1")
        with pytest.raises(DatasetError, match="different dataset"):
            registry.reload("example", artifact_dirs / "other")
        # The failed reload left the old version serving.
        assert registry.get("example").generation == 1
        entry = registry.reload(
            "example", artifact_dirs / "other", allow_fingerprint_change=True
        )
        assert entry.generation == 2
        assert entry.store.manifest.dataset_name == "other"

    def test_bad_artifact_leaves_old_version_serving(
        self, artifact_dirs, tmp_path
    ):
        broken = tmp_path / "broken"
        broken.mkdir()
        (broken / "manifest.json").write_text("{not json", encoding="utf-8")
        registry = StoreRegistry()
        live = registry.load("example", artifact_dirs / "v1")
        with pytest.raises(DatasetError):
            registry.reload("example", broken)
        assert registry.get("example") is live

    def test_stats_shape(self, artifact_dirs):
        registry = StoreRegistry()
        registry.load("example", artifact_dirs / "v1")
        stats = registry.stats()
        payload = stats["example"]
        assert payload["generation"] == 1
        assert payload["dataset"] == "example"
        assert set(payload["cache"]) == {"skeletons", "estimates"}
        assert payload["fingerprint"]
        assert payload["h"] == 2

    def test_session_kwargs_survive_reload(self, artifact_dirs):
        registry = StoreRegistry(skeleton_capacity=3, estimate_capacity=5)
        registry.load("example", artifact_dirs / "v1")
        entry = registry.reload("example", artifact_dirs / "v2")
        assert entry.session.stats().skeletons.capacity == 3
        assert entry.session.stats().estimates.capacity == 5


class TestSingleFlight:
    def test_concurrent_callers_share_one_execution(self):
        flight = SingleFlight()
        calls = []
        enter = threading.Barrier(8)
        release = threading.Event()

        def work():
            calls.append(threading.get_ident())
            release.wait(5)
            return object()

        results = [None] * 8

        def run(slot):
            enter.wait(5)
            results[slot] = flight.run("key", lambda _publish: work()).value

        threads = [
            threading.Thread(target=run, args=(slot,)) for slot in range(8)
        ]
        for thread in threads:
            thread.start()
        # Give followers time to pile up behind the leader, then let it go.
        while flight.stats().followers < 7:
            if not any(thread.is_alive() for thread in threads):
                break
        release.set()
        for thread in threads:
            thread.join(10)
        assert len(calls) == 1, "exactly one leader ran the computation"
        assert all(result is results[0] for result in results), (
            "followers received the leader's object"
        )
        stats = flight.stats()
        assert stats.leaders == 1
        assert stats.followers == 7
        assert stats.calls == 8
        assert stats.in_flight == 0

    def test_different_keys_do_not_coalesce(self):
        flight = SingleFlight()
        assert flight.run("a", lambda _publish: 1).value == 1
        assert flight.run("b", lambda _publish: 2).value == 2
        stats = flight.stats()
        assert stats.leaders == 2
        assert stats.followers == 0

    def test_results_are_not_cached(self):
        flight = SingleFlight()
        flight.run("k", lambda _publish: 1)
        assert flight.run("k", lambda _publish: 2).value == 2, (
            "single-flight deduplicates concurrent work only; sequential "
            "calls each run (caching is the session LRU's job)"
        )

    def test_leader_failure_shared_then_forgotten(self):
        flight = SingleFlight()
        boom = ValueError("boom")
        started = threading.Event()
        release = threading.Event()

        def fail():
            started.set()
            release.wait(5)
            raise boom

        follower_error = []

        def follower():
            started.wait(5)
            try:
                flight.run("k", lambda _publish: fail())
            except ValueError as error:
                follower_error.append(error)

        thread = threading.Thread(target=follower)
        leader_error = []

        def leader():
            try:
                flight.run("k", lambda _publish: fail())
            except ValueError as error:
                leader_error.append(error)

        lead = threading.Thread(target=leader)
        lead.start()
        thread.start()
        while flight.stats().followers < 1 and thread.is_alive():
            pass
        release.set()
        lead.join(10)
        thread.join(10)
        assert leader_error == [boom]
        assert follower_error == [boom], "the follower saw the same failure"
        # Failures are never remembered: the next call is a fresh leader.
        assert flight.run("k", lambda _publish: 42).value == 42
