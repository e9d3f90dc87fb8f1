"""Live tenant refresh: the serving tier picks up delta chains.

Covers the registry's ``apply_deltas`` generation swap, the
``apply_deltas`` wire verb, the extended ``stats`` verb fields
(artifact generation, fingerprints, last-reload/last-delta timestamps)
and the served-floats half of the differential gate: estimates from a
live-refreshed tenant equal a cold in-process rebuild on the mutated
graph, bit for bit.
"""

from __future__ import annotations

import threading

import pytest

from repro.datasets.presets import running_example_graph
from repro.delta import UpdateBatch, apply_updates
from repro.errors import DatasetError
from repro.query.parser import parse_pattern
from repro.server import EstimationClient, ServerError, StoreRegistry, ThreadedServer
from repro.service.session import EstimatorSpec
from repro.stats import StatisticsStore, StatsBuildConfig, build_statistics

NINE_PLUS_MOLP = tuple(
    f"{'all-hops' if hop == 'all' else hop + '-hop'}-{aggr}"
    for hop in ("max", "min", "all")
    for aggr in ("max", "min", "avg")
) + ("MOLP",)

BATCH = UpdateBatch(
    [["+", 0, 5, "B"], ["-", 3, 5, "B"], ["+", 6, 8, "C"], ["+", 12, 0, "A"]]
)


@pytest.fixture()
def artifact_dir(tmp_path):
    store = build_statistics(
        running_example_graph(),
        StatsBuildConfig(h=2, molp_h=2),
        dataset_name="example",
    )
    store.save(tmp_path)
    return tmp_path


def apply_batch_offline(artifact_dir, batch=BATCH):
    """What `repro updates apply` does, in-process for speed."""
    store = StatisticsStore.load(artifact_dir, graph=running_example_graph())
    outcome = apply_updates(
        store, batch, directory=artifact_dir, compact_threshold=100.0
    )
    return store, outcome


class TestRegistryApplyDeltas:
    def test_noop_when_current(self, artifact_dir):
        registry = StoreRegistry()
        entry = registry.load("example", artifact_dir)
        refreshed, applied = registry.apply_deltas("example")
        assert applied == 0
        assert refreshed is entry

    def test_refresh_applies_pending_generations(self, artifact_dir):
        registry = StoreRegistry()
        old = registry.load("example", artifact_dir)
        store, _ = apply_batch_offline(artifact_dir)
        refreshed, applied = registry.apply_deltas("example")
        assert applied == 1
        assert refreshed.generation == old.generation + 1
        assert refreshed.store.manifest.generation == 1
        assert refreshed.fingerprint == store.manifest.dataset_fingerprint
        # Copy-on-write: the superseded entry still serves the old data.
        assert old.store.manifest.generation == 0
        assert old.fingerprint != refreshed.fingerprint
        assert (
            old.store.markov.to_artifact()
            != refreshed.store.markov.to_artifact()
        )

    def test_refresh_matches_cold_rebuild_floats(self, artifact_dir):
        registry = StoreRegistry()
        registry.load("example", artifact_dir)
        store, _ = apply_batch_offline(artifact_dir)
        refreshed, _ = registry.apply_deltas("example")
        cold = build_statistics(store.graph, StatsBuildConfig(h=2, molp_h=2))
        session = cold.session()
        for text in ("a -[A]-> b -[B]-> c", "x -[B]-> y -[C]-> z"):
            query = parse_pattern(text)
            for name in NINE_PLUS_MOLP:
                spec = EstimatorSpec.from_name(name)
                served = refreshed.session.estimate_one(query, spec)
                expected = session.estimate_one(query, spec)
                assert served.ok and expected.ok, (text, name)
                assert served.estimate == expected.estimate, (text, name)

    def test_unknown_tenant_raises(self, artifact_dir):
        registry = StoreRegistry()
        with pytest.raises(DatasetError, match="unknown tenant"):
            registry.apply_deltas("nope")

    def test_concurrent_reload_during_refresh_raises(
        self, artifact_dir, monkeypatch
    ):
        """A refresh must never publish over a concurrent reload.

        The refresh maps the newest generation of the directory the
        tenant served when the call began; if a reload swaps the tenant
        meanwhile (possibly to another directory), quietly publishing
        would revert it under a higher generation.
        """
        import repro.server.registry as registry_module

        registry = StoreRegistry()
        registry.load("example", artifact_dir)
        apply_batch_offline(artifact_dir)
        original = registry_module.StatisticsStore.load
        raced = []

        def load_and_race(directory, *args, **kwargs):
            store = original(directory, *args, **kwargs)
            if not raced:  # the reload's own load must not race again
                raced.append(True)
                # Simulate a reload winning the race mid-swap.
                registry.reload("example", allow_fingerprint_change=True)
            return store

        monkeypatch.setattr(
            registry_module.StatisticsStore, "load", load_and_race
        )
        with pytest.raises(DatasetError, match="changed during"):
            registry.apply_deltas("example")
        # The reload's entry survived untouched.
        assert registry.get("example").store.manifest.generation == 1


class TestServerVerb:
    def test_live_refresh_over_the_wire(self, artifact_dir):
        registry = StoreRegistry()
        registry.load("example", artifact_dir)
        with ThreadedServer(registry) as server:
            with EstimationClient(server.host, server.port) as client:
                noop = client.apply_deltas("example")
                assert noop["applied"] == 0

                store, _ = apply_batch_offline(artifact_dir)
                refreshed = client.apply_deltas("example")
                assert refreshed["applied"] == 1
                assert refreshed["artifact_generation"] == 1
                assert (
                    refreshed["fingerprint"]
                    == store.manifest.dataset_fingerprint
                )

                cold = build_statistics(
                    store.graph, StatsBuildConfig(h=2, molp_h=2)
                )
                session = cold.session()
                query = parse_pattern("a -[A]-> b -[B]-> c")
                result = client.estimate(
                    "example", "a -[A]-> b -[B]-> c", NINE_PLUS_MOLP
                )
                assert not result["errors"]
                for name, value in result["estimates"].items():
                    expected = session.estimate_one(
                        query, EstimatorSpec.from_name(name)
                    )
                    assert expected.ok and expected.estimate == value, name

                stats = client.stats()["tenants"]["example"]
                assert stats["artifact_generation"] == 1
                assert stats["generation"] == 2
                assert stats["base_fingerprint"] != stats["fingerprint"]
                assert stats["last_delta_at"] is not None
                assert stats["last_reload_at"] is not None

    def test_unknown_tenant_is_exit_2(self, artifact_dir):
        registry = StoreRegistry()
        registry.load("example", artifact_dir)
        with ThreadedServer(registry) as server:
            with EstimationClient(server.host, server.port) as client:
                with pytest.raises(ServerError) as info:
                    client.apply_deltas("nope")
                assert info.value.code == "unknown_tenant"
                assert info.value.exit_code == 2

    def test_refresh_mid_traffic_never_fails_requests(self, artifact_dir):
        """Hammer estimates while a delta refresh swaps the tenant."""
        registry = StoreRegistry()
        registry.load("example", artifact_dir)
        apply_batch_offline(artifact_dir)
        errors: list[Exception] = []
        stop = threading.Event()

        def hammer():
            try:
                with EstimationClient(server.host, server.port) as client:
                    while not stop.is_set():
                        result = client.estimate(
                            "example", "a -[A]-> b -[B]-> c", ["max-hop-max"]
                        )
                        assert result["estimates"]
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        with ThreadedServer(registry) as server:
            threads = [threading.Thread(target=hammer) for _ in range(4)]
            for thread in threads:
                thread.start()
            try:
                with EstimationClient(server.host, server.port) as client:
                    refreshed = client.apply_deltas("example")
                    assert refreshed["applied"] == 1
            finally:
                stop.set()
                for thread in threads:
                    thread.join(30)
        assert not errors
