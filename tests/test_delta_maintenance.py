"""The dynamic-graph differential gate.

For randomized insert/delete batches on the example dataset, every
catalog in the incrementally maintained store must be bit-identical to
``build_statistics`` run cold on the mutated graph, and all nine §4.2
estimators plus MOLP must return identical floats through both stores —
in-process and via a live-refreshed server tenant.
"""

from __future__ import annotations

import random

import pytest

from repro.datasets.presets import running_example_graph
from repro.delta import (
    MutableGraphOverlay,
    UpdateBatch,
    apply_updates,
    random_update_batch,
    replay_graph,
)
from repro.errors import DatasetError
from repro.query.parser import parse_pattern
from repro.service.session import EstimatorSpec
from repro.stats import StatisticsStore, StatsBuildConfig, build_statistics
from repro.stats.artifact import dataset_fingerprint

NINE_PLUS_MOLP = tuple(
    f"{'all-hops' if hop == 'all' else hop + '-hop'}-{aggr}"
    for hop in ("max", "min", "all")
    for aggr in ("max", "min", "avg")
) + ("MOLP",)

QUERIES = [
    "a -[A]-> b -[B]-> c",
    "x -[B]-> y -[C]-> z",
    "p -[A]-> q",
    "u -[B]-> v -[D]-> w",
    "s -[E]-> t",
]

#: Forces the incremental path even for batches that are large relative
#: to the 18-edge example graph.
NO_COMPACT = 100.0


def example_store(**config):
    graph = running_example_graph()
    return build_statistics(
        graph,
        StatsBuildConfig(h=2, molp_h=2, **config),
        dataset_name="example",
    )


def mutated_graph(base, batch):
    overlay = MutableGraphOverlay(base)
    overlay.apply_batch(batch)
    return overlay.materialize()


def assert_catalogs_bit_identical(maintained, cold):
    assert maintained.markov.to_artifact() == cold.markov.to_artifact()
    assert maintained.degrees.to_artifact() == cold.degrees.to_artifact()
    if maintained.characteristic_sets is not None:
        assert (
            maintained.characteristic_sets.to_artifact()
            == cold.characteristic_sets.to_artifact()
        )
    if maintained.sumrdf is not None:
        # Same process, same seed: bucketing is reproducible here.
        fresh = maintained.sumrdf.to_artifact()
        against = cold.sumrdf.to_artifact()
        assert fresh["labels"] == against["labels"]
        assert (fresh["sizes"] == against["sizes"]).all()
        assert (fresh["matrices"] == against["matrices"]).all()


def assert_estimates_identical(maintained, cold, queries=QUERIES):
    session_a = maintained.session()
    session_b = cold.session()
    for text in queries:
        query = parse_pattern(text)
        for name in NINE_PLUS_MOLP:
            spec = EstimatorSpec.from_name(name)
            a = session_a.estimate_one(query, spec)
            b = session_b.estimate_one(query, spec)
            assert a.ok == b.ok, (text, name, a.error, b.error)
            if a.ok:
                assert a.estimate == b.estimate, (text, name)


class TestDifferentialGate:
    @pytest.mark.parametrize("seed", range(8))
    def test_randomized_batches_match_cold_rebuild(self, seed):
        rng = random.Random(seed)
        graph = running_example_graph()
        store = example_store()
        batch = random_update_batch(
            graph, rng, num_inserts=5, num_deletes=5, new_label_rate=0.2
        )
        outcome = apply_updates(store, batch, compact_threshold=NO_COMPACT)
        assert outcome.mode == "incremental"
        cold = build_statistics(
            mutated_graph(graph, batch),
            StatsBuildConfig(h=2, molp_h=2),
            dataset_name="example",
        )
        assert store.manifest.dataset_fingerprint == dataset_fingerprint(
            cold.graph
        )
        assert_catalogs_bit_identical(store, cold)
        assert_estimates_identical(store, cold)

    def test_insert_makes_pattern_appear(self):
        # B->A paths do not exist in the example graph; inserting an A
        # edge out of the B layer creates the two-atom pattern, which a
        # complete artifact must discover.
        store = example_store(baselines=False)
        batch = UpdateBatch([["+", 5, 3, "A"]])
        apply_updates(store, batch, compact_threshold=NO_COMPACT)
        cold = build_statistics(
            mutated_graph(running_example_graph(), batch),
            StatsBuildConfig(h=2, molp_h=2, baselines=False),
        )
        assert_catalogs_bit_identical(store, cold)
        query = parse_pattern("x -[B]-> y -[A]-> z")
        item = store.session().estimate_one(
            query, EstimatorSpec.from_name("max-hop-max")
        )
        assert item.ok and item.estimate > 0.0

    def test_delete_makes_pattern_vanish(self):
        # Deleting every C edge empties all C-containing patterns; a
        # complete artifact must drop them (cold builds never store 0).
        graph = running_example_graph()
        store = example_store(baselines=False)
        batch = UpdateBatch(
            [["-", s, d, label] for s, d, label in graph.triples()
             if label == "C"]
        )
        apply_updates(store, batch, compact_threshold=NO_COMPACT)
        cold = build_statistics(
            mutated_graph(graph, batch),
            StatsBuildConfig(h=2, molp_h=2, baselines=False),
        )
        assert_catalogs_bit_identical(store, cold)
        assert all(
            "C" not in {label for _, _, label in key}
            for key in store.markov._cache
        )
        assert_estimates_identical(store, cold)

    def test_new_label_extends_universe(self):
        store = example_store(baselines=False)
        batch = UpdateBatch([["+", 0, 1, "ZX"], ["+", 1, 3, "ZX"]])
        apply_updates(store, batch, compact_threshold=NO_COMPACT)
        cold = build_statistics(
            mutated_graph(running_example_graph(), batch),
            StatsBuildConfig(h=2, molp_h=2, baselines=False),
        )
        assert store.markov.labels == cold.graph.labels
        assert_catalogs_bit_identical(store, cold)

    def test_noop_batch_changes_nothing(self):
        store = example_store(baselines=False)
        before = store.markov.to_artifact()
        outcome = apply_updates(
            store,
            UpdateBatch([["+", 0, 3, "A"], ["-", 9, 9, "Q"]]),
            compact_threshold=NO_COMPACT,
        )
        assert outcome.mode == "noop"
        assert store.markov.to_artifact() == before
        assert store.manifest.generation == 0

    def test_compaction_threshold_triggers_cold_rebuild(self):
        store = example_store()
        batch = random_update_batch(
            running_example_graph(), random.Random(1), 6, 6
        )
        outcome = apply_updates(store, batch, compact_threshold=0.1)
        assert outcome.mode == "compacted"
        cold = build_statistics(
            mutated_graph(running_example_graph(), batch),
            StatsBuildConfig(h=2, molp_h=2),
            dataset_name="example",
        )
        assert_catalogs_bit_identical(store, cold)

    def test_budgeted_store_refuses_maintenance(self):
        graph = running_example_graph()
        store = build_statistics(
            graph, StatsBuildConfig(h=2, molp_h=2, count_budget=10_000)
        )
        with pytest.raises(DatasetError, match="budget"):
            apply_updates(store, UpdateBatch([["+", 0, 5, "B"]]))

    def test_graph_free_store_refuses_maintenance(self, tmp_path):
        store = example_store(baselines=False)
        store.save(tmp_path)
        loaded = StatisticsStore.load(tmp_path)
        with pytest.raises(DatasetError, match="base graph"):
            apply_updates(loaded, UpdateBatch([["+", 0, 5, "B"]]))


class TestWorkloadDirectedStores:
    def workload(self):
        return [
            parse_pattern("a -[A]-> b -[B]-> c"),
            parse_pattern("x -[B]-> y -[C]-> z"),
            parse_pattern("u -[E]-> v"),
        ]

    def test_maintains_exactly_the_stored_keys(self):
        graph = running_example_graph()
        config = StatsBuildConfig(h=2, molp_h=2, baselines=False)
        store = build_statistics(graph, config, workload=self.workload())
        batch = UpdateBatch(
            [["-", 3, 5, "B"], ["+", 0, 5, "B"], ["+", 12, 0, "A"]]
        )
        outcome = apply_updates(store, batch, compact_threshold=NO_COMPACT)
        assert outcome.mode == "incremental"
        cold = build_statistics(
            mutated_graph(graph, batch), config, workload=self.workload()
        )
        assert_catalogs_bit_identical(store, cold)
        assert_estimates_identical(
            store, cold, queries=["a -[A]-> b -[B]-> c", "u -[E]-> v"]
        )

    def test_zero_counts_stay_stored(self):
        graph = running_example_graph()
        config = StatsBuildConfig(h=2, molp_h=2, baselines=False)
        store = build_statistics(graph, config, workload=self.workload())
        batch = UpdateBatch(
            [["-", s, d, label] for s, d, label in graph.triples()
             if label == "E"]
        )
        apply_updates(store, batch, compact_threshold=NO_COMPACT)
        cold = build_statistics(
            mutated_graph(graph, batch), config, workload=self.workload()
        )
        # Workload-directed artifacts pin zero counts explicitly.
        key = next(
            key for key in cold.markov._cache
            if {label for _, _, label in key} == {"E"}
        )
        assert cold.markov._cache[key] == 0.0
        assert store.markov._cache[key] == 0.0
        assert_catalogs_bit_identical(store, cold)


class TestRefreshedCatalogs:
    """Cycle rates and entropy: refreshed deterministically, ledger'd.

    These statistics cannot be patched bit-identically to a cold
    workload-order rebuild (sampling order / CEG exploration depend on
    the whole graph), so maintenance recomputes them deterministically
    and says so in the staleness ledger.
    """

    def build(self):
        workload = [
            parse_pattern(
                "a -[A]-> b -[B]-> c -[C]-> d, a -[E]-> d"
            ),  # a 4-cycle: primes a closing rate at h=2
            parse_pattern("x -[B]-> y -[C]-> z"),
        ]
        graph = running_example_graph()
        store = build_statistics(
            graph,
            StatsBuildConfig(
                h=2, molp_h=2, baselines=False, cycle_rates=True,
                entropy=True, cycle_seed=3,
            ),
            workload=workload,
        )
        assert store.cycle_rates is not None and store.cycle_rates.num_entries
        assert store.entropy is not None and store.entropy.num_entries
        return graph, store

    def test_refresh_is_deterministic_and_ledgered(self):
        _, store_a = self.build()
        _, store_b = self.build()
        batch = UpdateBatch([["+", 0, 5, "B"], ["-", 2, 4, "A"]])
        out_a = apply_updates(store_a, batch, compact_threshold=NO_COMPACT)
        out_b = apply_updates(store_b, batch, compact_threshold=NO_COMPACT)
        assert out_a.mode == "incremental"
        assert "resampled" in out_a.ledger["cycle_rates"]
        assert "recomputed" in out_a.ledger["entropy"]
        assert (
            store_a.cycle_rates.to_artifact()
            == store_b.cycle_rates.to_artifact()
        )
        assert (
            store_a.entropy.to_artifact() == store_b.entropy.to_artifact()
        )
        # The rate specs (walk shapes) survive; only values resample.
        _, fresh = self.build()
        assert set(store_a.cycle_rates._cache) == set(fresh.cycle_rates._cache)

    def test_threshold_crossing_stays_incremental_and_says_so(self):
        """Workload-primed catalogs cannot be cold-rebuilt without the
        workload, so the compaction fallback is skipped — loudly."""
        _, store = self.build()
        batch = random_update_batch(
            running_example_graph(), random.Random(5), 6, 6
        )
        outcome = apply_updates(store, batch, compact_threshold=0.01)
        assert outcome.mode == "incremental"
        assert "compact_threshold" in outcome.ledger["compaction"]

    def test_refreshed_catalogs_replay_from_delta_file(self, tmp_path):
        graph, store = self.build()
        store.save(tmp_path)
        store = StatisticsStore.load(tmp_path, graph=graph)
        batch = UpdateBatch([["+", 0, 5, "B"], ["-", 2, 4, "A"]])
        apply_updates(
            store, batch, directory=tmp_path, compact_threshold=NO_COMPACT
        )
        reloaded = StatisticsStore.load(tmp_path)
        assert (
            reloaded.cycle_rates.to_artifact()
            == store.cycle_rates.to_artifact()
        )
        assert reloaded.entropy.to_artifact() == store.entropy.to_artifact()
        assert reloaded.markov.to_artifact() == store.markov.to_artifact()
        # '+ocr' estimates serve identically from the replayed artifact.
        query = parse_pattern("a -[A]-> b -[B]-> c -[C]-> d, a -[E]-> d")
        spec = EstimatorSpec.from_name("max-hop-max+ocr")
        served = reloaded.session().estimate_one(query, spec)
        direct = store.session().estimate_one(query, spec)
        assert served.ok and direct.ok
        assert served.estimate == direct.estimate


class TestDeltaChainsOnDisk:
    def test_chain_publishes_one_image_per_generation(self, tmp_path):
        graph = running_example_graph()
        store = example_store()
        store.save(tmp_path)
        rng = random.Random(11)
        current = graph
        for _ in range(3):
            store = StatisticsStore.load(tmp_path, graph=current)
            batch = random_update_batch(current, rng, 3, 2)
            apply_updates(
                store, batch, directory=tmp_path,
                compact_threshold=NO_COMPACT,
            )
            current = store.graph
        cold = build_statistics(
            current, StatsBuildConfig(h=2, molp_h=2), dataset_name="example"
        )
        reloaded = StatisticsStore.load(tmp_path)
        assert reloaded.manifest.generation == 3
        assert reloaded.manifest.image == "gen-0003"
        assert reloaded.markov.to_artifact() == cold.markov.to_artifact()
        assert reloaded.degrees.to_artifact() == cold.degrees.to_artifact()
        assert_estimates_identical(reloaded, cold)
        # The current image and the previous one stay; older are pruned.
        assert sorted(p.name for p in tmp_path.glob("gen-*")) == [
            "gen-0002", "gen-0003",
        ]
        # The update logs stay too: the graph is re-derivable from the
        # base dataset.
        replayed = replay_graph(graph, tmp_path)
        assert dataset_fingerprint(replayed) == dataset_fingerprint(current)

    def test_in_memory_apply_then_save_is_loadable(self, tmp_path):
        """directory=None persists no update log; a later save() still
        publishes a complete image that loads on its own."""
        graph = running_example_graph()
        store = example_store(baselines=False)
        apply_updates(
            store,
            UpdateBatch([["+", 0, 5, "B"]]),
            compact_threshold=NO_COMPACT,
        )
        store.save(tmp_path)
        loaded = StatisticsStore.load(tmp_path)
        assert loaded.manifest.generation == 1
        assert loaded.markov.to_artifact() == store.markov.to_artifact()
        # Graph re-derivation is honestly refused: no log was persisted.
        with pytest.raises(DatasetError, match="in-memory"):
            replay_graph(graph, tmp_path)

    def test_fingerprint_checked_against_mutated_graph(self, tmp_path):
        graph = running_example_graph()
        store = example_store(baselines=False)
        store.save(tmp_path)
        store = StatisticsStore.load(tmp_path, graph=graph)
        apply_updates(
            store,
            UpdateBatch([["+", 0, 5, "B"]]),
            directory=tmp_path,
            compact_threshold=NO_COMPACT,
        )
        # The pre-update graph no longer matches the artifact.
        with pytest.raises(DatasetError, match="different dataset"):
            StatisticsStore.load(tmp_path, graph=graph)
        StatisticsStore.load(tmp_path, graph=store.graph)

    def test_broken_lineage_is_rejected(self, tmp_path):
        graph = running_example_graph()
        store = example_store(baselines=False)
        store.save(tmp_path)
        store = StatisticsStore.load(tmp_path, graph=graph)
        apply_updates(
            store,
            UpdateBatch([["+", 0, 5, "B"]]),
            directory=tmp_path,
            compact_threshold=NO_COMPACT,
        )
        manifest_path = tmp_path / "manifest.json"
        import json

        payload = json.loads(manifest_path.read_text())
        payload["deltas"][0]["parent_fingerprint"] = "bogus"
        manifest_path.write_text(json.dumps(payload))
        with pytest.raises(DatasetError, match="lineage"):
            StatisticsStore.load(tmp_path)
