"""The dynamic-graph differential gate.

For randomized insert/delete batches on the example dataset, every
catalog in the incrementally maintained store must be bit-identical to
``build_statistics`` run cold on the mutated graph, and all nine §4.2
estimators plus MOLP must return identical floats through both stores —
in-process and via a live-refreshed server tenant.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.catalog.degrees import key_arity
from repro.datasets.presets import running_example_graph
from repro.delta import (
    MutableGraphOverlay,
    UpdateBatch,
    apply_updates,
    random_update_batch,
    replay_graph,
)
from repro.errors import DatasetError
from repro.graph import LabeledDiGraph
from repro.query.parser import parse_pattern
from repro.service.session import EstimatorSpec
from repro.stats import StatisticsStore, StatsBuildConfig, build_statistics
from repro.stats.artifact import dataset_fingerprint
from repro.stats.flatpack import degree_images_equal

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
    assert degree_images_equal(maintained.degrees, cold.degrees)


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


def gate_cases():
    """Seeds 0-7 under each (h, molp_h); h=3 grows discovery past one
    level, where seeded children with equal keys must not be merged."""
    for h, molp_h in ((2, 2), (3, 3), (3, 2), (2, 3)):
        for seed in range(8):
            name = str(seed) if h == molp_h == 2 else f"h{h}-molp{molp_h}-{seed}"
            yield pytest.param(h, molp_h, seed, id=name)


def random_small_graph(seed):
    """18 random triples over labels A-C on 8 vertices."""
    rng = random.Random(seed)
    triples = {
        (rng.randrange(8), rng.randrange(8), rng.choice("ABC"))
        for _ in range(18)
    }
    return LabeledDiGraph.from_triples(sorted(triples), num_vertices=8)


def overflow_cases():
    """The example graph and 20 random graphs under each (h, molp_h)
    whose maintenance can revisit every overflowed relation."""
    for h, molp_h in ((2, 2), (3, 3), (3, 2)):
        for seed in [None, *range(20)]:
            name = "example" if seed is None else f"random{seed}"
            yield pytest.param(h, molp_h, seed, id=f"h{h}-molp{molp_h}-{name}")


class TestOverflowGate:
    """Under a small ``max_rows``, maintained equals cold bit for bit.

    Whether a match table overflows depends on the order its atoms join;
    every table grows along its key's canonical parent chain, so the
    maintained and cold stores hold the same relation sets and flags.
    """

    @pytest.mark.parametrize("h, molp_h, seed", overflow_cases())
    def test_maintained_store_matches_cold_under_max_rows(
        self, h, molp_h, seed
    ):
        graph = (
            running_example_graph() if seed is None
            else random_small_graph(seed)
        )
        for max_rows in (6, 10, 16):
            config = StatsBuildConfig(h=h, molp_h=molp_h, max_rows=max_rows)
            store = build_statistics(graph, config)
            batch = random_update_batch(
                graph, random.Random((seed or 0) * 31 + max_rows),
                num_inserts=4, num_deletes=3,
            )
            apply_updates(store, batch, compact_threshold=NO_COMPACT)
            cold = build_statistics(mutated_graph(graph, batch), config)
            assert_catalogs_bit_identical(store, cold)
            assert store.markov.complete == cold.markov.complete, max_rows
            assert store.degrees.complete == cold.degrees.complete, max_rows


class TestDifferentialGate:
    @pytest.mark.parametrize("h, molp_h, seed", gate_cases())
    def test_randomized_batches_match_cold_rebuild(self, h, molp_h, seed):
        rng = random.Random(seed)
        graph = running_example_graph()
        config = StatsBuildConfig(h=h, molp_h=molp_h)
        store = build_statistics(graph, config, dataset_name="example")
        batch = random_update_batch(
            graph, rng, num_inserts=5, num_deletes=5, new_label_rate=0.2
        )
        outcome = apply_updates(store, batch, compact_threshold=NO_COMPACT)
        assert outcome.mode == "incremental"
        cold = build_statistics(
            mutated_graph(graph, batch), config, dataset_name="example"
        )
        assert store.manifest.dataset_fingerprint == dataset_fingerprint(
            cold.graph
        )
        assert_catalogs_bit_identical(store, cold)
        assert_estimates_identical(store, cold)

    def test_random_small_graph_at_h3_matches_cold_rebuild(self):
        graph = random_small_graph(9)
        config = StatsBuildConfig(h=3, molp_h=3)
        store = build_statistics(graph, config)
        batch = random_update_batch(
            graph, random.Random(9), num_inserts=4, num_deletes=3,
            new_label_rate=0.2,
        )
        apply_updates(store, batch, compact_threshold=NO_COMPACT)
        cold = build_statistics(mutated_graph(graph, batch), config)
        assert_catalogs_bit_identical(store, cold)

    def test_overflowing_table_after_insert_matches_cold_rebuild(self):
        # Under max_rows=8 the inserted A edge pushes a two-atom match
        # table past the cap: the relation is dropped and the catalog
        # marked incomplete, exactly as a cold build does — which the
        # ledger may claim, since overflow depends on the key alone.
        config = StatsBuildConfig(h=2, molp_h=2, max_rows=8)
        graph = running_example_graph()
        store = build_statistics(graph, config)
        batch = UpdateBatch([["+", 2, 3, "A"]])
        outcome = apply_updates(store, batch, compact_threshold=NO_COMPACT)
        cold = build_statistics(mutated_graph(graph, batch), config)
        assert not cold.degrees.complete
        assert_catalogs_bit_identical(store, cold)
        assert not store.manifest.complete
        assert outcome.ledger["degrees"] == "exact"

    def test_overflowed_relation_returns_once_its_table_fits(self):
        config = StatsBuildConfig(h=2, molp_h=2, max_rows=8)
        base = running_example_graph()
        grown = mutated_graph(base, UpdateBatch([["+", 2, 3, "A"]]))
        store = build_statistics(grown, config)
        assert not store.degrees.complete
        outcome = apply_updates(
            store, UpdateBatch([["-", 2, 3, "A"]]),
            compact_threshold=NO_COMPACT,
        )
        cold = build_statistics(base, config)
        assert cold.degrees.complete
        assert_catalogs_bit_identical(store, cold)
        assert store.manifest.complete
        assert outcome.ledger["degrees"] == "exact"

    def test_unknown_overflows_of_larger_patterns_are_ledgered(self):
        # molp_h > h: a three-atom pattern whose table overflowed has no
        # Markov key, so maintenance cannot revisit it and must not
        # claim the relations match a cold rebuild.
        config = StatsBuildConfig(h=2, molp_h=3, max_rows=8)
        store = build_statistics(running_example_graph(), config)
        assert store.markov.complete and not store.degrees.complete
        outcome = apply_updates(
            store, UpdateBatch([["+", 5, 3, "A"]]),
            compact_threshold=NO_COMPACT,
        )
        assert not store.degrees.complete
        assert "cannot tell" in outcome.ledger["degrees"]

    def test_insert_makes_pattern_appear(self):
        # B->A paths do not exist in the example graph; inserting an A
        # edge out of the B layer creates the two-atom pattern, which a
        # complete artifact must discover.
        store = example_store()
        batch = UpdateBatch([["+", 5, 3, "A"]])
        apply_updates(store, batch, compact_threshold=NO_COMPACT)
        cold = build_statistics(
            mutated_graph(running_example_graph(), batch),
            StatsBuildConfig(h=2, molp_h=2),
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
        store = example_store()
        batch = UpdateBatch(
            [["-", s, d, label] for s, d, label in graph.triples()
             if label == "C"]
        )
        apply_updates(store, batch, compact_threshold=NO_COMPACT)
        cold = build_statistics(
            mutated_graph(graph, batch),
            StatsBuildConfig(h=2, molp_h=2),
        )
        assert_catalogs_bit_identical(store, cold)
        assert all(
            "C" not in {label for _, _, label in key}
            for key in store.markov._cache
        )
        assert_estimates_identical(store, cold)

    def test_new_label_extends_universe(self):
        store = example_store()
        batch = UpdateBatch([["+", 0, 1, "ZX"], ["+", 1, 3, "ZX"]])
        apply_updates(store, batch, compact_threshold=NO_COMPACT)
        cold = build_statistics(
            mutated_graph(running_example_graph(), batch),
            StatsBuildConfig(h=2, molp_h=2),
        )
        assert store.markov.labels == cold.graph.labels
        assert_catalogs_bit_identical(store, cold)

    def test_noop_batch_changes_nothing(self):
        store = example_store()
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
        store = example_store()
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
        config = StatsBuildConfig(h=2, molp_h=2)
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
        config = StatsBuildConfig(h=2, molp_h=2)
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
    """Cycle rates: refreshed deterministically, ledger'd.

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
            StatsBuildConfig(h=2, molp_h=2, cycle_rates=True, cycle_seed=3),
            workload=workload,
        )
        assert store.cycle_rates is not None and store.cycle_rates.num_entries
        return graph, store

    def test_refresh_is_deterministic_and_ledgered(self):
        _, store_a = self.build()
        _, store_b = self.build()
        batch = UpdateBatch([["+", 0, 5, "B"], ["-", 2, 4, "A"]])
        out_a = apply_updates(store_a, batch, compact_threshold=NO_COMPACT)
        out_b = apply_updates(store_b, batch, compact_threshold=NO_COMPACT)
        assert out_a.mode == "incremental"
        assert "resampled" in out_a.ledger["cycle_rates"]
        assert (
            store_a.cycle_rates.to_artifact()
            == store_b.cycle_rates.to_artifact()
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
        assert degree_images_equal(reloaded.degrees, cold.degrees)
        assert_estimates_identical(reloaded, cold)
        # The current image and the previous one stay; older are pruned.
        assert sorted(p.name for p in tmp_path.glob("gen-*")) == [
            "gen-0002", "gen-0003",
        ]
        # The update logs stay too: the graph is re-derivable from the
        # base dataset.
        replayed = replay_graph(graph, tmp_path)
        assert dataset_fingerprint(replayed) == dataset_fingerprint(current)

    def test_writer_images_match_cold_builds(self, tmp_path):
        """One long-lived store (as a churn writer keeps) across applies.

        Every published image must equal a cold build + save of that
        generation's graph, although relations carried over from the
        loaded image are written back verbatim while rebuilt and new
        ones come from fresh match tables.
        """
        config = StatsBuildConfig(h=2, molp_h=2)
        graph = running_example_graph()
        artifact = tmp_path / "artifact"
        build_statistics(graph, config, dataset_name="example").save(artifact)
        store = StatisticsStore.load(artifact, graph=graph)
        store.markov.materialize()
        store.degrees.materialize()
        batches = [
            # B->A paths appear: relations are added and rebuilt.
            UpdateBatch([["+", 5, 3, "A"], ["+", 4, 3, "A"]]),
            # Every C edge goes: C-containing relations are removed.
            UpdateBatch(
                [["-", src, dst, label] for src, dst, label in graph.triples()
                 if label == "C"]
            ),
            random_update_batch(graph, random.Random(3), 3, 2),
            UpdateBatch([["+", 0, 9, "C"], ["-", 5, 3, "A"]]),
        ]
        totals = {"rebuilt": 0, "removed": 0, "added": 0, "kept": 0}
        for index, batch in enumerate(batches, start=1):
            outcome = apply_updates(
                store, batch, directory=artifact,
                compact_threshold=NO_COMPACT,
            )
            assert outcome.mode == "incremental"
            for name in totals:
                totals[name] += outcome.degrees[name]
            cold_dir = tmp_path / f"cold-{index}"
            build_statistics(
                store.graph, config, dataset_name="example"
            ).save(cold_dir)
            image = artifact / f"gen-{index:04d}"
            cold_image = cold_dir / "gen-0000"
            assert (image / "catalogs.meta.json").read_bytes() == (
                cold_image / "catalogs.meta.json"
            ).read_bytes()
            with np.load(image / "catalogs.npz") as got, np.load(
                cold_image / "catalogs.npz"
            ) as want:
                names = sorted(
                    name for name in want.files
                    if name.startswith(("degrees::", "markov::"))
                )
                assert sorted(
                    name for name in got.files
                    if name.startswith(("degrees::", "markov::"))
                ) == names
                for name in names:
                    assert got[name].dtype == want[name].dtype, name
                    assert got[name].tobytes() == want[name].tobytes(), name
        assert all(totals.values()), totals
        for key, relation in store.degrees._cache.items():
            assert relation.key == key
            assert relation.values.dtype == np.float64
            assert relation.values.shape == (3 ** key_arity(key),)

    def test_self_loop_relations_match_cold_image(self, tmp_path):
        """A rebuilt relation whose match table starts at a later atom
        (a self-loop joins as a closure) lands on the cold build's bytes
        and stays in the packed arrays."""
        triples = [
            (0, 0, "L"), (1, 1, "L"), (2, 0, "M"), (3, 0, "M"), (2, 1, "M"),
        ]
        graph = LabeledDiGraph.from_triples(triples, num_vertices=5)
        config = StatsBuildConfig(h=2, molp_h=2)
        store = build_statistics(graph, config)
        store.save(tmp_path / "maintained")
        outcome = apply_updates(
            store,
            UpdateBatch([["+", 4, 1, "M"], ["+", 3, 3, "L"]]),
            directory=tmp_path / "maintained",
            compact_threshold=NO_COMPACT,
        )
        assert outcome.degrees["rebuilt"] and outcome.degrees["added"]
        build_statistics(store.graph, config).save(tmp_path / "cold")
        for name in ("catalogs.meta.json", "catalogs.npz"):
            assert (tmp_path / "maintained" / "gen-0001" / name).read_bytes() == (
                tmp_path / "cold" / "gen-0000" / name
            ).read_bytes(), name

    def test_in_memory_apply_then_save_is_loadable(self, tmp_path):
        """directory=None persists no update log; a later save() still
        publishes a complete image that loads on its own."""
        graph = running_example_graph()
        store = example_store()
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
        store = example_store()
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
        store = example_store()
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
