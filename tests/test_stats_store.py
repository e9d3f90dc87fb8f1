"""Artifact round-trips and graph-free serving for the statistics store.

The contract under test: for every catalog and both baseline summaries,
build → save → load → estimate is **bit-identical** (``==`` on floats)
to the never-persisted path, and a store loaded without a graph serves
estimates with zero engine calls — enforced by monkeypatching the
engine entry points to fail if touched.
"""

import json

import pytest

from repro.catalog.cycle_rates import CycleClosingRates
from repro.catalog.degrees import DegreeCatalog
from repro.catalog.markov import MarkovTable
from repro.core.ceg_m import molp_bound
from repro.core.estimators import (
    MolpEstimator,
    all_nine_estimators,
    estimators_from_store,
)
from repro.datasets.presets import running_example_graph
from repro.datasets.workloads import acyclic_workload, cyclic_workload
from repro.errors import DatasetError, MissingStatisticError
from repro.graph.generators import generate_graph
from repro.query import parse_pattern, templates
from repro.query.pattern import QueryPattern
from repro.stats import (
    StatisticsStore,
    StatsBuildConfig,
    build_statistics,
    extend_statistics,
    inspect_artifact,
)
from repro.stats.artifact import StoreManifest, dataset_fingerprint
from repro.stats.flatpack import degrees_from_flat, degrees_to_flat


@pytest.fixture(scope="module")
def example_graph():
    return running_example_graph()


@pytest.fixture(scope="module")
def q5f():
    return templates.fork(2, 3).with_labels(["A", "B", "C", "D", "E"])


@pytest.fixture(scope="module")
def cyclic_graph():
    return generate_graph(
        num_vertices=60, num_edges=300, num_labels=4, seed=11, closure=0.35
    )


@pytest.fixture(scope="module")
def cyclic_pool(cyclic_graph):
    queries = acyclic_workload(cyclic_graph, per_template=1, seed=5, sizes=(6,))
    queries += cyclic_workload(cyclic_graph, per_template=1, seed=5)
    return [query.pattern for query in queries]


# ----------------------------------------------------------------------
# Per-catalog artifact round-trips
# ----------------------------------------------------------------------

def _markov_round_trip(table, directory, graph=None):
    """``table`` as a store save/load round trip reads it back."""
    StatisticsStore(
        manifest=StoreManifest(
            dataset_fingerprint=dataset_fingerprint(table.graph),
            h=table.h,
            molp_h=1,
        ),
        markov=table,
        degrees=DegreeCatalog(None),
    ).save(directory)
    return StatisticsStore.load(directory, graph=graph).markov


class TestMarkovArtifact:
    def test_round_trip_bit_identical(self, example_graph, q5f, tmp_path):
        table = MarkovTable(example_graph, h=2)
        fresh = all_nine_estimators(table)
        baseline = {
            name: est.estimate(q5f) for name, est in fresh.items()
        }
        table.prime([parse_pattern("x -[A]-> y -[B]-> z")])
        loaded = _markov_round_trip(table, tmp_path, example_graph)
        assert loaded.num_entries == table.num_entries
        for name, est in all_nine_estimators(loaded).items():
            assert est.estimate(q5f) == baseline[name], name

    def test_graph_attached_load_stays_lazy(self, example_graph, tmp_path):
        table = MarkovTable(example_graph, h=2)
        loaded = _markov_round_trip(table, tmp_path, example_graph)
        assert loaded.num_entries == 0
        assert loaded.cardinality(parse_pattern("x -[A]-> y")) == 4.0

    def test_graph_free_complete_serves_miss_as_zero(
        self, example_graph, tmp_path
    ):
        table = MarkovTable(example_graph, h=2, labels=example_graph.labels,
                            complete=True)
        table.prime([parse_pattern("x -[A]-> y")])
        loaded = _markov_round_trip(table, tmp_path)
        assert loaded.graph is None
        assert loaded.cardinality(parse_pattern("x -[A]-> y")) == 4.0
        # Complete table: an unstored (empty) join reads as 0.
        assert loaded.cardinality(parse_pattern("x -[C]-> y -[A]-> z")) == 0.0

    def test_graph_free_incomplete_raises_on_miss(
        self, example_graph, tmp_path
    ):
        table = MarkovTable(example_graph, h=2, labels=example_graph.labels)
        table.prime([parse_pattern("x -[A]-> y")])
        loaded = _markov_round_trip(table, tmp_path)
        with pytest.raises(MissingStatisticError):
            loaded.cardinality(parse_pattern("x -[B]-> y"))
        # Unknown labels are empty relations even without completeness.
        assert loaded.cardinality(parse_pattern("x -[Z]-> y")) == 0.0


def _image_round_trip(catalog):
    """A graph-free catalog over the image arrays ``catalog`` writes."""
    meta, arrays = degrees_to_flat(catalog)
    return degrees_from_flat(meta, arrays)


class TestDegreesArtifact:
    def test_round_trip_bit_identical(self, cyclic_graph, cyclic_pool):
        catalog = DegreeCatalog(cyclic_graph, h=2)
        baseline = [molp_bound(q, catalog) for q in cyclic_pool]
        loaded = _image_round_trip(catalog)
        assert loaded.graph is None
        for query, expected in zip(cyclic_pool, baseline):
            assert molp_bound(query, loaded) == expected

    def test_renamed_view_of_stored_relation(self, example_graph):
        catalog = DegreeCatalog(example_graph, h=2)
        pattern = parse_pattern("x -[A]-> y -[B]-> z")
        relation = catalog.relation_for(pattern)
        loaded = _image_round_trip(catalog)
        renamed = parse_pattern("p -[A]-> q -[B]-> r")
        view = loaded.relation_for(renamed)
        for x, y in [
            (frozenset(), frozenset({"p"})),
            (frozenset({"q"}), frozenset({"q", "r"})),
        ]:
            translated_x = frozenset(v.translate(str.maketrans("pqr", "xyz"))
                                     for v in x)
            translated_y = frozenset(v.translate(str.maketrans("pqr", "xyz"))
                                     for v in y)
            assert view.deg(x, y) == relation.deg(translated_x, translated_y)

    def test_graph_free_miss_raises(self, example_graph):
        catalog = DegreeCatalog(example_graph, h=2)
        catalog.relation_for(parse_pattern("x -[A]-> y"))
        loaded = _image_round_trip(catalog)
        with pytest.raises(MissingStatisticError):
            loaded.relation_for(parse_pattern("x -[B]-> y"))

    def test_complete_graph_free_serves_empty_on_miss(self, example_graph):
        catalog = DegreeCatalog(example_graph, h=2, complete=True)
        loaded = _image_round_trip(catalog)
        relation = loaded.relation_for(parse_pattern("x -[Z]-> y"))
        assert relation.cardinality == 0.0
        assert relation.deg(frozenset(), frozenset({"x"})) == 0.0


class TestCycleRatesArtifact:
    def test_round_trip(self, cyclic_graph, cyclic_pool):
        store = build_statistics(
            cyclic_graph,
            StatsBuildConfig(h=2, cycle_rates=True, cycle_seed=3),
            workload=cyclic_pool,
        )
        rates = store.cycle_rates
        assert rates is not None and rates.num_entries > 0
        loaded = CycleClosingRates.from_artifact(rates.to_artifact())
        assert loaded.graph is None
        assert loaded.num_entries == rates.num_entries
        assert loaded._cache == rates._cache

    def test_graph_free_unstored_spec_fails_loudly(self):
        """An unprimed spec must not silently fall back to CEG_O weights
        (that would serve a different estimate than the graph-backed
        path); only a *stored* None keeps the shared fallback."""
        loaded = CycleClosingRates.from_artifact(
            {"format_version": 1, "entries": []}
        )
        triangle = QueryPattern(
            [("a", "b", "A"), ("b", "c", "B"), ("c", "a", "C")]
        )
        with pytest.raises(MissingStatisticError, match="cycle-closing"):
            loaded.rate(triangle, frozenset({0, 1, 2}), 2)

    def test_graph_free_stored_none_keeps_fallback(self, cyclic_graph):
        rates = CycleClosingRates(cyclic_graph, seed=3)
        triangle = QueryPattern(
            [("a", "b", "ZZZ"), ("b", "c", "ZZZ"), ("c", "a", "ZZZ")]
        )
        # Unknown label: sampling completes no walks, caching None.
        assert rates.rate(triangle, frozenset({0, 1, 2}), 2) is None
        loaded = CycleClosingRates.from_artifact(rates.to_artifact())
        assert loaded.rate(triangle, frozenset({0, 1, 2}), 2) is None


# ----------------------------------------------------------------------
# The store: bulk build, persistence, graph-free serving
# ----------------------------------------------------------------------

class TestBulkBuild:
    def test_full_enumeration_matches_lazy_counts(self, cyclic_graph):
        store = build_statistics(cyclic_graph, StatsBuildConfig(h=2))
        assert store.manifest.complete
        lazy = MarkovTable(cyclic_graph, h=2)
        assert store.markov.num_entries > 0
        for key, count in store.markov._cache.items():
            pattern = QueryPattern(
                (f"v{s}", f"v{d}", label) for s, d, label in key
            )
            assert lazy.cardinality(pattern) == count

    def test_workload_build_covers_workload(self, cyclic_graph, cyclic_pool):
        store = build_statistics(
            cyclic_graph, StatsBuildConfig(h=2), workload=cyclic_pool
        )
        assert not store.manifest.complete
        lazy = MarkovTable(cyclic_graph, h=2)
        suite = all_nine_estimators(store.markov)
        fresh = all_nine_estimators(lazy)
        for query in cyclic_pool:
            for name in suite:
                assert suite[name].estimate(query) == fresh[name].estimate(
                    query
                ), name

    def test_extend_statistics_adds_new_shapes(
        self, cyclic_graph, cyclic_pool, tmp_path
    ):
        store = build_statistics(
            cyclic_graph, StatsBuildConfig(h=2), workload=cyclic_pool[:1]
        )
        before = store.markov.num_entries
        extend_statistics(store, cyclic_graph, cyclic_pool)
        assert store.markov.num_entries >= before
        # After extension the whole workload is covered graph-free.
        directory = tmp_path / "extended"
        store.save(directory)
        loaded = StatisticsStore.load(directory)
        batch = loaded.session().estimate_batch(
            cyclic_pool, specs=["max-hop-max", "MOLP"]
        )
        assert batch.ok


class TestStorePersistence:
    def test_load_missing_directory_is_friendly(self, tmp_path):
        # Satellite: a missing artifact directory must be the friendly
        # DatasetError, never a raw FileNotFoundError.
        with pytest.raises(DatasetError, match="does not exist"):
            StatisticsStore.load(tmp_path / "nope")

    def test_load_directory_without_manifest_is_friendly(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        with pytest.raises(DatasetError, match="manifest.json"):
            StatisticsStore.load(empty)

    def test_load_missing_catalog_arrays_is_friendly(self, saved):
        _, directory = saved
        (directory / "gen-0000" / "catalogs.npz").unlink()
        with pytest.raises(DatasetError, match="catalogs.npz"):
            StatisticsStore.load(directory)

    def test_load_missing_npz_member_is_friendly(self, saved):
        from repro.stats.artifact import file_digest
        from repro.stats.flatpack import read_npz_arrays, write_stored_npz

        _, directory = saved
        path = directory / "gen-0000" / "catalogs.npz"
        arrays = read_npz_arrays(path)
        del arrays["degrees::cardinality"]
        write_stored_npz(path, arrays)
        # Re-record the digest, as a writer would, so the load reaches
        # the member lookup.
        manifest_path = directory / "manifest.json"
        payload = json.loads(manifest_path.read_text())
        payload["digests"]["catalogs.npz"] = file_digest(path)
        manifest_path.write_text(json.dumps(payload))
        with pytest.raises(DatasetError, match="degrees::cardinality"):
            StatisticsStore.load(directory)

    @pytest.fixture()
    def saved(self, cyclic_graph, cyclic_pool, tmp_path):
        store = build_statistics(
            cyclic_graph,
            StatsBuildConfig(h=2, cycle_rates=True, cycle_seed=3),
            workload=cyclic_pool,
            dataset_name="test",
        )
        directory = tmp_path / "artifact"
        store.save(directory)
        return store, directory

    def test_loaded_graph_free_store_matches_fresh_estimates(
        self, saved, cyclic_graph, cyclic_pool
    ):
        _, directory = saved
        loaded = StatisticsStore.load(directory)
        assert loaded.graph_free
        markov = MarkovTable(cyclic_graph, h=2)
        fresh = all_nine_estimators(markov)
        fresh["MOLP"] = MolpEstimator(cyclic_graph, h=2)
        suite = estimators_from_store(loaded)
        for query in cyclic_pool:
            for name, estimator in suite.items():
                assert estimator.estimate(query) == fresh[name].estimate(
                    query
                ), name

    def test_loaded_session_batch_matches_fresh(
        self, saved, cyclic_graph, cyclic_pool
    ):
        _, directory = saved
        loaded = StatisticsStore.load(directory)
        session = loaded.session()
        specs = ["max-hop-max", "all-hops-avg", "MOLP"]
        batch = session.estimate_batch(cyclic_pool, specs=specs)
        assert batch.ok
        markov = MarkovTable(cyclic_graph, h=2)
        for index, query in enumerate(cyclic_pool):
            from repro.core.estimators import OptimisticEstimator

            assert batch.item(index, "max-hop-max").estimate == (
                OptimisticEstimator(markov, "max", "max").estimate(query)
            )
            assert batch.item(index, "MOLP").estimate == (
                MolpEstimator(cyclic_graph, h=2).estimate(query)
            )

    def test_fingerprint_mismatch_rejected(self, saved):
        _, directory = saved
        other = generate_graph(
            num_vertices=30, num_edges=80, num_labels=3, seed=99
        )
        with pytest.raises(DatasetError, match="different dataset"):
            StatisticsStore.load(directory, graph=other)

    def test_fingerprint_match_accepted(self, saved, cyclic_graph):
        _, directory = saved
        loaded = StatisticsStore.load(directory, graph=cyclic_graph)
        assert loaded.graph is cyclic_graph

    def test_manifest_version_mismatch_rejected(self, saved):
        _, directory = saved
        manifest_path = directory / "manifest.json"
        payload = json.loads(manifest_path.read_text())
        payload["format_version"] = 99
        manifest_path.write_text(json.dumps(payload))
        with pytest.raises(DatasetError, match="format_version"):
            StatisticsStore.load(directory)

    def test_sidecar_this_build_does_not_serve_is_ignored(self, saved):
        """Older images may list an ``entropy.json`` sidecar: a load
        reads and digest-checks only the sidecars it serves."""
        _, directory = saved
        (directory / "gen-0000" / "entropy.json").write_text("not json")
        manifest_path = directory / "manifest.json"
        payload = json.loads(manifest_path.read_text())
        payload["catalogs"] = sorted(payload["catalogs"] + ["entropy"])
        payload["digests"]["entropy.json"] = "0" * 64
        manifest_path.write_text(json.dumps(payload))
        loaded = StatisticsStore.load(directory)
        assert loaded.cycle_rates is not None
        assert "entropy" not in inspect_artifact(directory)["catalogs_sizes"]

    def test_serving_never_touches_the_engine(
        self, saved, cyclic_pool, monkeypatch
    ):
        """The acceptance gate: zero count_pattern / base-graph scans.

        Every engine entry point the lazy catalogs use is patched to
        fail; a graph-free store must still serve the whole workload.
        """
        _, directory = saved
        loaded = StatisticsStore.load(directory)

        def forbidden(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("serving touched the exact engine")

        import repro.catalog.degrees as degrees_module
        import repro.catalog.markov as markov_module
        import repro.engine.counter as counter_module

        monkeypatch.setattr(markov_module, "count_pattern", forbidden)
        monkeypatch.setattr(counter_module, "count_pattern", forbidden)
        monkeypatch.setattr(degrees_module, "frame_from_edge", forbidden)
        monkeypatch.setattr(degrees_module, "extend_frame", forbidden)

        session = loaded.session()
        batch = session.estimate_batch(
            cyclic_pool, specs=["max-hop-max", "min-hop-min", "MOLP"]
        )
        assert batch.ok

    def test_sketch_spec_rejected_graph_free(self, saved, cyclic_pool):
        _, directory = saved
        session = StatisticsStore.load(directory).session()
        with pytest.raises(ValueError, match="partitions base relations"):
            session.estimate_batch(cyclic_pool[:1], specs=["MOLP-sketch4"])


class TestHarnessFromStore:
    def test_run_harness_batched_accepts_store(self, cyclic_graph):
        from repro.experiments.harness import run_harness, run_harness_batched

        workload = acyclic_workload(
            cyclic_graph, per_template=1, seed=5, sizes=(6,)
        )
        store = build_statistics(
            cyclic_graph,
            StatsBuildConfig(h=2),
            workload=[query.pattern for query in workload],
        )
        markov = MarkovTable(cyclic_graph, h=2)
        plain = run_harness(
            workload, {"max-hop-max": all_nine_estimators(markov)["max-hop-max"]}
        )
        stored = run_harness_batched(workload, store, ["max-hop-max"])
        assert stored.estimates["max-hop-max"] == plain.estimates["max-hop-max"]
