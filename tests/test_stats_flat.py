"""Flat generation images: determinism, zero-copy load, wide vocabularies.

``save`` publishes one page-aligned, deterministically-encoded NPZ of
catalog arrays per generation image, which ``load(mmap=True)`` opens
without copying.
"""

from __future__ import annotations

import json

import pytest

from repro.datasets.presets import running_example_graph
from repro.query.parser import parse_pattern
from repro.stats import StatisticsStore, StatsBuildConfig, build_statistics

QUERIES = [
    "a -[A]-> b -[B]-> c",
    "x -[B]-> y -[C]-> z",
    "u -[B]-> v, u -[B]-> w",
    "s -[A]-> t",
]
SPECS = ["max-hop-max", "min-hop-min", "all-hops-avg", "MOLP"]


@pytest.fixture(scope="module")
def built_store():
    return build_statistics(
        running_example_graph(),
        StatsBuildConfig(h=2, molp_h=2),
        dataset_name="example",
    )


def estimates_of(store):
    batch = store.session().estimate_batch(
        [parse_pattern(text) for text in QUERIES], specs=SPECS
    )
    return [(item.estimate, item.error) for item in batch.items]


class TestFlatLayout:
    def test_flat_is_the_default_and_round_trips(
        self, built_store, tmp_path
    ):
        built_store.save(tmp_path / "art")
        manifest = json.loads((tmp_path / "art" / "manifest.json").read_text())
        assert manifest["image"] == "gen-0000"
        image = tmp_path / "art" / "gen-0000"
        assert (image / "catalogs.npz").exists()
        assert not (image / "markov.json").exists()
        loaded = StatisticsStore.load(tmp_path / "art")
        assert estimates_of(loaded) == estimates_of(built_store)

    def test_flat_encoding_is_deterministic(self, built_store, tmp_path):
        built_store.save(tmp_path / "a")
        # A load → save round trip reproduces the NPZ byte-for-byte —
        # what CI's serial/parallel/resumed build comparisons rely on.
        StatisticsStore.load(tmp_path / "a").save(tmp_path / "b")
        for name in ("catalogs.npz", "catalogs.meta.json"):
            assert (tmp_path / "a" / "gen-0000" / name).read_bytes() == (
                tmp_path / "b" / "gen-0000" / name
            ).read_bytes(), f"{name} must be byte-identical across saves"

    def test_mmap_load_bit_identical(self, built_store, tmp_path):
        built_store.save(tmp_path / "art")
        mapped = StatisticsStore.load(tmp_path / "art", mmap=True)
        assert estimates_of(mapped) == estimates_of(built_store)

    def test_image_round_trip_bit_identical(self, built_store, tmp_path):
        # An image directory is self-describing: it loads on its own,
        # without the artifact root's manifest.
        built_store.save(tmp_path / "art")
        image = tmp_path / "art" / "gen-0000"
        mapped = StatisticsStore.load(image, mmap=True)
        assert estimates_of(mapped) == estimates_of(built_store)
        assert (
            mapped.manifest.dataset_fingerprint
            == built_store.manifest.dataset_fingerprint
        )


class TestWideVocab:
    """Vocabularies past 255 labels pack atoms whose trailing byte is
    0x00 (``label_id + 1`` divisible by 256); numpy strips those nulls
    from stored ``S`` items, so lookup must compare stripped forms."""

    VOCAB = tuple(f"L{i:03d}" for i in range(300))

    def test_key_index_finds_every_key(self):
        from repro.stats.flatpack import (
            _KeyIndex,
            _pack_sorted,
            encode_canonical_key,
        )

        label_ids = {label: i for i, label in enumerate(self.VOCAB)}
        keys = [((0, 1, label),) for label in self.VOCAB]
        packed, order = _pack_sorted(
            [encode_canonical_key(key, label_ids) for key in keys]
        )
        index = _KeyIndex(packed, list(self.VOCAB))
        for key in keys:  # notably L255: label_id + 1 == 256
            assert index.find(key) is not None, f"lost {key}"
        assert index.find(((0, 1, "unknown"),)) is None

    def test_complete_markov_round_trips_wide_vocab(self):
        from repro.catalog.markov import MarkovTable
        from repro.query.canonical import canonical_key
        from repro.stats.flatpack import markov_from_flat, markov_to_flat

        patterns = {
            label: parse_pattern(f"a -[{label}]-> b") for label in self.VOCAB
        }
        table = MarkovTable(None, h=1, labels=self.VOCAB, complete=True)
        table._cache = {
            canonical_key(patterns[label]): float(i + 1)
            for i, label in enumerate(self.VOCAB)
        }
        meta, arrays = markov_to_flat(table)
        loaded = markov_from_flat(meta, arrays)
        # A complete graph-free table answers misses with 0.0 — so a
        # lookup regression here serves silently-wrong estimates.
        for i, label in enumerate(self.VOCAB):
            assert loaded.cardinality(patterns[label]) == float(i + 1)
