"""Flat generation images: determinism, zero-copy load, wide vocabularies.

``save`` publishes one page-aligned, deterministically-encoded NPZ of
catalog arrays per generation image, which ``load(mmap=True)`` opens
without copying.
"""

from __future__ import annotations

import json
import re

import numpy as np
import pytest

from repro.datasets.presets import running_example_graph
from repro.errors import DatasetError
from repro.query.parser import parse_pattern
from repro.stats import StatisticsStore, StatsBuildConfig, build_statistics
from repro.stats import flatpack
from repro.stats.artifact import file_digest
from repro.stats.flatpack import degree_images_equal, write_stored_npz

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

    def test_materialized_relations_do_not_pin_the_mapping(
        self, built_store, tmp_path
    ):
        built_store.save(tmp_path / "art")
        mapped = StatisticsStore.load(tmp_path / "art", mmap=True)
        image = mapped.degrees._flat.deg_value
        served = estimates_of(mapped)
        mapped.degrees.materialize()
        assert mapped.degrees._cache
        for relation in mapped.degrees._cache.values():
            assert not np.shares_memory(relation.values, image)
        assert estimates_of(mapped) == served == estimates_of(built_store)

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


def _rewrite_degree_arrays(image, edit):
    """Rewrite an image's ``catalogs.npz`` after ``edit(arrays)``.

    The new file's digest is recorded in both manifests, as a writer
    would, so a load gets past the digest check to the structural one.
    """
    path = image / "catalogs.npz"
    with np.load(path) as data:
        arrays = {name: np.array(data[name]) for name in data.files}
    edit(arrays)
    write_stored_npz(path, arrays)
    for manifest_path in (image / "manifest.json", image.parent / "manifest.json"):
        payload = json.loads(manifest_path.read_text())
        payload["digests"]["catalogs.npz"] = file_digest(path)
        manifest_path.write_text(json.dumps(payload))
    return path


class TestImageDigests:
    """The frozen manifest records every image file's sha256, and a load
    refuses a flipped or truncated file, naming it."""

    FILES = ["catalogs.npz", "catalogs.meta.json"]

    def test_manifest_records_every_image_file(self, built_store, tmp_path):
        built_store.save(tmp_path / "art")
        image = tmp_path / "art" / "gen-0000"
        frozen = json.loads((image / "manifest.json").read_text())
        root = json.loads((tmp_path / "art" / "manifest.json").read_text())
        assert frozen["digests"] == root["digests"]
        assert frozen["digests"] == {
            path.name: file_digest(path)
            for path in image.iterdir()
            if path.name != "manifest.json"
        }

    def refused(self, directory, path, mmap=False):
        with pytest.raises(
            DatasetError, match=re.escape(f"{path}: sha256")
        ):
            StatisticsStore.load(directory, mmap=mmap)

    @pytest.mark.parametrize("mmap", [False, True])
    @pytest.mark.parametrize("name", FILES)
    def test_flipped_byte_refused(self, built_store, tmp_path, name, mmap):
        built_store.save(tmp_path / "art")
        path = tmp_path / "art" / "gen-0000" / name
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0x01
        path.write_bytes(bytes(data))
        self.refused(tmp_path / "art", path, mmap)

    @pytest.mark.parametrize("name", FILES)
    def test_truncated_file_refused(self, built_store, tmp_path, name):
        built_store.save(tmp_path / "art")
        path = tmp_path / "art" / "gen-0000" / name
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        self.refused(tmp_path / "art", path)


class TestDegreeBlockVerification:
    """A mapped relation is a slice read by position alone, so a load
    checks that every block holds ``3^arity`` values."""

    def _first_block(self, arrays, arity):
        keys = arrays["degrees::keys"]
        for position in range(keys.shape[0]):
            start, stop = arrays["degrees::offsets"][position:position + 2]
            if stop - start == 3 ** arity:
                return int(start)
        raise AssertionError(f"no arity-{arity} relation")

    def test_block_length_refused(self, built_store, tmp_path):
        built_store.save(tmp_path / "art")

        def grow(arrays):
            start = self._first_block(arrays, 2)
            column = arrays["degrees::deg_value"]
            arrays["degrees::deg_value"] = np.insert(column, start, column[start])
            offsets = arrays["degrees::offsets"]
            offsets[np.flatnonzero(offsets > start)] += 1

        path = _rewrite_degree_arrays(tmp_path / "art" / "gen-0000", grow)
        with pytest.raises(DatasetError, match="3\\^arity"):
            StatisticsStore.load(tmp_path / "art")
        assert path.is_file()


class TestIrregularFallback:
    """Keys past MAX_COMPONENT leave the packed arrays for the metadata's
    ``irregular`` list: ``{key, count}`` / ``{key, cardinality, values}``."""

    @pytest.mark.parametrize("mmap", [False, True])
    def test_round_trip_bit_identical(
        self, built_store, tmp_path, monkeypatch, mmap
    ):
        # Labels C, D, E and every third variable no longer fit.
        monkeypatch.setattr(flatpack, "MAX_COMPONENT", 1)
        built_store.save(tmp_path / "art")
        meta = json.loads(
            (tmp_path / "art" / "gen-0000" / "catalogs.meta.json").read_text()
        )
        irregular = meta["degrees"]["irregular"]
        assert irregular and meta["degrees"]["entries"] > 0
        assert all(
            set(entry) == {"key", "cardinality", "values"}
            for entry in irregular
        )
        assert meta["markov"]["irregular"]
        loaded = StatisticsStore.load(tmp_path / "art", mmap=mmap)
        assert estimates_of(loaded) == estimates_of(built_store)
        built_store.degrees.materialize()
        assert degree_images_equal(loaded.degrees, built_store.degrees)
