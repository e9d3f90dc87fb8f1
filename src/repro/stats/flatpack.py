"""Flat columnar catalog images: the codec of a generation image.

The serving plane wants every catalog as a handful of contiguous numpy
arrays, so a statistics generation is written as an uncompressed,
64-byte-aligned NPZ that :func:`repro.graph.io._mmap_npz_arrays` maps
zero-copy.  This module is that codec:

* **Canonical keys** — a Markov/degree canonical key (a tuple of
  ``(src_index, dst_index, label)`` triples) packs into a fixed-width
  byte string, 6 bytes per atom (``>HHH`` with every component stored
  ``+1`` so no atom is all-zero), labels interned through a sorted
  vocabulary.  Keys sort and binary-search directly as a numpy ``S``
  array; entries that do not fit the fixed-width form (a component over
  :data:`MAX_COMPONENT`, a non-canonical stored pattern) fall back to a
  JSON ``irregular`` list in the metadata and are decoded eagerly.
* **Lazy backings** — :class:`FlatMarkov` / :class:`FlatDegrees` hold
  the arrays and decode single entries on demand; the owning catalog
  memoises decoded values in its ordinary ``_cache`` and calls
  ``materialize()`` before any mutation.
* **Deterministic NPZ** — :func:`write_stored_npz` emits a byte-stable
  uncompressed archive (fixed timestamps, sorted members, aligned data)
  because CI byte-compares serial vs parallel vs resumed builds.
  Floats pass through untouched (float64 in, float64 out), so served
  estimates stay bit-identical.
"""

from __future__ import annotations

import functools
import io
import json
import struct
import zipfile
from pathlib import Path

import numpy as np

from repro.errors import DatasetError

__all__ = [
    "IMAGE_FORMAT_VERSION",
    "MAX_COMPONENT",
    "FlatMarkov",
    "FlatDegrees",
    "encode_canonical_key",
    "decode_canonical_key",
    "markov_to_flat",
    "markov_from_flat",
    "degrees_to_flat",
    "degrees_from_flat",
    "sumrdf_to_flat",
    "sumrdf_from_flat",
    "catalogs_to_flat",
    "write_stored_npz",
]

IMAGE_FORMAT_VERSION = 1

ATOM_BYTES = 6
#: Largest vertex index / label id a packed atom can carry (u16, +1 bias).
MAX_COMPONENT = 0xFFFE


# ----------------------------------------------------------------------
# Canonical-key packing
# ----------------------------------------------------------------------
def encode_canonical_key(key: tuple, label_ids: dict[str, int]) -> bytes | None:
    """Pack a canonical key into 6 bytes per atom, or None if it can't.

    Components are stored ``+1`` so no real atom starts with a zero
    ``u16`` — which is how :func:`decode_canonical_key` tells content
    from the trailing null padding numpy's ``S`` dtype strips and
    re-adds.
    """
    out = bytearray()
    for src, dst, label in key:
        label_id = label_ids.get(label)
        if (
            label_id is None
            or src < 0
            or dst < 0
            or src > MAX_COMPONENT
            or dst > MAX_COMPONENT
            or label_id > MAX_COMPONENT
        ):
            return None
        out += struct.pack(">HHH", src + 1, dst + 1, label_id + 1)
    return bytes(out)


def decode_canonical_key(raw: bytes, vocab: list[str]) -> tuple:
    """Inverse of :func:`encode_canonical_key` on a stripped ``S`` item.

    numpy strips trailing nulls from ``S`` items; real content is a
    multiple of :data:`ATOM_BYTES` whose final atom loses at most one
    null byte (a ``u16`` low byte), so re-padding to the next atom
    boundary restores it exactly.
    """
    raw += b"\x00" * (-len(raw) % ATOM_BYTES)
    key = []
    for offset in range(0, len(raw), ATOM_BYTES):
        src, dst, label_id = struct.unpack_from(">HHH", raw, offset)
        if src == 0:
            break
        key.append((src - 1, dst - 1, vocab[label_id - 1]))
    return tuple(key)


def _canonical_pattern_of(key: tuple):
    """The pattern :func:`repro.query.canonical.canonical_pattern` builds."""
    from repro.query.pattern import QueryPattern

    return QueryPattern(
        (f"v{src}", f"v{dst}", label) for src, dst, label in key
    )


class _KeyIndex:
    """Sorted packed keys plus the label vocabulary they intern."""

    def __init__(self, keys: np.ndarray, vocab: list[str]):
        self.keys = keys
        self.vocab = list(vocab)
        self.label_ids = {label: i for i, label in enumerate(self.vocab)}
        self.width = int(keys.dtype.itemsize)

    def __len__(self) -> int:
        return int(self.keys.shape[0])

    def find(self, key: tuple) -> int | None:
        """Position of a canonical key, or None when absent."""
        if not len(self):
            return None
        probe = encode_canonical_key(key, self.label_ids)
        if probe is None or len(probe) > self.width:
            return None
        position = int(np.searchsorted(self.keys, probe))
        # numpy hands back ``S`` items with trailing nulls stripped (an
        # ``np.bytes_``, whose ``==`` against raw bytes is strict), so a
        # probe whose final atom ends in 0x00 (label_id+1 divisible by
        # 256) would never compare equal to its own stored form.  Strip
        # the probe the same way: valid encodings lose at most one
        # content null (see :func:`decode_canonical_key`), so stripped
        # forms are still unique.
        if position < len(self) and bytes(self.keys[position]) == probe.rstrip(
            b"\x00"
        ):
            return position
        return None

    def key_at(self, position: int) -> tuple:
        return decode_canonical_key(bytes(self.keys[position]), self.vocab)


def _pack_sorted(encoded: list[bytes]) -> tuple[np.ndarray, np.ndarray]:
    """Encoded keys as one sorted ``S`` array plus the sort permutation."""
    width = max((len(raw) for raw in encoded), default=ATOM_BYTES)
    keys = np.array(encoded, dtype=f"S{width}")
    if keys.shape[0] == 0:
        keys = np.empty(0, dtype=f"S{width}")
    order = np.argsort(keys, kind="stable")
    return keys[order], order


def _key_vocab(keys) -> list[str]:
    return sorted({label for key in keys for _, _, label in key})


# ----------------------------------------------------------------------
# Markov table <-> flat arrays
# ----------------------------------------------------------------------
class FlatMarkov:
    """Lazy array backing for a :class:`~repro.catalog.markov.MarkovTable`."""

    def __init__(self, keys: np.ndarray, counts: np.ndarray, vocab: list[str]):
        self.index = _KeyIndex(keys, vocab)
        self.counts = counts

    @property
    def count(self) -> int:
        return len(self.index)

    def lookup(self, key: tuple) -> float | None:
        position = self.index.find(key)
        if position is None:
            return None
        return float(self.counts[position])

    def items(self):
        for position in range(len(self.index)):
            yield self.index.key_at(position), float(self.counts[position])


def markov_to_flat(markov) -> tuple[dict, dict[str, np.ndarray]]:
    """``(meta, arrays)`` snapshot of a (materialised) Markov table."""
    markov.materialize()
    entries = sorted(markov._cache.items())
    vocab = _key_vocab(key for key, _ in entries)
    label_ids = {label: i for i, label in enumerate(vocab)}
    encoded: list[bytes] = []
    counts: list[float] = []
    irregular: list[dict] = []
    for key, count in entries:
        raw = encode_canonical_key(key, label_ids)
        if raw is None:
            irregular.append(
                {"key": [list(atom) for atom in key], "count": count}
            )
        else:
            encoded.append(raw)
            counts.append(count)
    keys, order = _pack_sorted(encoded)
    values = np.asarray(counts, dtype=np.float64)[order]
    labels = markov.labels
    if labels is None and markov.graph is not None:
        labels = markov.graph.labels
    meta = {
        "h": markov.h,
        "complete": markov.complete,
        "labels": list(labels) if labels is not None else None,
        "vocab": vocab,
        "entries": int(keys.shape[0]),
        "irregular": irregular,
    }
    return meta, {"markov::keys": keys, "markov::counts": values}


def markov_from_flat(meta: dict, arrays: dict, graph=None):
    """A flat-backed Markov table over ``markov::*`` arrays."""
    from repro.catalog.markov import MarkovTable

    labels = meta.get("labels")
    table = MarkovTable.__new__(MarkovTable)
    table.graph = graph
    table.h = int(meta["h"])
    table.count_budget = None
    table.count_impl = None
    table.labels = tuple(labels) if labels is not None else None
    table.complete = bool(meta.get("complete", False))
    table._cache = {}
    table._flat = FlatMarkov(
        arrays["markov::keys"],
        arrays["markov::counts"],
        list(meta.get("vocab", [])),
    )
    for entry in meta.get("irregular", []):
        key = tuple(
            (int(src), int(dst), str(label))
            for src, dst, label in entry["key"]
        )
        table._cache[key] = float(entry["count"])
    return table


# ----------------------------------------------------------------------
# Degree catalog <-> flat arrays
# ----------------------------------------------------------------------
def _encodable_relation(relation, key: tuple) -> bool:
    """Whether a StatRelation round-trips through the packed form.

    Requires the stored pattern to be *exactly* the canonical
    reconstruction of its key (atom order and variable names included),
    default stored columns, and at most 32 variables for the masks.
    """
    if tuple(
        (e.src, e.dst, e.label) for e in relation.pattern.edges
    ) != tuple((f"v{src}", f"v{dst}", label) for src, dst, label in key):
        return False
    if relation._columns != relation.pattern.variables:
        return False
    return len(relation.pattern.variables) <= 32


@functools.lru_cache(maxsize=1024)
def _image_order(names: tuple[str, ...]) -> tuple:
    """``(x_mask, y_mask, (X, Y))`` of every pair, in image order.

    Bit ``i`` of a mask is ``names[i]`` (sorted variable names); the
    image lists a relation's pairs by sorted ``Y`` names, then sorted
    ``X`` names.
    """
    from repro.catalog.degrees import _pair_keys

    return tuple(
        sorted(
            _pair_keys(names),
            key=lambda entry: (sorted(entry[2][1]), sorted(entry[2][0])),
        )
    )


def _relation_block(relation, key: tuple):
    """A relation's ``(deg_x, deg_y, deg_value)`` image block.

    ``None`` when the relation cannot take the packed form.  Graph-backed
    relations first complete their degree set and are encoded afresh on
    every save; a stored relation never changes, so its block (or its
    ``None`` verdict) is memoised on it and reused by every later save.
    """
    if relation._rows is None and relation._image_block is not None:
        return relation._image_block or None
    block: tuple = ()
    if _encodable_relation(relation, key):
        from repro.catalog.degrees import all_degree_pairs

        if relation._rows is not None:
            relation._degrees = all_degree_pairs(
                relation._rows, relation._columns, relation._num_vertices
            )
        degrees = relation._degrees
        entries = [
            (x_mask, y_mask, degrees[pair])
            for x_mask, y_mask, pair in _image_order(
                tuple(sorted(relation.pattern.variables))
            )
            if pair in degrees
        ]
        # A pair outside X ⊆ Y ⊆ attrs has no mask: keep it in JSON.
        if len(entries) == len(degrees):
            x_masks, y_masks, values = zip(*entries) if entries else ((), (), ())
            block = (
                np.asarray(x_masks, dtype=np.uint32),
                np.asarray(y_masks, dtype=np.uint32),
                np.asarray(values, dtype=np.float64),
            )
    if relation._rows is None:
        relation._image_block = block
    return block or None


def degrees_to_flat(degrees) -> tuple[dict, dict[str, np.ndarray]]:
    """``(meta, arrays)`` snapshot of a (materialised) degree catalog."""
    degrees.materialize()
    entries = sorted(degrees._cache.items())
    vocab = _key_vocab(key for key, _ in entries)
    label_ids = {label: i for i, label in enumerate(vocab)}
    encoded: list[bytes] = []
    regular: list = []
    irregular: list[dict] = []
    for key, relation in entries:
        raw = encode_canonical_key(key, label_ids)
        block = None if raw is None else _relation_block(relation, key)
        if block is None:
            irregular.append(
                {
                    "key": [list(atom) for atom in key],
                    "relation": relation.to_artifact(),
                }
            )
        else:
            encoded.append(raw)
            regular.append((relation.cardinality, block))
    keys, order = _pack_sorted(encoded)
    regular = [regular[i] for i in order]
    offsets = np.zeros(len(regular) + 1, dtype=np.int64)
    np.cumsum([len(block[2]) for _, block in regular], out=offsets[1:])
    meta = {
        "h": degrees.h,
        "complete": degrees.complete,
        "vocab": vocab,
        "entries": int(keys.shape[0]),
        "irregular": irregular,
    }
    arrays = {
        "degrees::keys": keys,
        "degrees::cardinality": np.asarray(
            [cardinality for cardinality, _ in regular], dtype=np.float64
        ),
        "degrees::offsets": offsets,
    }
    for column, (name, dtype) in enumerate(
        (("deg_x", np.uint32), ("deg_y", np.uint32), ("deg_value", np.float64))
    ):
        arrays[f"degrees::{name}"] = np.concatenate(
            [np.empty(0, dtype=dtype)]
            + [block[column] for _, block in regular]
        )
    return meta, arrays


class FlatDegrees:
    """Lazy array backing for a :class:`~repro.catalog.degrees.DegreeCatalog`."""

    def __init__(self, arrays: dict, vocab: list[str]):
        self.index = _KeyIndex(arrays["degrees::keys"], vocab)
        self.cardinality = arrays["degrees::cardinality"]
        self.offsets = arrays["degrees::offsets"]
        self.deg_x = arrays["degrees::deg_x"]
        self.deg_y = arrays["degrees::deg_y"]
        self.deg_value = arrays["degrees::deg_value"]

    @property
    def count(self) -> int:
        return len(self.index)

    def _decode(self, position: int):
        from repro.catalog.degrees import StatRelation

        key = self.index.key_at(position)
        pattern = _canonical_pattern_of(key)
        names = sorted(pattern.variables)
        start = int(self.offsets[position])
        stop = int(self.offsets[position + 1])
        degrees = {}
        for row in range(start, stop):
            x_mask = int(self.deg_x[row])
            y_mask = int(self.deg_y[row])
            x = frozenset(
                name for i, name in enumerate(names) if x_mask >> i & 1
            )
            y = frozenset(
                name for i, name in enumerate(names) if y_mask >> i & 1
            )
            degrees[(x, y)] = float(self.deg_value[row])
        return StatRelation._stored(
            pattern,
            cardinality=float(self.cardinality[position]),
            degrees=degrees,
        )

    def lookup(self, key: tuple):
        position = self.index.find(key)
        if position is None:
            return None
        return self._decode(position)

    def items(self):
        """Every relation, each carrying its image block for re-saving.

        Only materialising callers walk every relation, and they go on
        to mutate and save the catalog: handing each decoded relation
        its slice of the image lets that save copy blocks instead of
        re-encoding them.  Slices come from private copies, so no
        relation keeps the mapped file alive.
        """
        deg_x, deg_y, deg_value = (
            np.array(array) for array in (self.deg_x, self.deg_y, self.deg_value)
        )
        for position in range(len(self.index)):
            relation = self._decode(position)
            start = int(self.offsets[position])
            stop = int(self.offsets[position + 1])
            relation._image_block = (
                deg_x[start:stop], deg_y[start:stop], deg_value[start:stop]
            )
            yield self.index.key_at(position), relation


def degrees_from_flat(meta: dict, arrays: dict, graph=None, max_rows=5_000_000):
    """A flat-backed degree catalog over ``degrees::*`` arrays."""
    from repro.catalog.degrees import DegreeCatalog, StatRelation
    from repro.query.canonical import canonical_key

    catalog = DegreeCatalog(
        graph,
        h=int(meta["h"]),
        max_rows=max_rows,
        complete=bool(meta.get("complete", False)),
    )
    catalog._flat = FlatDegrees(arrays, list(meta.get("vocab", [])))
    for entry in meta.get("irregular", []):
        relation = StatRelation.from_artifact(entry["relation"])
        catalog._cache[canonical_key(relation.pattern)] = relation
    return catalog


# ----------------------------------------------------------------------
# SumRDF <-> flat arrays
# ----------------------------------------------------------------------
def sumrdf_to_flat(sumrdf) -> tuple[dict, dict[str, np.ndarray]]:
    """``(meta, arrays)`` split of the SumRDF artifact payload."""
    payload = sumrdf.to_artifact()
    meta = {
        "format_version": int(payload["format_version"]),
        "kind": str(payload["kind"]),
        "num_buckets": int(payload["num_buckets"]),
        "labels": [str(label) for label in payload["labels"]],
    }
    arrays = {
        "sumrdf::sizes": np.asarray(payload["sizes"], dtype=np.float64),
        "sumrdf::matrices": np.asarray(payload["matrices"], dtype=np.float64),
    }
    return meta, arrays


def sumrdf_from_flat(meta: dict, arrays: dict):
    """Rebuild the estimator; stored arrays are served as-is (zero-copy)."""
    from repro.baselines.sumrdf import SumRdfEstimator

    return SumRdfEstimator.from_artifact(
        {
            **meta,
            "sizes": arrays["sumrdf::sizes"],
            "matrices": arrays["sumrdf::matrices"],
        }
    )


# ----------------------------------------------------------------------
# Whole-store catalogs
# ----------------------------------------------------------------------
def catalogs_to_flat(store) -> tuple[dict, dict[str, np.ndarray]]:
    """The array-backed catalogs (markov/degrees/sumrdf) of a store.

    This is the ``catalogs.meta.json`` / ``catalogs.npz`` content of a
    generation image; the small dict-shaped catalogs stay JSON sidecars.
    """
    markov_meta, arrays = markov_to_flat(store.markov)
    degrees_meta, degree_arrays = degrees_to_flat(store.degrees)
    arrays.update(degree_arrays)
    meta = {
        "format_version": IMAGE_FORMAT_VERSION,
        "kind": "flat_catalogs",
        "markov": markov_meta,
        "degrees": degrees_meta,
        "sumrdf": None,
    }
    if store.sumrdf is not None:
        sumrdf_meta, sumrdf_arrays = sumrdf_to_flat(store.sumrdf)
        meta["sumrdf"] = sumrdf_meta
        arrays.update(sumrdf_arrays)
    return meta, arrays


# ----------------------------------------------------------------------
# Deterministic uncompressed NPZ
# ----------------------------------------------------------------------
_FIXED_DATE = (1980, 1, 1, 0, 0, 0)
_ALIGN = 64
_LOCAL_HEADER_BYTES = 30
#: Private extra-field id carrying alignment padding (any id works; zip
#: readers skip records they don't know).
_PAD_EXTRA_ID = 0x5250  # "RP"


def _npy_bytes(array: np.ndarray) -> bytes:
    buffer = io.BytesIO()
    np.lib.format.write_array(
        buffer, np.ascontiguousarray(array), version=(1, 0), allow_pickle=False
    )
    return buffer.getvalue()


def _alignment_extra(offset: int, name_length: int) -> bytes:
    """A zip extra field padding the member's data to a 64-byte boundary.

    numpy's own ``.npy`` header pads array data to a 64-byte boundary
    *within* the member, so aligning the member start aligns the data.
    """
    data_start = offset + _LOCAL_HEADER_BYTES + name_length
    pad = -data_start % _ALIGN
    if pad == 0:
        return b""
    if pad < 4:
        pad += _ALIGN
    return struct.pack("<HH", _PAD_EXTRA_ID, pad - 4) + b"\x00" * (pad - 4)


def write_stored_npz(path: str | Path, arrays: dict[str, np.ndarray]) -> Path:
    """Write a byte-deterministic uncompressed NPZ, members 64B-aligned.

    ``np.savez`` stamps the current time into every member header, which
    would break the repo's byte-identity gates (serial vs parallel vs
    resumed builds are ``cmp``-ed in CI); this writer fixes the
    timestamps, stores members in sorted name order, and pads each local
    header so the array data — hence every mmap — is 64-byte aligned.
    """
    path = Path(path)
    with zipfile.ZipFile(path, "w", zipfile.ZIP_STORED) as archive:
        offset = 0
        for name in sorted(arrays):
            member = name + ".npy"
            payload = _npy_bytes(arrays[name])
            encoded_name = member.encode("utf-8")
            extra = _alignment_extra(offset, len(encoded_name))
            info = zipfile.ZipInfo(member, date_time=_FIXED_DATE)
            info.compress_type = zipfile.ZIP_STORED
            info.create_system = 3  # byte-stable across host platforms
            info.external_attr = 0o600 << 16
            info.extra = extra
            archive.writestr(info, payload)
            offset += (
                _LOCAL_HEADER_BYTES
                + len(encoded_name)
                + len(extra)
                + len(payload)
            )
    return path


def read_npz_arrays(path: str | Path, mmap: bool = False) -> dict:
    """Every array of an NPZ, optionally memory-mapped zero-copy."""
    from repro.graph.io import _mmap_npz_arrays

    path = Path(path)
    if mmap:
        return _mmap_npz_arrays(path)
    try:
        with np.load(path) as data:
            return {name: data[name] for name in data.files}
    except (OSError, ValueError, zipfile.BadZipFile) as error:
        raise DatasetError(f"corrupt statistics arrays {path}: {error}")
