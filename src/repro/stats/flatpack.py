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
  array; entries whose key does not fit (a component over
  :data:`MAX_COMPONENT`) fall back to a JSON ``irregular`` list in the
  metadata: ``{key, count}`` for Markov, ``{key, cardinality, values}``
  for degrees.
* **Degree blocks** — a stored relation's ``values`` array (its
  ``3^k`` degrees in image order, see :mod:`repro.catalog.degrees`) is
  written verbatim into one concatenated ``deg_value`` array.  The
  ``(X, Y)`` pair of each position is a fixed function of the arity, so
  it is not stored; :func:`verify_degree_blocks` checks once per load
  that the offsets step by ``3^k``.  A mapped relation is a slice of
  ``deg_value``.
* **Image backings** — :class:`FlatMarkov` / :class:`FlatDegrees` hold
  the arrays and serve single entries on demand; the owning catalog
  memoises them in its ordinary ``_cache`` and calls ``materialize()``
  before any mutation.
* **Deterministic NPZ** — :func:`write_stored_npz` emits a byte-stable
  uncompressed archive (fixed timestamps, sorted members, aligned data)
  because CI byte-compares serial vs parallel vs resumed builds.
  Floats pass through untouched (float64 in, float64 out), so served
  estimates stay bit-identical.
"""

from __future__ import annotations

import io
import struct
import zipfile
from pathlib import Path

import numpy as np

from repro.catalog.degrees import DegreeCatalog, StatRelation
from repro.errors import DatasetError
from repro.query.canonical import key_from_json, key_to_json

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
    "degree_images_equal",
    "verify_degree_blocks",
    "catalogs_to_flat",
    "write_stored_npz",
]

#: Version 2: the manifest records every image file's sha256, and the
#: image holds only served catalogs.  Version-1 images (which also held
#: a baseline summary and per-position degree masks) are refused with a
#: pointer at ``repro stats build``.
IMAGE_FORMAT_VERSION = 2

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
                {"key": key_to_json(key), "count": count}
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
    table.labels = tuple(labels) if labels is not None else None
    table.complete = bool(meta.get("complete", False))
    table._cache = {}
    table._flat = FlatMarkov(
        arrays["markov::keys"],
        arrays["markov::counts"],
        list(meta.get("vocab", [])),
    )
    for entry in meta.get("irregular", []):
        table._cache[key_from_json(entry["key"])] = float(entry["count"])
    return table


# ----------------------------------------------------------------------
# Degree catalog <-> flat arrays
# ----------------------------------------------------------------------
def degrees_to_flat(degrees) -> tuple[dict, dict[str, np.ndarray]]:
    """``(meta, arrays)`` snapshot of a (materialised) degree catalog.

    ``deg_value`` is every relation's ``values`` back to back, in the
    image order of its arity's :func:`~repro.catalog.degrees.pair_table`.
    """
    degrees.materialize()
    entries = sorted(degrees._cache.items())
    vocab = _key_vocab(key for key, _ in entries)
    label_ids = {label: i for i, label in enumerate(vocab)}
    encoded: list[bytes] = []
    regular: list = []
    irregular: list[dict] = []
    for key, relation in entries:
        raw = encode_canonical_key(key, label_ids)
        if raw is None:
            irregular.append(relation.to_json())
        else:
            encoded.append(raw)
            regular.append(relation)
    keys, order = _pack_sorted(encoded)
    regular = [regular[i] for i in order]
    offsets = np.zeros(len(regular) + 1, dtype=np.int64)
    np.cumsum([len(relation.values) for relation in regular], out=offsets[1:])
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
            [relation.cardinality for relation in regular], dtype=np.float64
        ),
        "degrees::offsets": offsets,
        "degrees::deg_value": np.concatenate(
            [np.empty(0, dtype=np.float64)]
            + [relation.values for relation in regular]
        ),
    }
    return meta, arrays


def degree_images_equal(left, right) -> bool:
    """Whether two degree catalogs write bit-identical image content."""
    left_meta, left_arrays = degrees_to_flat(left)
    right_meta, right_arrays = degrees_to_flat(right)
    return (
        left_meta == right_meta
        and left_arrays.keys() == right_arrays.keys()
        and all(
            array.dtype == right_arrays[name].dtype
            and array.tobytes() == right_arrays[name].tobytes()
            for name, array in left_arrays.items()
        )
    )


def verify_degree_blocks(arrays: dict, path) -> None:
    """Check that every mapped relation's block holds ``3^arity`` values.

    Readers slice ``deg_value`` by position alone, so the offsets must
    step by ``3^k`` (``k`` read off the packed key).  A mismatch raises
    :class:`DatasetError` naming ``path``.
    """
    keys = arrays["degrees::keys"]
    offsets = np.asarray(arrays["degrees::offsets"])
    count = int(keys.shape[0])
    width = int(keys.dtype.itemsize)

    def fail(reason: str) -> None:
        raise DatasetError(f"corrupt statistics arrays {path}: {reason}")

    if width % ATOM_BYTES or offsets.shape != (count + 1,) or (
        arrays["degrees::cardinality"].shape != (count,)
    ):
        fail("degree keys, offsets and cardinalities disagree")
    atoms = (
        np.frombuffer(np.ascontiguousarray(keys).tobytes(), dtype=">u2")
        .reshape(count, width // ATOM_BYTES, 3)[:, :, :2]
    )
    arity = atoms.max(axis=(1, 2), initial=0).astype(np.int64)
    if (
        offsets[0] != 0
        or arrays["degrees::deg_value"].shape != (int(offsets[-1]),)
        or not np.array_equal(np.diff(offsets), 3 ** arity)
    ):
        fail("a degree block's length is not 3^arity")


class FlatDegrees:
    """Mapped image backing for a :class:`~repro.catalog.degrees.DegreeCatalog`.

    Relation ``i`` is ``deg_value[offsets[i]:offsets[i + 1]]``; a lookup
    slices it, decoding nothing.
    """

    def __init__(self, arrays: dict, vocab: list[str]):
        self.index = _KeyIndex(arrays["degrees::keys"], vocab)
        self.cardinality = arrays["degrees::cardinality"]
        self.offsets = arrays["degrees::offsets"]
        self.deg_value = arrays["degrees::deg_value"]

    @property
    def count(self) -> int:
        return len(self.index)

    def lookup(self, key: tuple):
        position = self.index.find(key)
        if position is None:
            return None
        start, stop = self.offsets[position:position + 2].tolist()
        return StatRelation(
            key, float(self.cardinality[position]), self.deg_value[start:stop]
        )

    def items(self):
        """Every ``(key, relation)``, slicing one private copy of the image.

        Only materialising callers walk every relation, and they go on
        to mutate and re-save the catalog; the copy keeps the mapped
        file from being pinned by any relation.
        """
        values = np.array(self.deg_value)
        offsets = self.offsets.tolist()
        for position, cardinality in enumerate(self.cardinality.tolist()):
            key = self.index.key_at(position)
            yield key, StatRelation(
                key, cardinality, values[offsets[position]:offsets[position + 1]]
            )


def degrees_from_flat(meta: dict, arrays: dict, graph=None, max_rows=5_000_000):
    """A catalog backed by the ``degrees::*`` arrays of an image."""
    catalog = DegreeCatalog(
        graph,
        h=int(meta["h"]),
        max_rows=max_rows,
        complete=bool(meta.get("complete", False)),
    )
    catalog._flat = FlatDegrees(arrays, list(meta.get("vocab", [])))
    for entry in meta.get("irregular", []):
        relation = StatRelation.from_json(entry)
        catalog._cache[relation.key] = relation
    return catalog


# ----------------------------------------------------------------------
# Whole-store catalogs
# ----------------------------------------------------------------------
def catalogs_to_flat(store) -> tuple[dict, dict[str, np.ndarray]]:
    """The array-backed catalogs (markov/degrees) of a store.

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
    }
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
