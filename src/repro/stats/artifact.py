"""Versioned on-disk layout for statistics artifacts.

An artifact directory holds one immutable *generation image* per
published state, plus the manifest naming the current one::

    <dir>/
      manifest.json               # format version, fingerprint, lineage,
                                  # config, and "image": the current one
      gen-0003/                   # the current generation image
        manifest.json             # the same manifest, frozen with it,
                                  # plus the sha256 of every file below
        catalogs.npz              # markov/degrees as aligned arrays
        catalogs.meta.json        # vocabularies, flags, irregular fallbacks
        cycle_rates.json          # optional: CycleClosingRates.to_artifact()
      gen-0002/                   # the previous image (in-flight readers)
      deltas/0001.json ...        # lineage: one update log per generation

An image holds only what serving reads: the comparison baselines of
Figure 13 are built from the graph by their figure driver and never
persisted.

A writer (``repro stats build``, ``repro updates apply``) never touches
a published image: it writes the next one under a temporary name,
fsyncs it, renames it into place and only then replaces the root
``manifest.json`` (tmp + ``os.replace``).  A reader therefore sees the
old generation or the new one, never a mix, and a memory-mapped image
never changes under it.  Images older than the previous one are
deleted after the swap.  A load checks every image file against the
sha256 its frozen manifest records (:func:`verify_digests`), so a
flipped or truncated file is refused rather than served.

The manifest carries a *dataset fingerprint* — a content hash of the
graph's relations — so a serving process can refuse statistics built
from a different dataset, and a ``format_version`` checked with a
friendly :class:`~repro.errors.DatasetError`.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import DatasetError
from repro.graph.digraph import LabeledDiGraph

__all__ = [
    "STORE_FORMAT_VERSION",
    "CHECKPOINT_FORMAT_VERSION",
    "MANIFEST_FILE",
    "CATALOG_ARRAYS_FILE",
    "CATALOG_META_FILE",
    "SIDECAR_FILES",
    "DELTAS_DIR",
    "BUILD_STATE_DIR",
    "CHECKPOINT_FILE",
    "delta_file_name",
    "image_name",
    "image_sequence",
    "image_dir",
    "file_digest",
    "verify_digests",
    "write_file_durably",
    "fsync_file",
    "fsync_dir",
    "StoreManifest",
    "dataset_fingerprint",
]

#: Version 2: one immutable image directory per generation.  Version 1
#: artifacts (catalog files in the root, a JSON layout, or a delta chain
#: replayed at load) are refused with a pointer at ``repro stats build``.
STORE_FORMAT_VERSION = 2

#: Format of the mid-build resume checkpoint under BUILD_STATE_DIR.
#: Version 2: degree relations are ``[key, cardinality, values]`` rows.
CHECKPOINT_FORMAT_VERSION = 2

MANIFEST_FILE = "manifest.json"

#: Subdirectory holding the versioned delta files of a dynamic artifact.
DELTAS_DIR = "deltas"

#: Subdirectory (under the build output dir) holding resume state of an
#: in-progress bulk build; removed when the build completes.
BUILD_STATE_DIR = "build_state"

#: The per-level checkpoint file inside BUILD_STATE_DIR.
CHECKPOINT_FILE = "checkpoint.json"


def delta_file_name(generation: int) -> str:
    """Relative path of one delta generation's update log."""
    return f"{DELTAS_DIR}/{generation:04d}.json"

#: The array-backed catalogs (markov/degrees): one uncompressed,
#: mmap-able NPZ of columnar arrays plus its JSON metadata
#: (vocabularies, completeness flags, irregular-entry fallbacks).
CATALOG_ARRAYS_FILE = "catalogs.npz"
CATALOG_META_FILE = "catalogs.meta.json"

#: Small dict-shaped catalogs kept as JSON sidecar files of an image
#: (they are dwarfed by the array-backed ones).  A load reads and
#: digest-checks only the catalogs named here, so a catalog an older
#: image lists but this build no longer serves is ignored.
SIDECAR_FILES = {"cycle_rates": "cycle_rates.json"}

_IMAGE_NAME = re.compile(r"^gen-(\d+)$")


def image_name(sequence: int) -> str:
    """Directory name of the ``sequence``-th generation image."""
    return f"gen-{sequence:04d}"


def image_sequence(name: str) -> int | None:
    """The sequence number of an image directory name (None if not one)."""
    match = _IMAGE_NAME.match(name)
    return int(match.group(1)) if match else None


def image_dir(directory: str | Path, manifest: "StoreManifest") -> Path:
    """The image a manifest read from ``directory`` names.

    ``directory`` is either an artifact root (the image is a child) or
    an image itself (its frozen manifest names the directory).
    """
    directory = Path(directory)
    if directory.name == manifest.image:
        return directory
    return directory / manifest.image


def fsync_dir(directory: str | Path) -> None:
    """Make a directory's entries (creates, renames) durable."""
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def fsync_file(path: str | Path) -> None:
    """Make a written file's contents durable."""
    with open(path, "rb") as handle:
        os.fsync(handle.fileno())


def write_file_durably(path: Path, data: bytes) -> None:
    """Write ``data`` to a new file and fsync it."""
    with open(path, "wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())


def file_digest(path: str | Path) -> str:
    """The sha256 of a file, read in chunks.

    Plain reads, never a mapping: hashing a served image must not add
    its pages to the process's resident set.
    """
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def verify_digests(image: Path, digests: dict, names) -> None:
    """Check each of ``names`` in ``image`` against its recorded sha256.

    A file the manifest records no digest for, a missing file and a
    mismatch all raise :class:`DatasetError` naming the file.
    """
    for name in names:
        path = image / name
        recorded = digests.get(name)
        if recorded is None:
            raise DatasetError(
                f"statistics artifact image {image} records no digest "
                f"for {name}"
            )
        try:
            found = file_digest(path)
        except OSError as error:
            raise DatasetError(
                f"statistics artifact is missing {path}: {error}"
            )
        if found != recorded:
            raise DatasetError(
                f"corrupt statistics artifact {path}: sha256 {found} does "
                f"not match the recorded {recorded}"
            )


def dataset_fingerprint(graph: LabeledDiGraph) -> str:
    """A content hash of the graph's relations.

    Stable across processes and platforms: hashes the vertex count plus
    every label's sorted ``(src, dst)`` arrays (relations are stored
    sorted and deduplicated, so equal graphs hash equal).
    """
    digest = hashlib.sha256()
    digest.update(f"v{graph.num_vertices}".encode("utf-8"))
    for label in graph.labels:
        relation = graph.relation(label)
        digest.update(b"\x00" + label.encode("utf-8") + b"\x00")
        digest.update(relation.src_by_src.astype("<i8").tobytes())
        digest.update(relation.dst_by_src.astype("<i8").tobytes())
    return digest.hexdigest()[:20]


@dataclass
class StoreManifest:
    """Metadata of one statistics generation.

    ``image`` names the generation image directory the manifest
    describes; the root ``manifest.json`` is a copy of the current
    image's, so reading it names the generation to serve.  The
    delta-lineage fields make an artifact *dynamic*: ``generation``
    counts applied update generations, ``base_fingerprint`` is the
    dataset the artifact was first built from, and ``deltas`` lists one
    entry per applied generation (update-log file, parent/child
    fingerprints, update counts, timestamp).  ``dataset_fingerprint``
    always names the *current* (post-delta) dataset, so fingerprint
    validation works against the mutated graph.  ``digests`` maps each
    image file (every one but the manifest itself) to its sha256.
    """

    dataset_fingerprint: str
    h: int
    molp_h: int
    dataset_name: str = ""
    graph_summary: dict = field(default_factory=dict)
    build_config: dict = field(default_factory=dict)
    catalogs: list[str] = field(default_factory=list)
    complete: bool = False
    image: str = ""
    generation: int = 0
    base_fingerprint: str = ""
    deltas: list[dict] = field(default_factory=list)
    last_delta_at: str | None = None
    digests: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.base_fingerprint:
            self.base_fingerprint = self.dataset_fingerprint

    def to_payload(self) -> dict:
        """The JSON body written as ``manifest.json``."""
        return {
            "format_version": STORE_FORMAT_VERSION,
            "kind": "statistics_store",
            "dataset_fingerprint": self.dataset_fingerprint,
            "dataset_name": self.dataset_name,
            "graph_summary": self.graph_summary,
            "h": self.h,
            "molp_h": self.molp_h,
            "complete": self.complete,
            "build_config": self.build_config,
            "catalogs": sorted(self.catalogs),
            "image": self.image,
            "generation": self.generation,
            "base_fingerprint": self.base_fingerprint,
            "deltas": list(self.deltas),
            "last_delta_at": self.last_delta_at,
            "digests": dict(sorted(self.digests.items())),
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "StoreManifest":
        """Parse and version-check a ``manifest.json`` body."""
        found = payload.get("format_version")
        if found != STORE_FORMAT_VERSION:
            raise DatasetError(
                f"statistics store manifest: format_version {found!r} is "
                f"not supported (this build reads version "
                f"{STORE_FORMAT_VERSION}, one immutable image per "
                "generation); rebuild the artifact with 'repro stats build'"
            )
        try:
            last_delta_at = payload.get("last_delta_at")
            return cls(
                dataset_fingerprint=str(payload["dataset_fingerprint"]),
                dataset_name=str(payload.get("dataset_name", "")),
                graph_summary=dict(payload.get("graph_summary", {})),
                h=int(payload["h"]),
                molp_h=int(payload["molp_h"]),
                complete=bool(payload.get("complete", False)),
                build_config=dict(payload.get("build_config", {})),
                catalogs=list(payload.get("catalogs", [])),
                image=str(payload["image"]),
                generation=int(payload.get("generation", 0)),
                base_fingerprint=str(payload.get("base_fingerprint", "")),
                deltas=[dict(entry) for entry in payload.get("deltas", [])],
                last_delta_at=(
                    str(last_delta_at) if last_delta_at is not None else None
                ),
                digests={
                    str(name): str(value)
                    for name, value in payload.get("digests", {}).items()
                },
            )
        except (KeyError, ValueError, TypeError) as error:
            raise DatasetError(f"invalid statistics manifest: {error}")

    def lineage_fingerprint(self, generation: int) -> str | None:
        """The dataset fingerprint the lineage records at ``generation``.

        Walks the delta chain from ``base_fingerprint``, requiring every
        entry to name its predecessor as parent and the chain to end on
        ``dataset_fingerprint``; returns None when the chain never
        reaches ``generation``.
        """
        fingerprint = self.base_fingerprint
        found = fingerprint if generation == 0 else None
        for entry in sorted(self.deltas, key=lambda e: e.get("generation", 0)):
            if entry.get("parent_fingerprint") != fingerprint:
                raise DatasetError(
                    f"broken delta lineage at generation "
                    f"{entry.get('generation')}: parent fingerprint "
                    f"{entry.get('parent_fingerprint')} != {fingerprint}"
                )
            fingerprint = str(entry.get("fingerprint", ""))
            if int(entry.get("generation", 0)) == generation:
                found = fingerprint
        if self.deltas and fingerprint != self.dataset_fingerprint:
            raise DatasetError(
                f"delta chain ends at fingerprint {fingerprint} but the "
                f"manifest claims {self.dataset_fingerprint}"
            )
        return found

    def save(self, directory: str | Path) -> None:
        """Atomically replace ``manifest.json`` in ``directory``.

        The body goes to a temporary file, is fsynced, and is renamed
        over the old manifest, so a concurrent reader sees the old or
        the new manifest and never a truncated one.
        """
        directory = Path(directory)
        temporary = directory / f".{MANIFEST_FILE}.tmp-{os.getpid()}"
        body = json.dumps(self.to_payload(), indent=2).encode("utf-8")
        write_file_durably(temporary, body)
        os.replace(temporary, directory / MANIFEST_FILE)
        fsync_dir(directory)

    @classmethod
    def load(cls, directory: str | Path) -> "StoreManifest":
        """Read ``manifest.json`` from an artifact or image directory."""
        path = Path(directory) / MANIFEST_FILE
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except OSError as error:
            raise DatasetError(
                f"not a statistics artifact directory (no readable "
                f"{MANIFEST_FILE}): {error}"
            )
        except ValueError as error:
            raise DatasetError(f"corrupt {path}: {error}")
        if not isinstance(payload, dict):
            raise DatasetError(f"corrupt {path}: expected a JSON object")
        return cls.from_payload(payload)
