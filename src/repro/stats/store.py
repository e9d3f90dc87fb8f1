"""The :class:`StatisticsStore` facade: one object, every summary.

A store bundles everything the estimation plane reads — Markov table,
MOLP degree catalog, optional cycle-closing rates and entropy weights,
plus the Characteristic Sets and SumRDF baseline summaries — behind a
single save/load surface.  The build plane produces it
(:func:`repro.stats.build.build_statistics`), :meth:`StatisticsStore.save`
publishes it as an immutable generation image of an artifact directory
(see :mod:`repro.stats.artifact`), and :meth:`StatisticsStore.load`
rebuilds the current generation — with or without the base graph.  A
store loaded without a graph serves estimates from its artifacts alone:
no ``count_pattern`` call, no match-table materialisation, no base-graph
scan can happen after startup.
"""

from __future__ import annotations

import json
import os
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from repro.baselines.characteristic_sets import CharacteristicSetsEstimator
from repro.baselines.sumrdf import SumRdfEstimator
from repro.catalog.cycle_rates import CycleClosingRates
from repro.catalog.degrees import DegreeCatalog
from repro.catalog.entropy import EntropyCatalog
from repro.catalog.markov import MarkovTable
from repro.errors import DatasetError
from repro.graph.digraph import LabeledDiGraph
from repro.stats.artifact import (
    CATALOG_ARRAYS_FILE,
    CATALOG_META_FILE,
    MANIFEST_FILE,
    SIDECAR_FILES,
    StoreManifest,
    dataset_fingerprint,
    fsync_dir,
    fsync_file,
    image_dir,
    image_name,
    image_sequence,
    write_file_durably,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.service.session import EstimationSession

__all__ = [
    "StatisticsStore",
    "inspect_artifact",
    "human_bytes",
    "parse_count",
]

#: How many generation images this process has loaded from disk (every
#: StatisticsStore.load, memory-mapped or not).
_PARSE_COUNT = 0


def parse_count() -> int:
    """This process's cumulative generation-load counter."""
    return _PARSE_COUNT


@dataclass
class StatisticsStore:
    """Every summary one dataset's estimator suite serves from."""

    manifest: StoreManifest
    markov: MarkovTable
    degrees: DegreeCatalog
    characteristic_sets: CharacteristicSetsEstimator | None = None
    sumrdf: SumRdfEstimator | None = None
    cycle_rates: CycleClosingRates | None = None
    entropy: EntropyCatalog | None = None
    graph: LabeledDiGraph | None = None

    @property
    def graph_free(self) -> bool:
        """Whether serving can touch a base graph at all."""
        return self.graph is None

    @property
    def h(self) -> int:
        """Markov-table size the optimistic estimators use."""
        return self.markov.h

    @property
    def molp_h(self) -> int:
        """Join-statistics size of the MOLP degree catalog."""
        return self.degrees.h

    def session(self, **kwargs) -> "EstimationSession":
        """An :class:`EstimationSession` serving from this store."""
        from repro.service.session import EstimationSession

        return EstimationSession(self.graph, store=self, **kwargs)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, directory: str | Path) -> Path:
        """Publish this store as the artifact's newest generation image.

        The image (deterministic, uncompressed, mmap-able
        ``catalogs.npz`` plus ``catalogs.meta.json``, the dict-shaped
        catalogs as JSON sidecars and a frozen manifest) is written to
        a temporary directory, fsynced and renamed to ``gen-NNNN``;
        only then is the root ``manifest.json`` atomically replaced to
        name it.  No published file is ever rewritten, so readers
        holding an older image mapped keep their bytes.  Images older
        than the previous one are deleted afterwards.  Returns the
        artifact directory.
        """
        from repro.stats.flatpack import catalogs_to_flat, write_stored_npz

        root = Path(directory)
        root.mkdir(parents=True, exist_ok=True)
        previous, sequence = _published_images(root)
        name = image_name(sequence)
        staging = root / f".{name}.tmp-{os.getpid()}"
        shutil.rmtree(staging, ignore_errors=True)
        staging.mkdir()
        catalogs = ["markov", "degrees"]
        if self.sumrdf is not None:
            catalogs.append("sumrdf")
        meta, arrays = catalogs_to_flat(self)
        write_stored_npz(staging / CATALOG_ARRAYS_FILE, arrays)
        fsync_file(staging / CATALOG_ARRAYS_FILE)
        _write_json(staging / CATALOG_META_FILE, meta, sort_keys=True)
        sidecars = {
            "characteristic_sets": self.characteristic_sets,
            "cycle_rates": self.cycle_rates,
            "entropy": self.entropy,
        }
        for catalog, value in sidecars.items():
            if value is not None:
                catalogs.append(catalog)
                _write_json(
                    staging / SIDECAR_FILES[catalog], value.to_artifact()
                )
        self.manifest.catalogs = sorted(catalogs)
        self.manifest.image = name
        self.manifest.save(staging)
        os.rename(staging, root / name)
        fsync_dir(root)
        self.manifest.save(root)
        _prune_images(root, keep={name, previous})
        return root

    @classmethod
    def load(
        cls,
        directory: str | Path,
        graph: LabeledDiGraph | None = None,
        max_rows: int | None = 5_000_000,
        mmap: bool = False,
    ) -> "StatisticsStore":
        """Load the generation image an artifact's manifest names.

        ``directory`` is an artifact root (the current image is loaded)
        or an image directory itself.  Passing the graph re-attaches the
        lazy fallback paths *and* verifies the artifact was built from
        that exact dataset (its fingerprint must match); without one the
        store is strictly graph-free.  ``mmap=True`` memory-maps the
        catalog arrays zero-copy.  A writer may delete an image two
        swaps after naming it; a load that loses that race re-reads the
        manifest once.
        """
        directory = Path(directory)
        if not directory.is_dir():
            raise DatasetError(
                f"statistics artifact directory {directory} does not exist "
                "(build one with 'repro stats build --out DIR')"
            )
        if not (directory / MANIFEST_FILE).is_file():
            raise DatasetError(
                f"{directory} is not a statistics artifact directory: it has "
                f"no {MANIFEST_FILE} (build one with 'repro stats build')"
            )
        manifest = StoreManifest.load(directory)
        try:
            return cls._load_image(manifest, directory, graph, max_rows, mmap)
        except DatasetError:
            fresh = StoreManifest.load(directory)
            if fresh.image == manifest.image:
                raise
            return cls._load_image(fresh, directory, graph, max_rows, mmap)

    @classmethod
    def _load_image(cls, manifest, directory, graph, max_rows, mmap):
        """Every catalog of the image ``manifest`` names."""
        global _PARSE_COUNT
        if graph is not None:
            fingerprint = dataset_fingerprint(graph)
            if fingerprint != manifest.dataset_fingerprint:
                raise DatasetError(
                    f"statistics artifact {directory} was built from a "
                    f"different dataset (fingerprint "
                    f"{manifest.dataset_fingerprint}, graph {fingerprint})"
                )
        from repro.stats.flatpack import (
            IMAGE_FORMAT_VERSION,
            degrees_from_flat,
            markov_from_flat,
            read_npz_arrays,
            sumrdf_from_flat,
        )

        # Cheap integrity check: the lineage must chain from the base
        # fingerprint to the current one.
        manifest.lineage_fingerprint(manifest.generation)
        image = image_dir(directory, manifest)
        meta_path = image / CATALOG_META_FILE
        arrays_path = image / CATALOG_ARRAYS_FILE
        if not meta_path.is_file() or not arrays_path.is_file():
            raise DatasetError(
                f"statistics artifact {directory} names generation image "
                f"{manifest.image!r}, which is missing {CATALOG_ARRAYS_FILE} "
                f"or {CATALOG_META_FILE}"
            )
        _PARSE_COUNT += 1
        meta = _read_json(meta_path)
        if meta.get("kind") != "flat_catalogs" or (
            int(meta.get("format_version", 0)) != IMAGE_FORMAT_VERSION
        ):
            raise DatasetError(
                f"corrupt statistics artifact {meta_path}: unexpected "
                f"kind/format_version"
            )
        try:
            arrays = read_npz_arrays(arrays_path, mmap=mmap)
            markov = markov_from_flat(meta["markov"], arrays, graph)
            degrees = degrees_from_flat(
                meta["degrees"], arrays, graph, max_rows=max_rows
            )
            sumrdf = None
            if "sumrdf" in manifest.catalogs:
                if meta.get("sumrdf") is None:
                    raise DatasetError(
                        f"statistics artifact {directory} lists the sumrdf "
                        f"catalog but {CATALOG_META_FILE} has no sumrdf entry"
                    )
                sumrdf = sumrdf_from_flat(meta["sumrdf"], arrays)
        except KeyError as error:
            raise DatasetError(
                f"corrupt statistics artifact {arrays_path}: missing "
                f"member/field {error}"
            )
        store = cls(
            manifest=manifest,
            markov=markov,
            degrees=degrees,
            sumrdf=sumrdf,
            graph=graph,
        )
        if "characteristic_sets" in manifest.catalogs:
            store.characteristic_sets = (
                CharacteristicSetsEstimator.from_artifact(
                    _read_json(image / SIDECAR_FILES["characteristic_sets"])
                )
            )
        if "cycle_rates" in manifest.catalogs:
            store.cycle_rates = CycleClosingRates.from_artifact(
                _read_json(image / SIDECAR_FILES["cycle_rates"]), graph
            )
        if "entropy" in manifest.catalogs:
            store.entropy = EntropyCatalog.from_artifact(
                _read_json(image / SIDECAR_FILES["entropy"]),
                graph,
                max_rows=max_rows,
            )
        return store


def _published_images(root: Path) -> tuple[str | None, int]:
    """(the image the manifest names, the next image sequence number)."""
    try:
        current = StoreManifest.load(root).image or None
    except DatasetError:  # no artifact yet, or one this build cannot read
        current = None
    sequences = [
        image_sequence(path.name) for path in root.iterdir() if path.is_dir()
    ]
    if current is not None:
        sequences.append(image_sequence(current))
    known = [sequence for sequence in sequences if sequence is not None]
    return current, max(known, default=-1) + 1


def _prune_images(root: Path, keep: set) -> None:
    """Delete every image but ``keep``, and staging leftovers.

    A reader that resolved a deleted image before the swap either holds
    it open (its mappings stay valid) or re-reads the manifest.
    """
    for path in root.iterdir():
        if not path.is_dir() or path.name in keep:
            continue
        if image_sequence(path.name) is not None or (
            path.name.startswith(".gen-") and ".tmp-" in path.name
        ):
            shutil.rmtree(path, ignore_errors=True)


def _write_json(path: Path, payload: dict, sort_keys: bool = False) -> None:
    body = json.dumps(payload, sort_keys=sort_keys).encode("utf-8")
    write_file_durably(path, body)


def _read_json(path: Path) -> dict:
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except OSError as error:
        raise DatasetError(f"statistics artifact is missing {path.name}: {error}")
    except ValueError as error:
        raise DatasetError(f"corrupt statistics artifact {path}: {error}")
    if not isinstance(payload, dict):
        raise DatasetError(f"corrupt statistics artifact {path}")
    return payload


def human_bytes(size: int) -> str:
    """``1234567`` → ``"1.2 MB"`` (decimal units, one decimal place)."""
    value = float(size)
    for unit in ("B", "kB", "MB", "GB"):
        # Threshold on the *rendered* value so 999_999 B is "1.0 MB",
        # never the nonsensical "1000.0 kB".
        if round(value, 1) < 1000 or unit == "GB":
            if unit == "B":
                return f"{int(value)} B"
            return f"{value:.1f} {unit}"
        value /= 1000.0
    raise AssertionError("unreachable")


def inspect_artifact(directory: str | Path) -> dict:
    """Manifest plus per-catalog entry counts and on-disk sizes.

    The size report is the operator's check of the paper's "sub-MB
    summaries" claim: ``files`` maps each file of the current image
    (and each delta update log) to its byte count (plus entry counts
    for JSON catalogs), ``catalogs`` keys the same sizes by catalog
    name with human-readable values, and ``total_bytes``/``total_human``
    aggregate them.
    """
    directory = Path(directory)
    if not directory.is_dir():
        raise DatasetError(
            f"statistics artifact directory {directory} does not exist"
        )
    manifest = StoreManifest.load(directory)
    image = image_dir(directory, manifest)
    report: dict = {"directory": str(directory), **manifest.to_payload()}
    files: dict[str, dict] = {}
    catalogs: dict[str, dict] = {}
    total = 0
    pairs = [
        ("manifest", MANIFEST_FILE),
        ("catalogs", CATALOG_ARRAYS_FILE),
        ("catalogs_meta", CATALOG_META_FILE),
    ]
    pairs += [
        (catalog, SIDECAR_FILES[catalog])
        for catalog in manifest.catalogs
        if catalog in SIDECAR_FILES
    ]
    for catalog, name in pairs:
        path = image / name
        if not path.exists():
            files[name] = {"missing": True}
            catalogs[catalog] = {"file": name, "missing": True}
            continue
        size = path.stat().st_size
        total += size
        entry: dict = {"bytes": size}
        if name.endswith(".json") and name != MANIFEST_FILE:
            payload = _read_json(path)
            for field in ("entries", "relations", "sets"):
                if field in payload:
                    entry["entries"] = len(payload[field])
        files[name] = entry
        catalogs[catalog] = {
            "file": name,
            "bytes": size,
            "human": human_bytes(size),
            **(
                {"entries": entry["entries"]} if "entries" in entry else {}
            ),
        }
    if (image / CATALOG_META_FILE).exists():
        report["flat"] = _inspect_flat(image, catalogs)
    for entry in manifest.deltas:
        for name in (entry.get("file"), _delta_sibling(directory, entry)):
            if not name:
                continue
            path = directory / name
            if not path.exists():
                files[name] = {"missing": True}
                continue
            size = path.stat().st_size
            total += size
            files[name] = {
                "bytes": size,
                "generation": entry.get("generation"),
            }
    report["files"] = files
    report["catalogs_sizes"] = catalogs
    report["total_bytes"] = total
    report["total_human"] = human_bytes(total)
    report["sub_mb"] = total < 1_000_000
    build_config = manifest.build_config
    if "levels" in build_config:
        # Per-level timings the bulk builder recorded (jobs, examined /
        # stored pattern counts, resume provenance) — the operator's
        # view of how the offline build spent its time.
        report["build"] = {
            "jobs": build_config.get("jobs"),
            "build_seconds": build_config.get("build_seconds"),
            "peak_level_width": build_config.get("peak_level_width"),
            "levels": build_config.get("levels"),
            "resumed_levels": sum(
                1
                for level in build_config.get("levels", [])
                if level.get("resumed")
            ),
        }
    return report


def _inspect_flat(directory: Path, catalogs: dict) -> dict:
    """Per-catalog array breakdown of a generation image.

    Sums the uncompressed NPZ member sizes by catalog prefix — exactly
    the bytes ``mmap=True`` maps for each catalog — and surfaces the
    entry/irregular counts recorded in ``catalogs.meta.json``.  Also
    back-fills per-catalog rows into ``catalogs`` (mapped bytes
    standing in for file bytes) so markov/degrees get their own rows.
    """
    import zipfile

    meta = _read_json(directory / CATALOG_META_FILE)
    mapped: dict[str, int] = {}
    try:
        with zipfile.ZipFile(directory / CATALOG_ARRAYS_FILE) as archive:
            for info in archive.infolist():
                prefix = info.filename.split("::", 1)[0]
                mapped[prefix] = mapped.get(prefix, 0) + info.file_size
    except (OSError, zipfile.BadZipFile):
        mapped = {}
    report: dict[str, dict] = {}
    for name in ("markov", "degrees", "sumrdf"):
        catalog_meta = meta.get(name)
        if catalog_meta is None:
            continue
        entry: dict = {
            "mapped_bytes": mapped.get(name, 0),
            "mapped_human": human_bytes(mapped.get(name, 0)),
        }
        if "entries" in catalog_meta:
            entry["entries"] = int(catalog_meta["entries"]) + len(
                catalog_meta.get("irregular", [])
            )
        irregular = catalog_meta.get("irregular")
        if irregular is not None:
            entry["irregular"] = len(irregular)
        report[name] = entry
        catalogs.setdefault(
            name,
            {
                "file": CATALOG_ARRAYS_FILE,
                "bytes": 0,  # counted once under "catalogs"
                **{
                    k: entry[k]
                    for k in ("mapped_bytes", "mapped_human", "entries")
                    if k in entry
                },
            },
        )
    return report


def _delta_sibling(directory: Path, entry: dict) -> str | None:
    """The rebuilt-SumRDF sibling of a delta file, if it exists."""
    file = entry.get("file")
    if not file or not str(file).endswith(".json"):
        return None
    sibling = str(file)[: -len(".json")] + ".sumrdf.npz"
    return sibling if (directory / sibling).exists() else None
