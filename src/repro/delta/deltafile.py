"""Versioned delta files: one JSON update log per generation.

Every generation ``repro updates apply`` publishes is a complete image
(see :mod:`repro.stats.artifact`); beside it the writer appends a
``deltas/NNNN.json`` file, the lineage and audit record of that
generation.  A delta file carries

* **lineage** — generation number, parent → child dataset fingerprints
  and the applied-at timestamp (the manifest mirrors these, so a chain
  is verifiable from the manifest alone);
* the **edge-update log** of the generation (``[op, src, dst, label]``
  rows), from which the mutated graph is re-derivable given the base
  dataset (:func:`repro.delta.maintain.replay_graph`);
* the **catalog patches** the incremental maintainer computed — Markov
  entries set/deleted, degree relations replaced/deleted, entropy
  entries recomputed, resampled cycle rates and rebuilt baseline
  summaries;
* the **staleness ledger** recording, per catalog, whether the patch is
  exact (bit-identical to a cold rebuild) or merely refreshed (e.g.
  resampled cycle rates).
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.baselines.sumrdf import SumRdfEstimator
from repro.errors import DatasetError, check_format_version
from repro.stats.artifact import (
    DELTAS_DIR,
    delta_file_name,
    fsync_dir,
    fsync_file,
    write_file_durably,
)

__all__ = [
    "DELTA_FORMAT_VERSION",
    "encode_keys",
    "read_delta",
    "write_delta",
]

DELTA_FORMAT_VERSION = 1


def encode_keys(keys) -> list:
    """Canonical pattern keys → JSON nested lists (sorted, stable)."""
    return [[list(atom) for atom in key] for key in sorted(keys)]


def sumrdf_file_name(generation: int) -> str:
    """Relative path of one generation's rebuilt SumRDF summary."""
    return f"{DELTAS_DIR}/{generation:04d}.sumrdf.npz"


def read_delta(directory: str | Path, file: str) -> dict:
    """Read and version-check one delta patch file."""
    path = Path(directory) / file
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except OSError as error:
        raise DatasetError(
            f"statistics artifact is missing delta file {file}: {error}"
        )
    except ValueError as error:
        raise DatasetError(f"corrupt delta file {path}: {error}")
    if not isinstance(payload, dict):
        raise DatasetError(f"corrupt delta file {path}: expected a JSON object")
    check_format_version(payload, DELTA_FORMAT_VERSION, "statistics delta")
    return payload


def write_delta(
    directory: str | Path,
    payload: dict,
    sumrdf: SumRdfEstimator | None = None,
) -> Path:
    """Durably write one generation's update log (plus SumRDF sibling)."""
    directory = Path(directory)
    generation = int(payload["generation"])
    (directory / DELTAS_DIR).mkdir(parents=True, exist_ok=True)
    if sumrdf is not None:
        payload = dict(payload, sumrdf_file=sumrdf_file_name(generation))
        np.savez_compressed(
            directory / sumrdf_file_name(generation), **sumrdf.to_artifact()
        )
        fsync_file(directory / sumrdf_file_name(generation))
    path = directory / delta_file_name(generation)
    write_file_durably(path, json.dumps(payload).encode("utf-8"))
    fsync_dir(directory / DELTAS_DIR)
    return path
