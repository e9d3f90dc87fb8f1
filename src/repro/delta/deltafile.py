"""Versioned delta files: one JSON update log per generation.

Every generation ``repro updates apply`` publishes is a complete image
(see :mod:`repro.stats.artifact`); beside it the writer appends a
``deltas/NNNN.json`` file, the lineage and audit record of that
generation.  A delta file carries

* **lineage** — generation number, parent → child dataset fingerprints,
  the applied-at timestamp and whether the apply compacted (the
  manifest mirrors these, so a chain is verifiable from the manifest
  alone);
* the **edge-update log** of the generation (``[op, src, dst, label]``
  rows), from which the mutated graph is re-derivable given the base
  dataset (:func:`repro.delta.maintain.replay_graph`);
* the **staleness ledger** recording, per catalog, whether the
  maintained state is exact (bit-identical to a cold rebuild) or merely
  refreshed (e.g. resampled cycle rates).

Catalog contents live only in the generation images.  Delta files of
older writers also carry catalog patches (and name summary files
beside them); readers ignore both.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.errors import DatasetError, check_format_version
from repro.stats.artifact import (
    DELTAS_DIR,
    delta_file_name,
    fsync_dir,
    write_file_durably,
)

__all__ = [
    "DELTA_FORMAT_VERSION",
    "read_delta",
    "write_delta",
]

DELTA_FORMAT_VERSION = 1


def read_delta(directory: str | Path, file: str) -> dict:
    """Read and version-check one delta file."""
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


def write_delta(directory: str | Path, payload: dict) -> Path:
    """Durably write one generation's update log."""
    directory = Path(directory)
    (directory / DELTAS_DIR).mkdir(parents=True, exist_ok=True)
    path = directory / delta_file_name(int(payload["generation"]))
    write_file_durably(path, json.dumps(payload).encode("utf-8"))
    fsync_dir(directory / DELTAS_DIR)
    return path
