"""Offline statistics pipeline: build plane vs serve plane.

The paper's deployment story (§6) computes all summaries *offline* —
sub-MB Markov tables, degree statistics, cycle-closing rates — and
ships them to the optimizer, which never touches the base graph at
estimation time.  This package is that separation:

* :func:`build_statistics` — the **build plane**: bulk-enumerate and
  batch-count every summary a configured estimator suite needs;
* :class:`StatisticsStore` — the artifact facade: one versioned
  directory of immutable generation images (see
  :mod:`repro.stats.artifact`) published by
  :meth:`~StatisticsStore.save` and memory-mapped by
  :meth:`~StatisticsStore.load`;
* the **serve plane**: ``store.session()`` (or
  ``EstimationSession(store=...)``) serves estimates bit-identical to
  the graph-backed path, with zero engine calls after startup when the
  store is loaded graph-free.
"""

from repro.stats.artifact import (
    STORE_FORMAT_VERSION,
    StoreManifest,
    dataset_fingerprint,
)
from repro.stats.build import (
    StatsBuildConfig,
    build_statistics,
    extend_statistics,
)
from repro.stats.store import StatisticsStore, inspect_artifact

__all__ = [
    "STORE_FORMAT_VERSION",
    "StoreManifest",
    "dataset_fingerprint",
    "StatsBuildConfig",
    "build_statistics",
    "extend_statistics",
    "StatisticsStore",
    "inspect_artifact",
]
