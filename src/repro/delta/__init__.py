"""Dynamic-graph delta subsystem: statistics that track a mutating graph.

The paper's sub-MB summaries are cheap to keep *fresh*, not just cheap
to ship — this package makes the repo's serving stack dynamic:

* :mod:`repro.delta.updates` — the edge-update log (signed labeled
  triples batched into generations) and its set-semantics normal form;
* :mod:`repro.delta.overlay` — :class:`MutableGraphOverlay`, pending
  edits layered over the immutable graph, sealed by ``materialize()``;
* :mod:`repro.delta.counting` — the delta-join identity: pattern
  recounting seeded at the touched edges;
* :mod:`repro.delta.maintain` — :func:`apply_updates`, the incremental
  maintainer producing catalogs bit-identical to a cold rebuild on the
  mutated graph (with a cold-rebuild fallback past a volume threshold),
  which publishes every generation as a complete image that
  :meth:`~repro.server.registry.StoreRegistry.apply_deltas` swaps live
  tenants onto without dropping in-flight requests.  It discovers newly
  non-empty patterns with the offline builder's own level step and
  stores every recounted pattern by the builder's rule;
* :mod:`repro.delta.deltafile` — versioned ``deltas/NNNN.json`` update
  logs, the lineage and audit record of each generation.
"""

from repro.delta.counting import delta_count_with_touch
from repro.delta.deltafile import (
    DELTA_FORMAT_VERSION,
    read_delta,
    write_delta,
)
from repro.delta.maintain import (
    MaintenanceOutcome,
    apply_updates,
    discover_new_patterns,
    replay_graph,
)
from repro.delta.overlay import MutableGraphOverlay
from repro.delta.updates import (
    DELETE,
    INSERT,
    EdgeUpdate,
    UpdateBatch,
    normalize_updates,
    random_update_batch,
)

__all__ = [
    "DELTA_FORMAT_VERSION",
    "INSERT",
    "DELETE",
    "EdgeUpdate",
    "UpdateBatch",
    "normalize_updates",
    "random_update_batch",
    "MutableGraphOverlay",
    "delta_count_with_touch",
    "discover_new_patterns",
    "MaintenanceOutcome",
    "apply_updates",
    "replay_graph",
    "read_delta",
    "write_delta",
]
