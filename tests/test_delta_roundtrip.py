"""Round-trip identity: insert a random batch, delete it, nothing moved.

Applying a random batch of *effective* inserts and then deleting exactly
those edges must restore every catalog bit-identically — the strongest
cheap invariant of the incremental maintainers, since it composes two
full maintenance passes (discovery + recount on the way in, zero-drop +
recount on the way out) and any asymmetry between them shows up as a
byte diff.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.datasets.presets import running_example_graph
from repro.delta import (
    DELETE,
    INSERT,
    EdgeUpdate,
    UpdateBatch,
    apply_updates,
    normalize_updates,
)
from repro.stats import StatsBuildConfig, build_statistics
from repro.stats.artifact import dataset_fingerprint
from repro.stats.flatpack import degrees_to_flat

LABELS = ("A", "B", "C", "D", "E", "NEW")

# Vertex ids stay inside the example graph's 13-vertex universe: an
# insert past it would *grow* the universe, and deletion cannot shrink
# it back — a fingerprint change by design, not a maintenance bug.
edges = st.tuples(
    st.integers(min_value=0, max_value=12),
    st.integers(min_value=0, max_value=12),
    st.sampled_from(LABELS),
)


def degree_image(degrees):
    """The degree catalog's image content, bytes and all."""
    meta, arrays = degrees_to_flat(degrees)
    return meta, {
        name: (array.dtype.str, array.tobytes())
        for name, array in arrays.items()
    }


def snapshot(store):
    return {
        "markov": store.markov.to_artifact(),
        "degrees": degree_image(store.degrees),
        "fingerprint": dataset_fingerprint(store.graph),
    }


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(st.lists(edges, min_size=1, max_size=8))
def test_insert_then_delete_same_edges_restores_catalogs(triples):
    graph = running_example_graph()
    store = build_statistics(
        graph, StatsBuildConfig(h=2, molp_h=2)
    )
    before = snapshot(store)
    batch = UpdateBatch(
        EdgeUpdate(INSERT, src, dst, label) for src, dst, label in triples
    )
    effective, _ = normalize_updates(graph, batch)
    outcome = apply_updates(store, batch, compact_threshold=100.0)
    assert outcome.inserts == len(effective)
    inverse = UpdateBatch(
        EdgeUpdate(DELETE, src, dst, label)
        for src, dst, label in sorted(effective)
    )
    undo = apply_updates(store, inverse, compact_threshold=100.0)
    assert undo.deletes == len(effective)
    assert snapshot(store) == before


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    st.lists(edges, min_size=1, max_size=6),
    st.lists(edges, min_size=0, max_size=6),
)
def test_mixed_batch_then_exact_inverse_restores_catalogs(adds, removes):
    """The general inverse: delete the effective inserts, re-insert the
    effective deletes (op-wise mirroring is *not* an inverse for no-op
    operations, which is exactly what set semantics dictates)."""
    graph = running_example_graph()
    store = build_statistics(
        graph, StatsBuildConfig(h=2, molp_h=2)
    )
    before = snapshot(store)
    batch = UpdateBatch(
        [EdgeUpdate(INSERT, *edge[:2], edge[2]) for edge in adds]
        + [EdgeUpdate(DELETE, *edge[:2], edge[2]) for edge in removes]
    )
    inserted, deleted = normalize_updates(graph, batch)
    apply_updates(store, batch, compact_threshold=100.0)
    inverse = UpdateBatch(
        [EdgeUpdate(DELETE, *t[:2], t[2]) for t in sorted(inserted)]
        + [EdgeUpdate(INSERT, *t[:2], t[2]) for t in sorted(deleted)]
    )
    apply_updates(store, inverse, compact_threshold=100.0)
    assert snapshot(store) == before
