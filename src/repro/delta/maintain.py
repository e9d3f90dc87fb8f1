"""Incremental statistics maintenance for mutating graphs.

:func:`apply_updates` is the dynamic-graph subsystem's engine: given a
graph-attached :class:`~repro.stats.store.StatisticsStore` and one
:class:`~repro.delta.updates.UpdateBatch`, it seals the batch into a new
graph generation and patches every catalog so the store is exactly what
:func:`~repro.stats.build.build_statistics` would produce cold on the
mutated graph — without rebuilding from scratch:

* **Markov counts** move by the delta-join identity of
  :mod:`repro.delta.counting`: only patterns over touched labels are
  visited, and each is recounted by joining outward from the (tiny)
  insert/delete relations.  Complete artifacts additionally *discover*
  newly non-empty patterns around the inserts (with the builder's level
  step) and drop patterns whose count reached zero (cold enumeration
  never stores zeros).
* **Degree relations** are rebuilt only for shapes whose match support
  actually changed (the seeded joins double as exact change detectors)
  or whose canonical parent's relation came or went (a table grows
  along its parent chain, so a ``max_rows`` overflow is inherited);
  untouched relations are carried over byte-identically.  Every
  recounted or discovered pattern is stored by the builder's own rule.
* **Cycle rates** are resampled on the new graph.  The *staleness
  ledger* records which catalogs are exact vs merely refreshed.

When the effective update volume crosses ``compact_threshold`` of the
graph, incremental bookkeeping stops paying for itself and
:func:`apply_updates` falls back to a cold rebuild (mode
``"compacted"``).  Either way, an apply with a ``directory`` appends
the generation's ``deltas/NNNN.json`` update log and publishes the
post-apply store as a new immutable generation image.
:func:`replay_graph` re-derives the mutated graph from the base dataset
plus the recorded update logs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

from repro.catalog.cycle_rates import CycleClosingRates
from repro.delta.counting import delta_count_with_touch
from repro.delta.deltafile import DELTA_FORMAT_VERSION, read_delta, write_delta
from repro.delta.overlay import MutableGraphOverlay
from repro.delta.updates import UpdateBatch
from repro.errors import DatasetError, ReproError
from repro.graph.digraph import LabeledDiGraph
from repro.obs.offline import JobTelemetry
from repro.query.canonical import canonical_parent, key_pattern
from repro.stats.artifact import (
    StoreManifest,
    dataset_fingerprint,
    delta_file_name,
)
from repro.stats.build import (
    StatsBuildConfig,
    _level_step,
    _materialise_and_record,
    _TaskResult,
    build_statistics,
)
from repro.stats.store import StatisticsStore

__all__ = [
    "MaintenanceOutcome",
    "config_from_manifest",
    "apply_updates",
    "discover_new_patterns",
    "replay_graph",
]


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _lineage_age_seconds(applied_at: str | None) -> float | None:
    """Seconds since an ISO ``applied_at`` lineage stamp (None if absent)."""
    if not applied_at:
        return None
    try:
        then = datetime.fromisoformat(applied_at)
    except ValueError:
        return None
    if then.tzinfo is None:
        then = then.replace(tzinfo=timezone.utc)
    return max((datetime.now(timezone.utc) - then).total_seconds(), 0.0)


def _observe_apply(
    telemetry: JobTelemetry,
    outcome: MaintenanceOutcome,
    previous_applied_at: str | None,
) -> None:
    """Record one apply's IVM-vs-rebuild decision and lineage freshness."""
    registry = telemetry.registry
    registry.counter(
        "repro_delta_applies_total",
        "Update-batch applies by maintenance decision "
        "(incremental = IVM, compacted = cold rebuild, noop = empty batch).",
        labels=("mode",),
    ).inc(mode=outcome.mode)
    if outcome.mode == "compacted":
        registry.counter(
            "repro_delta_compactions_total",
            "Applies that fell back to a compacting cold rebuild.",
        ).inc()
    if "compaction" in outcome.ledger:
        registry.counter(
            "repro_delta_compactions_skipped_total",
            "Threshold-crossing applies kept incremental because a "
            "workload-free rebuild cannot reproduce the catalogs.",
        ).inc()
    age = _lineage_age_seconds(previous_applied_at)
    if age is not None:
        registry.gauge(
            "repro_delta_lineage_age_seconds",
            "Age of the previous delta generation when this apply landed "
            "(staleness of the lineage between updates).",
        ).set(round(age, 3))
    registry.gauge(
        "repro_delta_generation",
        "Artifact generation after the apply.",
    ).set(outcome.generation)
    telemetry.trace.note(
        mode=outcome.mode,
        generation=outcome.generation,
        inserts=outcome.inserts,
        deletes=outcome.deletes,
    )


@dataclass
class MaintenanceOutcome:
    """What one :func:`apply_updates` call did, for operators and tests."""

    mode: str  # "incremental" | "compacted" | "noop"
    generation: int
    parent_fingerprint: str
    fingerprint: str
    requested: int
    inserts: int
    deletes: int
    markov: dict = field(default_factory=dict)
    degrees: dict = field(default_factory=dict)
    ledger: dict = field(default_factory=dict)
    seconds: float = 0.0
    delta_file: str | None = None

    def as_dict(self) -> dict:
        """JSON-friendly form (the ``repro updates apply`` report)."""
        return {
            "mode": self.mode,
            "generation": self.generation,
            "parent_fingerprint": self.parent_fingerprint,
            "fingerprint": self.fingerprint,
            "requested": self.requested,
            "inserts": self.inserts,
            "deletes": self.deletes,
            "markov": dict(self.markov),
            "degrees": dict(self.degrees),
            "ledger": dict(self.ledger),
            "seconds": self.seconds,
            "delta_file": self.delta_file,
        }


def _subgraph(
    triples: frozenset[tuple[int, int, str]], num_vertices: int
) -> LabeledDiGraph | None:
    """A graph holding only the given triples (None when empty)."""
    if not triples:
        return None
    return LabeledDiGraph.from_triples(triples, num_vertices=num_vertices)


def _resample_cycle_rates(
    old: CycleClosingRates, graph: LabeledDiGraph
) -> CycleClosingRates:
    """A fresh rate table covering the old table's specs, sampled anew.

    Walks traverse arbitrary labels, so *any* graph change can shift any
    rate; re-sampling every stored spec in sorted-key order (one fresh
    RNG stream) keeps the table deterministic given the artifact, though
    not bit-identical to a cold workload-order rebuild — the ledger says
    so.
    """
    fresh = CycleClosingRates(graph, seed=old.seed, samples=old.samples)
    for key in sorted(old._cache):
        first, last, closing, directions, closing_forward = key
        assert fresh._sampler is not None
        closed, completed = fresh._sampler.random_walk_closure(
            first_label=first,
            last_label=last,
            closing_label=closing,
            directions=directions,
            closing_forward=closing_forward,
            samples=fresh.samples,
        )
        if completed == 0:
            rate: float | None = None
        elif closed == 0:
            rate = 0.5 / completed
        else:
            rate = closed / completed
        fresh._cache[key] = rate
    return fresh


def config_from_manifest(manifest: StoreManifest):
    """Reconstruct the build configuration an artifact records."""
    known = StatsBuildConfig.__dataclass_fields__
    kwargs = {
        key: value
        for key, value in manifest.build_config.items()
        if key in known
    }
    return StatsBuildConfig(**kwargs)


def apply_updates(
    store: StatisticsStore,
    batch: UpdateBatch,
    directory: str | Path | None = None,
    compact_threshold: float = 0.2,
    telemetry: JobTelemetry | None = None,
) -> MaintenanceOutcome:
    """Apply one update generation to a graph-attached store, in place.

    Patches every catalog to exactly the cold-rebuild state on the
    mutated graph (or falls back to an actual cold rebuild past
    ``compact_threshold``), swaps ``store.graph`` to the new generation
    and, when ``directory`` is given, appends the versioned
    ``deltas/NNNN.json`` update log and publishes the store as the
    artifact's next generation image (:meth:`StatisticsStore.save`).

    ``telemetry`` (a silent bundle when omitted) records the apply as
    an offline-plane trace — a ``maintain`` span (the IVM / cold-rebuild
    work; an incremental one carries its phase seconds as attributes,
    see :func:`_maintain_incremental`), a ``persist`` span (update log +
    generation image I/O), decision counters and a lineage-age gauge —
    without perturbing the outcome or any catalog bytes.
    """
    if store.graph is None:
        raise DatasetError(
            "delta maintenance needs the base graph attached; load the "
            "store with StatisticsStore.load(dir, graph=...)"
        )
    if store.markov.count_budget is not None:
        raise DatasetError(
            "delta maintenance does not support budgeted Markov tables "
            "(stored counts may be missing); rebuild the artifact instead"
        )
    telemetry = telemetry or JobTelemetry("updates.apply")
    started = time.perf_counter()
    previous_applied_at = store.manifest.last_delta_at
    # Maintenance diffs and mutates the catalog caches directly; fold
    # any flat array backing in first so deletions actually delete.
    store.markov.materialize()
    store.degrees.materialize()
    old_graph = store.graph
    overlay = MutableGraphOverlay(old_graph)
    overlay.apply_batch(batch)
    parent_fingerprint = store.manifest.dataset_fingerprint
    if not overlay.pending:
        outcome = MaintenanceOutcome(
            mode="noop",
            generation=store.manifest.generation,
            parent_fingerprint=parent_fingerprint,
            fingerprint=parent_fingerprint,
            requested=len(batch),
            inserts=0,
            deletes=0,
            seconds=time.perf_counter() - started,
        )
        _observe_apply(telemetry, outcome, previous_applied_at)
        return outcome
    inserts = overlay.pending_inserts
    deletes = overlay.pending_deletes
    new_graph = overlay.materialize()
    fingerprint = dataset_fingerprint(new_graph)
    generation = store.manifest.generation + 1
    outcome = MaintenanceOutcome(
        mode="incremental",
        generation=generation,
        parent_fingerprint=parent_fingerprint,
        fingerprint=fingerprint,
        requested=len(batch),
        inserts=len(inserts),
        deletes=len(deletes),
    )

    # A threshold-crossing batch falls back to a cold rebuild — but only
    # when a workload-free rebuild can actually reproduce every catalog:
    # cycle rates are primed from a workload the artifact does not
    # record, and an incomplete Markov table means absence is not
    # emptiness.  Such artifacts stay on the incremental path and
    # the ledger says why, so --compact-threshold is never silently inert.
    compactable = store.markov.complete and store.cycle_rates is None
    over_threshold = (
        overlay.pending > compact_threshold * max(new_graph.num_edges, 1)
    )
    maintain_began = time.perf_counter()
    phases: dict[str, float] = {}
    if compactable and over_threshold:
        _rebuild_cold(store, new_graph, outcome)
    else:
        phases = _maintain_incremental(
            store, old_graph, new_graph, overlay, outcome
        )
        if over_threshold:
            outcome.ledger["compaction"] = (
                "skipped despite crossing compact_threshold: the artifact "
                "holds workload-primed cycle rates or "
                "an incomplete Markov table that a workload-free cold "
                "rebuild cannot reproduce"
            )
    telemetry.trace.add_span(
        "maintain",
        maintain_began,
        time.perf_counter() - maintain_began,
        generation=generation,
        mode=outcome.mode,
        inserts=len(inserts),
        deletes=len(deletes),
        **{name: round(seconds, 6) for name, seconds in phases.items()},
    )

    store.graph = new_graph
    store.markov.graph = new_graph if store.markov.graph is not None else None
    store.degrees.graph = (
        new_graph if store.degrees.graph is not None else None
    )
    applied_at = _utc_now()
    manifest = store.manifest
    manifest.dataset_fingerprint = fingerprint
    manifest.graph_summary = new_graph.summary()
    manifest.generation = generation
    manifest.last_delta_at = applied_at
    manifest.complete = store.markov.complete and store.degrees.complete
    lineage = {
        # In-memory applies (directory=None) persist no update log; the
        # entry still records the fingerprint chain.
        "file": delta_file_name(generation) if directory is not None else None,
        "generation": generation,
        "parent_fingerprint": parent_fingerprint,
        "fingerprint": fingerprint,
        "applied_at": applied_at,
        "inserts": len(inserts),
        "deletes": len(deletes),
        "compacted": outcome.mode == "compacted",
    }
    manifest.deltas.append(lineage)

    persist_began = time.perf_counter()
    if directory is not None:
        directory = Path(directory)
        payload = {
            "format_version": DELTA_FORMAT_VERSION,
            "kind": "statistics_delta",
            "generation": generation,
            "parent_fingerprint": parent_fingerprint,
            "fingerprint": fingerprint,
            "applied_at": applied_at,
            "compacted": outcome.mode == "compacted",
            "updates": batch.to_rows(),
            "staleness": dict(outcome.ledger),
        }
        path = write_delta(directory, payload)
        outcome.delta_file = str(path.relative_to(directory))
        # The update log lands first: a crash before the swap leaves a
        # log the manifest does not list, and readers keep the old image.
        store.save(directory)
        telemetry.trace.add_span(
            "persist",
            persist_began,
            time.perf_counter() - persist_began,
            generation=generation,
            file=outcome.delta_file,
        )
    outcome.seconds = time.perf_counter() - started
    _observe_apply(telemetry, outcome, previous_applied_at)
    return outcome


def discover_new_patterns(
    new_graph: LabeledDiGraph,
    insert_graph: LabeledDiGraph,
    h_enum: int,
    known: set[tuple],
    max_rows: int | None = None,
) -> set[tuple]:
    """Canonical keys (≤ ``h_enum`` atoms) that may be newly non-empty.

    Every new match uses an inserted edge, so the builder's level step
    grows connected patterns with the first atom bound to the insert
    relations and every other atom to the mutated graph; a child whose
    seeded table is empty has no new match through that seed, so its
    subtree is pruned.  Returns the keys absent from ``known`` (the
    stored keys): a superset of the newly non-empty patterns.
    """
    found: set[tuple] = set()
    seen: set = set()
    labels = insert_graph.labels
    level = None
    for _ in range(h_enum):
        grown = []
        for child, key, table in _level_step(
            insert_graph, new_graph, labels, level, max_rows, seen
        ):
            if table is not None and table.size == 0:
                continue
            if key not in known:
                found.add(key)
            grown.append((child, table))
        if not grown:
            break
        level, labels = grown, new_graph.labels
    return found


def _maintain_incremental(
    store: StatisticsStore,
    old_graph: LabeledDiGraph,
    new_graph: LabeledDiGraph,
    overlay: MutableGraphOverlay,
    outcome: MaintenanceOutcome,
) -> dict[str, float]:
    """The incremental path: patch catalogs key by key, smallest first.

    Counts move by the delta-join identity.  A touched key whose count
    or support changed, or whose canonical parent's relation came or
    went, is stored again by the builder's rule
    (:func:`~repro.stats.build._materialise_and_record`), as is every
    newly discovered key of a complete store.

    Returns the seconds of its phases: ``delta_counts_s`` (the
    delta-join counts of stored keys), ``rebuild_s`` (storing keys
    again: match tables and degree relations) and ``discover_s`` (the
    search for newly non-empty keys).
    """
    phases = {"delta_counts_s": 0.0, "rebuild_s": 0.0, "discover_s": 0.0}
    touched = overlay.touched_labels()
    n = new_graph.num_vertices
    insert_graph = _subgraph(overlay.pending_inserts, n)
    delete_graph = _subgraph(overlay.pending_deletes, n)
    config = StatsBuildConfig(
        h=store.markov.h,
        molp_h=store.degrees.h,
        max_rows=store.degrees.max_rows,
    )
    complete = store.markov.complete
    markov = store.markov._cache
    degrees = store.degrees._cache

    counters = {
        "updated": 0,
        "added": 0,
        "removed": 0,
        "unchanged_support": 0,
        "skipped_untouched": 0,
        "recounted_cold": 0,
    }
    degree_counters = {"rebuilt": 0, "removed": 0, "added": 0, "kept": 0}
    result = _TaskResult()
    recorded: list[tuple] = []
    # Keys whose relation came or went.  A table grows along its parent
    # chain, so a child follows its parent's flip even with unchanged
    # support; size order settles every parent before its children.
    flipped: set[tuple] = set()

    stored_keys = set(markov) | set(degrees)
    for key in sorted(stored_keys, key=lambda key: (len(key), key)):
        if not {label for _, _, label in key} & touched:
            counters["skipped_untouched"] += 1
            degree_counters["kept"] += key in degrees
            continue
        old_count = markov[key] if key in markov else degrees[key].cardinality
        pattern = key_pattern(key)
        count: float | None
        began = time.perf_counter()
        try:
            delta, support_changed = delta_count_with_touch(
                pattern,
                old_graph,
                new_graph,
                insert_graph,
                delete_graph,
                max_rows=config.max_rows,
            )
            count = old_count + delta
        except ReproError:
            counters["recounted_cold"] += 1
            count, support_changed = None, True
        phases["delta_counts_s"] += time.perf_counter() - began
        if not support_changed and (
            len(key) > config.molp_h
            or not flipped
            or canonical_parent(key) not in flipped
        ):
            # No delta term matched and the parent's relation stands:
            # count and relation are unchanged.
            counters["unchanged_support"] += 1
            degree_counters["kept"] += key in degrees
            continue
        relations_before = len(result.relations)
        began = time.perf_counter()
        _materialise_and_record(
            new_graph, config, pattern, key, result,
            store_zeros=not complete, count=count,
        )
        phases["rebuild_s"] += time.perf_counter() - began
        recorded.append(key)
        if (len(result.relations) > relations_before) != (key in degrees):
            flipped.add(key)

    if complete and insert_graph is not None:
        began = time.perf_counter()
        found = discover_new_patterns(
            new_graph, insert_graph, max(config.h, config.molp_h),
            known=stored_keys, max_rows=config.max_rows,
        )
        phases["discover_s"] = time.perf_counter() - began
        began = time.perf_counter()
        for key in sorted(found):
            _materialise_and_record(
                new_graph, config, key_pattern(key), key, result,
                store_zeros=False,
            )
            recorded.append(key)
        phases["rebuild_s"] += time.perf_counter() - began

    counts = dict(result.records)
    relations = {relation.key: relation for relation in result.relations}
    for key in recorded:
        count = counts.get(key)
        if count is None:  # a complete store drops what reached zero
            counters["removed"] += key in markov or key in degrees
            markov.pop(key, None)
        elif len(key) <= config.h:
            if key not in markov:
                counters["added"] += 1
            elif markov[key] != count:
                counters["updated"] += 1
            markov[key] = count
        relation = relations.get(key)
        if relation is not None:
            degree_counters["rebuilt" if key in degrees else "added"] += 1
            degrees[key] = relation
        elif degrees.pop(key, None) is not None:
            degree_counters["removed"] += 1
    store.markov.labels = new_graph.labels
    store.markov.complete &= result.markov_complete
    if store.markov.complete and config.molp_h <= config.h:
        # Every pattern a relation is due for has a Markov key, so the
        # overflowed ones are exactly the keys without a relation.
        store.degrees.complete = all(
            key in degrees for key in markov if len(key) <= config.molp_h
        )
    else:
        store.degrees.complete &= result.degrees_complete

    outcome.markov = counters
    outcome.degrees = degree_counters
    ledger = {"markov": "exact", "degrees": "exact"}
    if complete and config.molp_h > config.h and not store.degrees.complete:
        ledger["degrees"] = (
            "incomplete: a pattern of more than h atoms whose match table "
            "overflowed max_rows is stored nowhere, so maintenance cannot "
            "tell whether it fits now; the stored relations may differ "
            "from a cold rebuild's"
        )

    if store.cycle_rates is not None:
        store.cycle_rates = _resample_cycle_rates(
            store.cycle_rates, new_graph
        )
        ledger["cycle_rates"] = (
            "resampled on the new graph (statistically equivalent, not "
            "RNG-stream-identical to a cold workload-order rebuild)"
        )
    outcome.ledger = ledger
    return phases


def _rebuild_cold(
    store: StatisticsStore,
    new_graph: LabeledDiGraph,
    outcome: MaintenanceOutcome,
) -> None:
    """The compaction path: a cold rebuild replacing every catalog."""
    config = config_from_manifest(store.manifest)
    built = build_statistics(
        new_graph,
        config,
        workload=None,
        dataset_name=store.manifest.dataset_name,
    )
    store.markov = built.markov
    store.degrees = built.degrees
    outcome.mode = "compacted"
    outcome.markov = {"rebuilt_entries": store.markov.num_entries}
    outcome.degrees = {"rebuilt_entries": store.degrees.num_entries}
    outcome.ledger = {
        "markov": "rebuilt cold (update volume crossed the compaction "
        "threshold)",
        "degrees": "rebuilt cold",
    }


def replay_graph(
    base_graph: LabeledDiGraph,
    directory: str | Path,
    telemetry: JobTelemetry | None = None,
) -> LabeledDiGraph:
    """Re-derive an artifact's current graph from its base dataset.

    Verifies the whole lineage: the base graph must fingerprint to the
    manifest's ``base_fingerprint``, every delta's parent must chain,
    and the final graph must land on ``dataset_fingerprint``.  Each
    generation's re-derivation lands on ``telemetry`` (a silent bundle
    when omitted) as a ``generation`` span (update count + edge attrs).
    """
    telemetry = telemetry or JobTelemetry("updates.replay")
    directory = Path(directory)
    manifest = StoreManifest.load(directory)
    fingerprint = dataset_fingerprint(base_graph)
    if fingerprint != manifest.base_fingerprint:
        raise DatasetError(
            f"base graph fingerprint {fingerprint} does not match the "
            f"artifact's base_fingerprint {manifest.base_fingerprint}"
        )
    graph = base_graph
    for entry in sorted(manifest.deltas, key=lambda e: e.get("generation", 0)):
        if entry.get("parent_fingerprint") != fingerprint:
            raise DatasetError(
                f"broken delta lineage at generation "
                f"{entry.get('generation')}: parent fingerprint "
                f"{entry.get('parent_fingerprint')} != {fingerprint}"
            )
        if not entry.get("file"):
            raise DatasetError(
                f"generation {entry.get('generation')} was applied "
                "in-memory and has no persisted update log; the graph "
                "cannot be re-derived from the base dataset"
            )
        began = time.perf_counter()
        payload = read_delta(directory, str(entry["file"]))
        overlay = MutableGraphOverlay(graph)
        batch = UpdateBatch.from_payload(payload["updates"])
        overlay.apply_batch(batch)
        graph = overlay.materialize()
        fingerprint = dataset_fingerprint(graph)
        if fingerprint != entry.get("fingerprint"):
            raise DatasetError(
                f"replaying generation {entry.get('generation')} produced "
                f"fingerprint {fingerprint}, expected "
                f"{entry.get('fingerprint')}"
            )
        telemetry.trace.add_span(
            "generation",
            began,
            time.perf_counter() - began,
            generation=int(entry.get("generation", 0)),
            updates=len(batch),
            edges=graph.num_edges,
        )
        telemetry.registry.counter(
            "repro_delta_replayed_generations_total",
            "Delta generations re-derived during graph replay.",
        ).inc()
    if fingerprint != manifest.dataset_fingerprint:
        raise DatasetError(
            f"replayed graph fingerprint {fingerprint} does not match the "
            f"manifest's current {manifest.dataset_fingerprint}"
        )
    return graph
