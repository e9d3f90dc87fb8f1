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
  newly non-empty patterns around the inserts and drop patterns whose
  count reached zero (cold enumeration never stores zeros).
* **Degree relations** are rebuilt only for shapes whose match support
  actually changed (the seeded joins double as exact change detectors);
  untouched relations are carried over byte-identically.
* **Cycle rates** are resampled and **entropy** irregularities
  recomputed for touched shapes; **baseline summaries** (CS, SumRDF)
  are whole-graph passes and rebuilt outright.  The *staleness ledger*
  records which catalogs are exact vs merely refreshed.

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
from typing import TYPE_CHECKING

from repro.baselines.characteristic_sets import CharacteristicSetsEstimator
from repro.baselines.sumrdf import SumRdfEstimator
from repro.catalog.cycle_rates import CycleClosingRates
from repro.catalog.degrees import StatRelation, materialise_table
from repro.catalog.entropy import EntropyCatalog
from repro.delta.counting import (
    delta_count_with_touch,
    discover_new_patterns,
    pattern_from_key,
)
from repro.delta.deltafile import (
    DELTA_FORMAT_VERSION,
    encode_keys,
    read_delta,
    write_delta,
)
from repro.delta.overlay import MutableGraphOverlay
from repro.delta.updates import UpdateBatch
from repro.engine.counter import count_pattern
from repro.errors import DatasetError, PlanningError, ReproError
from repro.graph.digraph import LabeledDiGraph
from repro.obs.offline import JobTelemetry
from repro.stats.artifact import (
    StoreManifest,
    dataset_fingerprint,
    delta_file_name,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.stats.store import StatisticsStore

__all__ = [
    "MaintenanceOutcome",
    "config_from_manifest",
    "apply_updates",
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
    telemetry: JobTelemetry | None,
    outcome: MaintenanceOutcome,
    previous_applied_at: str | None,
) -> None:
    """Record one apply's IVM-vs-rebuild decision and lineage freshness."""
    if telemetry is None:
        return
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
    telemetry.registry.gauge(
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
    #: Catalog patch payloads destined for the delta file (internal).
    patches: dict = field(default_factory=dict)

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


def _cold_count(
    graph: LabeledDiGraph, pattern, max_rows: int | None
) -> tuple[float, object | None]:
    """Exact count on ``graph`` plus the match table when it fits."""
    try:
        table = materialise_table(graph, pattern, max_rows)
    except PlanningError:
        return float(count_pattern(graph, pattern)), None
    return float(table.rows.shape[0]), table


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


def _recompute_entropy(
    old: EntropyCatalog,
    graph: LabeledDiGraph,
    touched: frozenset[str],
) -> tuple[EntropyCatalog, list[dict]]:
    """Entropy catalog for the new graph; touched shapes recomputed.

    Entries are keyed by canonical pattern key + canonical variable
    names (see :mod:`repro.catalog.entropy`), so every stored entry is
    recomputable from its key alone.
    """
    fresh = EntropyCatalog(graph, max_rows=old.max_rows)
    patched: list[dict] = []
    for (pattern_key, variables), value in sorted(old._cache.items()):
        labels = {label for _, _, label in pattern_key}
        if labels & touched:
            value = fresh._compute(
                pattern_from_key(pattern_key), frozenset(variables)
            )
            patched.append(
                {
                    "key": [list(atom) for atom in pattern_key],
                    "vars": list(variables),
                    "value": value,
                }
            )
        fresh._cache[(pattern_key, variables)] = value
    return fresh, patched


def config_from_manifest(manifest: StoreManifest):
    """Reconstruct the build configuration an artifact records."""
    from repro.stats.build import StatsBuildConfig

    known = StatsBuildConfig.__dataclass_fields__
    kwargs = {
        key: value
        for key, value in manifest.build_config.items()
        if key in known
    }
    return StatsBuildConfig(**kwargs)


def apply_updates(
    store: "StatisticsStore",
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

    ``telemetry`` (optional) records the apply as an offline-plane
    trace — a ``maintain`` span (the IVM / cold-rebuild work), a
    ``persist`` span (update log + generation image I/O), decision
    counters and a lineage-age gauge — without perturbing the outcome or
    any catalog bytes.
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
    # cycle rates and entropy are primed from a workload the artifact
    # does not record, and an incomplete Markov table means absence is
    # not emptiness.  Such artifacts stay on the incremental path and
    # the ledger says why, so --compact-threshold is never silently inert.
    compactable = (
        store.markov.complete
        and store.cycle_rates is None
        and store.entropy is None
    )
    over_threshold = (
        overlay.pending > compact_threshold * max(new_graph.num_edges, 1)
    )
    maintain_began = time.perf_counter()
    if compactable and over_threshold:
        _rebuild_cold(store, new_graph, outcome)
    else:
        _maintain_incremental(
            store, old_graph, new_graph, overlay, outcome
        )
        if over_threshold:
            outcome.ledger["compaction"] = (
                "skipped despite crossing compact_threshold: the artifact "
                "holds workload-primed catalogs (cycle rates/entropy) or "
                "an incomplete Markov table that a workload-free cold "
                "rebuild cannot reproduce"
            )
    if telemetry is not None:
        telemetry.trace.add_span(
            "maintain",
            maintain_began,
            time.perf_counter() - maintain_began,
            generation=generation,
            mode=outcome.mode,
            inserts=len(inserts),
            deletes=len(deletes),
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
            "updates": batch.to_rows(),
            "graph_summary": new_graph.summary(),
            "labels": list(new_graph.labels),
            "compacted": outcome.mode == "compacted",
            "staleness": dict(outcome.ledger),
            "markov": outcome.patches.get(
                "markov", {"set": [], "delete": [], "complete": store.markov.complete}
            ),
            "degrees": outcome.patches.get(
                "degrees",
                {"set": [], "delete": [], "complete": store.degrees.complete},
            ),
        }
        if "entropy" in outcome.patches:
            payload["entropy"] = outcome.patches["entropy"]
        if "cycle_rates" in outcome.patches:
            payload["cycle_rates"] = outcome.patches["cycle_rates"]
        if "characteristic_sets" in outcome.patches:
            payload["characteristic_sets"] = outcome.patches[
                "characteristic_sets"
            ]
        sumrdf = (
            store.sumrdf if "sumrdf" in outcome.patches else None
        )
        path = write_delta(directory, payload, sumrdf=sumrdf)
        outcome.delta_file = str(path.relative_to(directory))
        # The update log lands first: a crash before the swap leaves a
        # log the manifest does not list, and readers keep the old image.
        store.save(directory)
        if telemetry is not None:
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


def _maintain_incremental(
    store: "StatisticsStore",
    old_graph: LabeledDiGraph,
    new_graph: LabeledDiGraph,
    overlay: MutableGraphOverlay,
    outcome: MaintenanceOutcome,
) -> None:
    """The incremental path: patch catalogs key by key."""
    touched = overlay.touched_labels()
    n = new_graph.num_vertices
    insert_graph = _subgraph(overlay.pending_inserts, n)
    delete_graph = _subgraph(overlay.pending_deletes, n)
    h = store.markov.h
    molp_h = store.degrees.h
    h_enum = max(h, molp_h)
    max_rows = store.degrees.max_rows
    complete = store.markov.complete

    markov_set: dict[tuple, float] = {}
    markov_delete: list[tuple] = []
    degrees_set: dict[tuple, StatRelation] = {}
    degrees_delete: list[tuple] = []
    counters = {
        "updated": 0,
        "added": 0,
        "removed": 0,
        "unchanged_support": 0,
        "skipped_untouched": 0,
        "recounted_cold": 0,
    }
    degree_counters = {"rebuilt": 0, "removed": 0, "added": 0, "kept": 0}

    stored_keys = set(store.markov._cache) | set(store.degrees._cache)
    for key in sorted(stored_keys):
        if not {label for _, _, label in key} & touched:
            counters["skipped_untouched"] += 1
            if key in store.degrees._cache:
                degree_counters["kept"] += 1
            continue
        pattern = pattern_from_key(key)
        old_count = store.markov._cache.get(key)
        if old_count is None:
            old_count = store.degrees._cache[key].cardinality
        table = None
        try:
            delta, support_changed = delta_count_with_touch(
                pattern,
                old_graph,
                new_graph,
                insert_graph,
                delete_graph,
                max_rows=max_rows,
            )
            new_count = old_count + delta
        except ReproError:
            counters["recounted_cold"] += 1
            new_count, table = _cold_count(new_graph, pattern, max_rows)
            support_changed = True
        if complete and new_count == 0.0:
            counters["removed"] += 1
            if key in store.markov._cache:
                markov_delete.append(key)
            if key in store.degrees._cache:
                degrees_delete.append(key)
                degree_counters["removed"] += 1
            continue
        if key in store.markov._cache and new_count != old_count:
            markov_set[key] = new_count
            counters["updated"] += 1
        elif not support_changed:
            counters["unchanged_support"] += 1
        if key in store.degrees._cache:
            if support_changed:
                if table is None:
                    table = materialise_table(new_graph, pattern, max_rows)
                degrees_set[key] = StatRelation.from_table(
                    pattern, table, n
                )
                degree_counters["rebuilt"] += 1
            else:
                degree_counters["kept"] += 1

    if complete and insert_graph is not None:
        candidates = discover_new_patterns(
            new_graph, insert_graph, h_enum, known=stored_keys,
            max_rows=max_rows,
        )
        for key in sorted(candidates):
            pattern = pattern_from_key(key)
            count, table = _cold_count(new_graph, pattern, max_rows)
            if count == 0.0:
                continue
            if len(key) <= h:
                markov_set[key] = count
                counters["added"] += 1
            if len(key) <= molp_h:
                if table is None:
                    # Count known but the table overflowed: mirror the
                    # cold builder, which marks the degree catalog
                    # incomplete rather than storing a partial relation.
                    store.degrees.complete = False
                else:
                    degrees_set[key] = StatRelation.from_table(
                        pattern, table, n
                    )
                    degree_counters["added"] += 1

    for key, count in markov_set.items():
        store.markov._cache[key] = count
    for key in markov_delete:
        store.markov._cache.pop(key, None)
    store.markov.labels = new_graph.labels
    for key, relation in degrees_set.items():
        store.degrees._cache[key] = relation
    for key in degrees_delete:
        store.degrees._cache.pop(key, None)

    outcome.markov = counters
    outcome.degrees = degree_counters
    ledger = {"markov": "exact", "degrees": "exact"}
    patches: dict = {
        "markov": {
            "set": [
                {"key": [list(atom) for atom in key], "count": count}
                for key, count in sorted(markov_set.items())
            ],
            "delete": encode_keys(markov_delete),
            "complete": store.markov.complete,
        },
        "degrees": {
            "set": [
                relation.to_artifact()
                for _, relation in sorted(degrees_set.items())
            ],
            "delete": encode_keys(degrees_delete),
            "complete": store.degrees.complete,
        },
    }

    if store.entropy is not None:
        store.entropy, entropy_patch = _recompute_entropy(
            store.entropy, new_graph, touched
        )
        patches["entropy"] = {"set": entropy_patch}
        ledger["entropy"] = (
            f"recomputed {len(entropy_patch)} touched-shape entries"
        )
    if store.cycle_rates is not None:
        store.cycle_rates = _resample_cycle_rates(
            store.cycle_rates, new_graph
        )
        patches["cycle_rates"] = {
            "replace": store.cycle_rates.to_artifact()
        }
        ledger["cycle_rates"] = (
            "resampled on the new graph (statistically equivalent, not "
            "RNG-stream-identical to a cold workload-order rebuild)"
        )
    if store.characteristic_sets is not None:
        store.characteristic_sets = CharacteristicSetsEstimator(new_graph)
        patches["characteristic_sets"] = {
            "replace": store.characteristic_sets.to_artifact()
        }
        ledger["characteristic_sets"] = "rebuilt (single whole-graph pass)"
    if store.sumrdf is not None:
        build_config = store.manifest.build_config
        store.sumrdf = SumRdfEstimator(
            new_graph,
            num_buckets=store.sumrdf.num_buckets,
            seed=int(build_config.get("sumrdf_seed", 0)),
        )
        patches["sumrdf"] = True
        ledger["sumrdf"] = (
            "rebuilt (bucketing hashes label signatures per process)"
        )
    outcome.ledger = ledger
    outcome.patches = patches


def _rebuild_cold(
    store: "StatisticsStore",
    new_graph: LabeledDiGraph,
    outcome: MaintenanceOutcome,
) -> None:
    """The compaction path: a cold rebuild replacing every catalog."""
    from repro.stats.build import build_statistics

    config = config_from_manifest(store.manifest)
    built = build_statistics(
        new_graph,
        config,
        workload=None,
        dataset_name=store.manifest.dataset_name,
    )
    store.markov = built.markov
    store.degrees = built.degrees
    if store.characteristic_sets is not None:
        store.characteristic_sets = (
            built.characteristic_sets
            or CharacteristicSetsEstimator(new_graph)
        )
    if store.sumrdf is not None:
        store.sumrdf = built.sumrdf or SumRdfEstimator(
            new_graph,
            num_buckets=store.sumrdf.num_buckets,
            seed=int(store.manifest.build_config.get("sumrdf_seed", 0)),
        )
    outcome.mode = "compacted"
    outcome.markov = {"rebuilt_entries": store.markov.num_entries}
    outcome.degrees = {"rebuilt_entries": store.degrees.num_entries}
    outcome.ledger = {
        "markov": "rebuilt cold (update volume crossed the compaction "
        "threshold)",
        "degrees": "rebuilt cold",
    }
    outcome.patches = {}


def replay_graph(
    base_graph: LabeledDiGraph,
    directory: str | Path,
    telemetry: JobTelemetry | None = None,
) -> LabeledDiGraph:
    """Re-derive an artifact's current graph from its base dataset.

    Verifies the whole lineage: the base graph must fingerprint to the
    manifest's ``base_fingerprint``, every delta's parent must chain,
    and the final graph must land on ``dataset_fingerprint``.  With
    ``telemetry``, each generation's re-derivation lands as a
    ``generation`` span (update count + fingerprint attrs).
    """
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
        if telemetry is not None:
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
