"""Offline bulk construction of every summary the estimators serve.

The lazy catalogs compute one statistic per :func:`count_pattern` call,
on the request path.  The bulk builder inverts that (§6: statistics are
computed offline and shipped to the optimizer):

* **Full enumeration** (no workload): grow every connected pattern of up
  to ``h`` atoms over the dataset's label set, level by level.  Patterns
  with zero matches are never stored or extended — supersets of an empty
  join are empty — which is what lets a *complete* artifact answer
  misses with 0.
* **Workload-directed** (the paper's "we worked backwards from the
  queries"): enumerate the union of canonical connected subpatterns the
  estimator suite needs across all workload queries, and count each
  once.

Both modes run through one **level-synchronous, sharded** coordinator:

* Full enumeration is partitioned by *minimum label*.  Shard ``i`` owns
  exactly the connected patterns whose smallest label is ``labels[i]``,
  grown from that label's one-atom seeds with candidate labels
  restricted to ``labels[i:]``.  Growth only ever adds atoms, so the
  seed atom survives in every descendant and the min label is invariant
  — shards never examine (let alone double-count) each other's
  patterns.  Workload mode shards each pattern-size level into sorted
  key chunks.
* With ``jobs > 1`` the shards of a level run on a
  ``ProcessPoolExecutor`` (forked workers share the graph's pages;
  spawn falls back to pickling it once per worker).  Workers ship back
  canonical-key counts and degree relations (``key, cardinality,
  values``) — nothing process-specific — and the coordinator merges
  them in shard order.  Every stored value is keyed by canonical form,
  degrees laid out under canonical variable names
  (:meth:`StatRelation.from_table`), and catalog images sort on
  serialization, so a parallel build's artifact is **byte-identical**
  to ``jobs=1``.
* After every level the coordinator can persist a resume checkpoint
  (``build_state/checkpoint.json`` under the build directory): a killed
  build rerun with ``resume=True`` reloads all completed levels —
  counts, degree relations, per-shard frontiers — and continues instead
  of recounting.

Degree statistics for the MOLP catalog are extracted from the same
match tables in bulk, and cycle-closing rates are primed by building
each cyclic workload query's CEG once.

Every stored number is produced by the same deterministic integer
arithmetic the lazy path uses, so estimates served from a built (or
saved-and-loaded) store are bit-identical to the never-persisted path —
the property suite enforces this.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.catalog.cycle_rates import CycleClosingRates
from repro.catalog.degrees import (
    DegreeCatalog,
    StatRelation,
    materialise_table,
)
from repro.catalog.markov import MarkovTable
from repro.core.ceg_o import build_ceg_o
from repro.engine.counter import count_pattern
from repro.engine.frames import (
    Frame,
    extend_frame,
    frame_from_edge,
    sorted_intersects,
)
from repro.errors import (
    BuildInterrupted,
    DatasetError,
    PlanningError,
    ReproError,
)
from repro.graph.digraph import LabeledDiGraph
from repro.obs.offline import JobTelemetry
from repro.query.canonical import (
    canonical_key,
    canonical_order,
    canonical_parent,
    canonical_pattern,
    key_from_json,
    key_pattern,
    key_to_json,
)
from repro.query.pattern import QueryEdge, QueryPattern
from repro.query.shape import largest_cycle_length, two_core_edges
from repro.stats.artifact import (
    BUILD_STATE_DIR,
    CHECKPOINT_FILE,
    CHECKPOINT_FORMAT_VERSION,
    StoreManifest,
    dataset_fingerprint,
)
from repro.stats.store import StatisticsStore

__all__ = [
    "StatsBuildConfig",
    "build_statistics",
    "extend_statistics",
]


@dataclass(frozen=True)
class StatsBuildConfig:
    """Knobs of one offline statistics build.

    ``h`` is the Markov-table size, ``molp_h`` the join-statistics size
    of the MOLP degree catalog; patterns are enumerated up to
    ``max(h, molp_h)`` atoms.  ``cycle_rates`` samples the §4.3
    closing-rate statistics (workload-directed; full enumeration of all
    label triples would leave the paper's ``O(L^3)`` budget).
    """

    h: int = 2
    molp_h: int = 2
    max_rows: int | None = 5_000_000
    count_budget: int | None = None
    cycle_rates: bool = False
    cycle_seed: int = 0
    cycle_samples: int = 1000

    def as_dict(self) -> dict:
        """JSON-friendly form recorded in the artifact manifest."""
        return asdict(self)


# ----------------------------------------------------------------------
# Shared enumeration primitives: how a pattern grows by one atom
# (:func:`_level_step`) and what a counted pattern stores
# (:func:`_record_pattern`).  Delta maintenance discovers new patterns
# and re-records touched ones through these same functions.
# ----------------------------------------------------------------------

def _fresh_name(variables: Iterable[str]) -> str:
    taken = set(variables)
    index = len(taken)
    while f"f{index}" in taken:
        index += 1
    return f"f{index}"


def _candidate_edges(
    pattern: QueryPattern,
    table: Frame | None,
    labels: tuple[str, ...],
    unique_src: dict[str, np.ndarray],
    unique_dst: dict[str, np.ndarray],
):
    """One-atom extensions of ``pattern`` that can have matches.

    With a match table, candidate labels are pruned against the matched
    vertex sets of the variables the new atom touches (a necessary
    condition for the child to be non-empty, so pruning never loses a
    non-empty pattern); without one, every label is a candidate.
    """
    variables = pattern.variables
    existing = set(pattern.edges)
    fresh = _fresh_name(variables)
    if table is None:
        values = None
    else:
        values = {var: np.unique(table.column(var)) for var in variables}
    for var in variables:
        for label in labels:
            if values is None or sorted_intersects(unique_src[label], values[var]):
                yield QueryEdge(var, fresh, label)
            if values is None or sorted_intersects(unique_dst[label], values[var]):
                yield QueryEdge(fresh, var, label)
    for src in variables:
        for dst in variables:
            for label in labels:
                edge = QueryEdge(src, dst, label)
                if edge in existing:
                    continue
                if values is None or (
                    sorted_intersects(unique_src[label], values[src])
                    and sorted_intersects(unique_dst[label], values[dst])
                ):
                    yield edge


def _budgeted_count(
    graph: LabeledDiGraph,
    pattern: QueryPattern,
    table: Frame | None,
    count_budget: int | None,
) -> float:
    """A pattern count honouring the lazy path's budget semantics.

    The row budget applies only to cyclic cores
    (:func:`~repro.engine.counter.count_general`); for acyclic patterns
    the match-table count is the same number the budget-free DP returns,
    so the join-table shortcut is exact.  For cyclic patterns under a
    budget, defer to the engine so over-budget patterns raise
    ``CountBudgetExceeded`` exactly where a lazy Markov table would — a
    budgeted driver (Figure 12) must drop the same queries the old
    per-figure tables dropped.
    """
    if table is not None and (
        count_budget is None or not two_core_edges(pattern)
    ):
        return float(table.size)
    return float(count_pattern(graph, pattern, budget=count_budget))


def _unique_endpoint_sets(
    graph: LabeledDiGraph, labels: tuple[str, ...]
) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray]]:
    """Matched-vertex sets per label for candidate pruning (cached on the
    graph — workers reuse them across every level of their shard)."""
    cache = getattr(graph, "_stats_unique_cache", None)
    if cache is None:
        cache = {}
        graph._stats_unique_cache = cache
    unique_src: dict[str, np.ndarray] = {}
    unique_dst: dict[str, np.ndarray] = {}
    for label in labels:
        cached = cache.get(label)
        if cached is None:
            relation = graph.relation(label)
            cached = (
                np.unique(relation.src_by_src),
                np.unique(relation.dst_by_src),
            )
            cache[label] = cached
        unique_src[label], unique_dst[label] = cached
    return unique_src, unique_dst


def _table_or_none(
    graph: LabeledDiGraph, pattern: QueryPattern, max_rows: int | None
) -> Frame | None:
    """The pattern's match table, or ``None`` when it overflows ``max_rows``."""
    try:
        return materialise_table(graph, pattern, max_rows)
    except PlanningError:
        return None


def _seeded_identity(child: QueryPattern, key: tuple) -> tuple:
    """``key`` plus where the seed atom (``child.edges[0]``) sits in it.

    Two seeded children with equal keys have different tables when the
    seed atom lands on different canonical atoms, so only children that
    agree on both may be merged.
    """
    position = {var: i for i, var in enumerate(canonical_order(child))}
    seed = child.edges[0]
    return key, (position[seed.src], position[seed.dst], seed.label)


def _level_step(
    seed_graph: LabeledDiGraph,
    growth_graph: LabeledDiGraph,
    labels: tuple[str, ...],
    parents: Iterable[tuple[QueryPattern, Frame | None]] | None,
    max_rows: int | None,
    seen: set,
) -> Iterator[tuple[QueryPattern, tuple, Frame | None]]:
    """One level of pattern growth, as ``(child, canonical key, table)``.

    ``parents is None`` yields each label's two one-atom seeds with
    their tables over ``seed_graph``.  Otherwise every parent
    ``(pattern, table)`` grows by each candidate atom over ``labels``,
    and the child's table is the parent's extended over
    ``growth_graph``.  The table is ``None`` when the parent had none or
    the join passes ``max_rows``: such a child is yielded anyway and
    grows unpruned.

    A cold build passes one graph as both: a child is then kept only
    when it grows from its canonical parent (so its table grows along
    :func:`materialise_table`'s chain) and its key is not in ``seen``.
    Seeded growth (the seed atom bound to ``seed_graph``, every other
    atom to ``growth_graph``) keeps every child and keys ``seen`` by
    :func:`_seeded_identity` instead.
    """
    seeded = seed_graph is not growth_graph

    def first_visit(child: QueryPattern, key: tuple) -> bool:
        identity = _seeded_identity(child, key) if seeded else key
        if identity in seen:
            return False
        seen.add(identity)
        return True

    if parents is None:
        for label in labels:
            for seed in (
                QueryPattern([("v0", "v1", label)]),
                QueryPattern([("v0", "v0", label)]),
            ):
                key = canonical_key(seed)
                if first_visit(seed, key):
                    yield seed, key, frame_from_edge(seed_graph, seed.edges[0])
        return
    unique_src, unique_dst = _unique_endpoint_sets(growth_graph, labels)
    for pattern, table in parents:
        parent_key = canonical_key(pattern)
        for edge in _candidate_edges(
            pattern, table, labels, unique_src, unique_dst
        ):
            child = QueryPattern(pattern.edges + (edge,))
            key = canonical_key(child)
            if not seeded and canonical_parent(key) != parent_key:
                continue
            if not first_visit(child, key):
                continue
            child_table = None
            if table is not None:
                try:
                    child_table, _ = extend_frame(
                        growth_graph, table, edge, max_rows=max_rows
                    )
                except PlanningError:
                    pass  # unknown size: the child grows unpruned
            yield child, key, child_table


# ----------------------------------------------------------------------
# Level tasks (run inline for jobs=1, in pool workers otherwise)
# ----------------------------------------------------------------------

#: ``(graph, config)`` of the build in progress.  Set in the parent
#: before the pool exists: forked workers inherit it copy-on-write;
#: spawned workers get it re-set by the pool initializer.
_WORKER_CONTEXT: tuple[LabeledDiGraph, StatsBuildConfig] | None = None


def _set_worker_context(
    graph: LabeledDiGraph, config: StatsBuildConfig
) -> None:
    global _WORKER_CONTEXT
    _WORKER_CONTEXT = (graph, config)


@dataclass
class _TaskResult:
    """One shard-level task's contribution, in deterministic order.

    Degree relations are plain ``(key, cardinality, values)`` records,
    identical whether they crossed a process boundary, came off a resume
    checkpoint, or were produced inline.
    """

    records: list[tuple[tuple, float]] = field(default_factory=list)
    relations: list[StatRelation] = field(default_factory=list)
    frontier: list[tuple] = field(default_factory=list)
    examined: int = 0
    markov_complete: bool = True
    degrees_complete: bool = True
    #: Wall seconds this task took in its worker — telemetry only,
    #: never serialized into the artifact or the checkpoint.
    seconds: float = 0.0


def _record_pattern(
    graph: LabeledDiGraph,
    config: StatsBuildConfig,
    pattern: QueryPattern,
    key: tuple,
    table: Frame | None,
    result: _TaskResult,
    store_zeros: bool,
    count: float | None = None,
) -> float | None:
    """Count one pattern (unless its ``count`` is known), store its
    statistics into ``result``.

    Returns the count (``None`` when counting itself failed)."""
    if count is None:
        try:
            count = _budgeted_count(
                graph, pattern, table, config.count_budget
            )
        except ReproError:
            # Unknown count: neither artifact can claim completeness.
            result.markov_complete = False
            result.degrees_complete = False
            return None
    if count == 0.0 and not store_zeros:
        return 0.0
    result.records.append((key, count))
    if len(pattern) <= config.molp_h:
        if table is not None:
            # Laid out under canonical variable names, so the artifact
            # bytes are independent of the growth path that produced
            # the table (the incremental maintainer's recomputed
            # relations must land on identical bytes).
            result.relations.append(
                StatRelation.from_table(pattern, table, graph.num_vertices)
            )
        else:
            # The match table overflowed max_rows: the count is known
            # but no degrees were extracted, so a graph-free catalog
            # must not serve this pattern's miss as "empty".
            result.degrees_complete = False
    return count


def _materialise_and_record(
    graph: LabeledDiGraph,
    config: StatsBuildConfig,
    pattern: QueryPattern,
    key: tuple,
    result: _TaskResult,
    store_zeros: bool,
    count: float | None = None,
) -> float | None:
    """:func:`_record_pattern` for a pattern whose table is not at hand.

    The match table is materialised only when a degree relation is due
    (at most ``molp_h`` atoms); ``None`` records an overflow.
    """
    table: Frame | None = None
    if len(pattern) <= config.molp_h:
        table = _table_or_none(graph, pattern, config.max_rows)
    return _record_pattern(
        graph, config, pattern, key, table, result, store_zeros, count
    )


def _full_shard_task(
    graph: LabeledDiGraph,
    config: StatsBuildConfig,
    shard_index: int,
    frontier: tuple[tuple, ...] | None,
) -> _TaskResult:
    """One ``(shard, level)`` step of full enumeration.

    ``frontier is None`` seeds level 1 (the shard label's two one-atom
    canonical patterns); otherwise each frontier pattern's match table
    is re-materialised along its growth order and extended by one atom
    over the shard's allowed labels, keeping the children it is the
    canonical parent of.
    """
    labels = graph.labels
    parents = None
    if frontier is None:
        labels = labels[shard_index:shard_index + 1]
    else:
        labels = labels[shard_index:]
        parents = (
            (pattern, _table_or_none(graph, pattern, config.max_rows))
            for pattern in map(key_pattern, frontier)
        )
    result = _TaskResult()
    seen: set[tuple] = set()
    for child, key, table in _level_step(
        graph, graph, labels, parents, config.max_rows, seen
    ):
        if _record_pattern(
            graph, config, child, key, table, result, store_zeros=False
        ):
            result.frontier.append(key)
    result.examined = len(seen)
    return result


def _workload_chunk_task(
    graph: LabeledDiGraph,
    config: StatsBuildConfig,
    keys: tuple[tuple, ...],
) -> _TaskResult:
    """Count one sorted chunk of needed canonical keys (workload mode).

    Zero counts are stored explicitly — workload artifacts are not
    complete, so a covered-but-empty pattern must not raise
    ``MissingStatisticError`` at serve time.
    """
    result = _TaskResult()
    for key in keys:
        _materialise_and_record(
            graph, config, key_pattern(key), key, result, store_zeros=True
        )
    result.examined = len(keys)
    # Workload-directed artifacts never claim completeness.
    result.markov_complete = False
    result.degrees_complete = False
    return result


def _run_build_task(task: tuple) -> _TaskResult:
    """Pool entry point: dispatch one task against the worker context."""
    assert _WORKER_CONTEXT is not None, "worker context not initialised"
    graph, config = _WORKER_CONTEXT
    kind = task[0]
    began = time.perf_counter()
    if kind == "seed":
        result = _full_shard_task(graph, config, task[1], None)
    elif kind == "grow":
        result = _full_shard_task(graph, config, task[1], task[2])
    elif kind == "count":
        result = _workload_chunk_task(graph, config, task[1])
    else:
        raise AssertionError(f"unknown build task kind {kind!r}")
    result.seconds = time.perf_counter() - began
    return result


class _TaskRunner:
    """Runs level tasks inline (``jobs=1``) or on a process pool.

    Fork start method is preferred: workers inherit the parent's graph
    (and its mmap-backed arrays) copy-on-write via the module-level
    context, so nothing is pickled per task beyond canonical keys.
    Where fork is unavailable the pool falls back to spawn and ships
    ``(graph, config)`` once per worker through the initializer.
    """

    def __init__(
        self, graph: LabeledDiGraph, config: StatsBuildConfig, jobs: int
    ):
        self.jobs = max(1, int(jobs))
        self._executor: ProcessPoolExecutor | None = None
        _set_worker_context(graph, config)
        if self.jobs > 1:
            try:
                context = multiprocessing.get_context("fork")
                initargs: tuple = ()
                initializer = None
            except ValueError:
                context = multiprocessing.get_context("spawn")
                initializer = _set_worker_context
                initargs = (graph, config)
            self._executor = ProcessPoolExecutor(
                max_workers=self.jobs,
                mp_context=context,
                initializer=initializer,
                initargs=initargs,
            )

    def run(self, tasks: Sequence[tuple]) -> list[_TaskResult]:
        """All task results, in task order."""
        if self._executor is None or len(tasks) <= 1:
            return [_run_build_task(task) for task in tasks]
        return list(self._executor.map(_run_build_task, tasks))

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown()
            self._executor = None


# ----------------------------------------------------------------------
# Checkpointing
# ----------------------------------------------------------------------

@dataclass
class _BuildState:
    """Everything accumulated across completed levels of one build."""

    counts: dict[tuple, float] = field(default_factory=dict)
    relations: dict[tuple, StatRelation] = field(default_factory=dict)
    frontiers: list[list[tuple]] = field(default_factory=list)
    completed_levels: list[int] = field(default_factory=list)
    level_stats: list[dict] = field(default_factory=list)
    examined: int = 0
    markov_complete: bool = True
    degrees_complete: bool = True

    def merge_level(
        self,
        level: int,
        results: Sequence[_TaskResult],
        seconds: float,
        jobs: int,
        frontier_by_shard: list[list[tuple]] | None,
    ) -> None:
        stored = 0
        examined = 0
        for result in results:
            for key, count in result.records:
                self.counts[key] = count
                stored += 1
            for relation in result.relations:
                self.relations[relation.key] = relation
            examined += result.examined
            self.markov_complete &= result.markov_complete
            self.degrees_complete &= result.degrees_complete
        self.examined += examined
        if frontier_by_shard is not None:
            self.frontiers = frontier_by_shard
        self.completed_levels.append(level)
        self.level_stats.append({
            "level": level,
            "seconds": round(seconds, 6),
            "examined": examined,
            "stored": stored,
            "frontier": sum(len(f) for f in self.frontiers),
            "jobs": jobs,
            "resumed": False,
        })

    def to_enumeration(self) -> "_Enumeration":
        return _Enumeration(
            counts=self.counts,
            degree_relations=self.relations,
            enumerated=self.examined,
            markov_complete=self.markov_complete,
            degrees_complete=self.degrees_complete,
        )


class _BuildCheckpoint:
    """Durable per-level resume state under ``<dir>/build_state/``.

    The checkpoint is one JSON document written atomically (tmp +
    rename), keyed by dataset fingerprint, build config, and mode — a
    resume against a different graph or configuration is refused rather
    than silently merged.
    """

    def __init__(
        self,
        directory: str | Path,
        fingerprint: str,
        config: StatsBuildConfig,
        mode: str,
        scope_digest: str,
    ):
        self.directory = Path(directory) / BUILD_STATE_DIR
        self.path = self.directory / CHECKPOINT_FILE
        self.fingerprint = fingerprint
        self.config_dict = config.as_dict()
        self.mode = mode
        self.scope_digest = scope_digest

    def save(self, state: _BuildState) -> None:
        self.directory.mkdir(parents=True, exist_ok=True)
        payload = {
            "format_version": CHECKPOINT_FORMAT_VERSION,
            "kind": "build_checkpoint",
            "mode": self.mode,
            "dataset_fingerprint": self.fingerprint,
            "config": self.config_dict,
            "scope_digest": self.scope_digest,
            "completed_levels": state.completed_levels,
            "examined": state.examined,
            "markov_complete": state.markov_complete,
            "degrees_complete": state.degrees_complete,
            "counts": [
                [key_to_json(key), count]
                for key, count in sorted(state.counts.items())
            ],
            "degrees": [
                relation.to_json()
                for _, relation in sorted(state.relations.items())
            ],
            "frontiers": [
                [key_to_json(key) for key in frontier]
                for frontier in state.frontiers
            ],
            "level_stats": state.level_stats,
        }
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(payload), encoding="utf-8")
        os.replace(tmp, self.path)

    def load(self) -> _BuildState | None:
        """The checkpointed state, or ``None`` when there is none."""
        try:
            payload = json.loads(self.path.read_text(encoding="utf-8"))
        except OSError:
            return None
        except ValueError as error:
            raise DatasetError(f"corrupt build checkpoint {self.path}: {error}")
        if payload.get("format_version") != CHECKPOINT_FORMAT_VERSION:
            raise DatasetError(
                f"{self.path}: unsupported checkpoint format "
                f"{payload.get('format_version')!r}"
            )
        for name, expected, actual in (
            ("dataset", self.fingerprint, payload.get("dataset_fingerprint")),
            ("mode", self.mode, payload.get("mode")),
            ("config", self.config_dict, payload.get("config")),
            ("scope", self.scope_digest, payload.get("scope_digest")),
        ):
            if actual != expected:
                raise DatasetError(
                    f"{self.path}: checkpoint {name} mismatch — it was "
                    f"written by a different build (delete "
                    f"{self.directory} or drop --resume)"
                )
        level_stats = [dict(entry) for entry in payload["level_stats"]]
        for entry in level_stats:
            entry["resumed"] = True
        return _BuildState(
            counts={
                key_from_json(key): float(count)
                for key, count in payload["counts"]
            },
            relations={
                relation.key: relation
                for relation in map(StatRelation.from_json, payload["degrees"])
            },
            frontiers=[
                [key_from_json(key) for key in frontier]
                for frontier in payload["frontiers"]
            ],
            completed_levels=[int(v) for v in payload["completed_levels"]],
            level_stats=level_stats,
            examined=int(payload["examined"]),
            markov_complete=bool(payload["markov_complete"]),
            degrees_complete=bool(payload["degrees_complete"]),
        )

    def clear(self) -> None:
        """Remove the checkpoint after a successful build."""
        try:
            self.path.unlink()
        except OSError:
            pass
        try:
            self.directory.rmdir()
        except OSError:
            pass  # leftover files (or never created): leave the dir


# ----------------------------------------------------------------------
# Leveled coordinators
# ----------------------------------------------------------------------

@dataclass
class _Enumeration:
    """What one enumeration pass produced.

    ``markov_complete`` / ``degrees_complete`` assert that every
    non-empty pattern in range has, respectively, a stored count / a
    stored degree relation — the licence for a graph-free catalog to
    answer misses with "empty".  They diverge when a match table
    overflows ``max_rows``: the count still comes from the engine, but
    no degree relation can be extracted.
    """

    counts: dict[tuple, float]
    degree_relations: dict[tuple, StatRelation]
    enumerated: int
    markov_complete: bool
    degrees_complete: bool


def _load_or_fresh_state(
    checkpoint: _BuildCheckpoint | None,
    resume: bool,
    num_shards: int,
    telemetry: JobTelemetry,
) -> _BuildState:
    if checkpoint is not None and resume:
        state = checkpoint.load()
        if state is not None:
            if state.completed_levels:
                # Resume event: note which levels the checkpoint
                # already covered so a trace reader can tell replayed
                # progress from fresh enumeration work.
                telemetry.trace.note(
                    resumed_levels=list(state.completed_levels)
                )
                telemetry.registry.counter(
                    "repro_build_resumes_total",
                    "Builds resumed from a per-level checkpoint.",
                ).inc()
            return state
    state = _BuildState()
    state.frontiers = [[] for _ in range(num_shards)]
    return state


def _observe_level(
    telemetry: JobTelemetry,
    began: float,
    entry: dict,
    results: Sequence[_TaskResult],
    shards: Sequence[int],
) -> None:
    """One completed level's span tree + counters.

    The level span carries the same ``{examined, stored, frontier}``
    counters the manifest's ``levels`` table stores; under ``jobs=N``
    each shard task contributes a child span with its own worker-side
    wall time (start offsets inside the pool are unknown, so shard
    spans share the level's start and report duration only).
    """
    trace = telemetry.trace
    span = trace.add_span(
        "level",
        began,
        entry["seconds"],
        level=entry["level"],
        examined=entry["examined"],
        stored=entry["stored"],
        frontier=entry["frontier"],
        jobs=entry["jobs"],
    )
    for shard, result in zip(shards, results):
        trace.add_span(
            "shard",
            began,
            result.seconds,
            parent=span.span_id,
            shard=shard,
            examined=result.examined,
            stored=len(result.records),
        )
    registry = telemetry.registry
    registry.counter(
        "repro_build_levels_total",
        "Enumeration levels completed by this build job.",
    ).inc()
    registry.counter(
        "repro_build_examined_total",
        "Candidate patterns examined by the enumeration.",
    ).inc(entry["examined"])
    registry.counter(
        "repro_build_stored_total",
        "Pattern statistics stored by the enumeration.",
    ).inc(entry["stored"])
    registry.gauge(
        "repro_build_frontier",
        "Patterns on the live frontier after the last level.",
    ).set(entry["frontier"])


def _observe_checkpoint(
    telemetry: JobTelemetry, began: float, level: int
) -> None:
    telemetry.trace.add_span(
        "checkpoint",
        began,
        time.perf_counter() - began,
        level=level,
    )
    telemetry.registry.counter(
        "repro_build_checkpoints_total",
        "Per-level resume checkpoints written by this build job.",
    ).inc()


def _maybe_stop(
    checkpoint: _BuildCheckpoint | None,
    stop_after_level: int | None,
    level: int,
) -> None:
    if stop_after_level is not None and level >= stop_after_level:
        raise BuildInterrupted(
            f"build stopped after level {level} (checkpoint at "
            f"{checkpoint.path})"  # type: ignore[union-attr]
        )


def _enumerate_full_leveled(
    graph: LabeledDiGraph,
    config: StatsBuildConfig,
    runner: _TaskRunner,
    checkpoint: _BuildCheckpoint | None,
    resume: bool,
    stop_after_level: int | None,
    telemetry: JobTelemetry,
) -> tuple[_Enumeration, list[dict]]:
    """Grow all non-empty connected patterns up to ``max(h, molp_h)``,
    one min-label shard per task, level-synchronously."""
    h_enum = max(config.h, config.molp_h)
    labels = graph.labels
    state = _load_or_fresh_state(checkpoint, resume, len(labels), telemetry)
    start_level = (
        max(state.completed_levels) if state.completed_levels else 0
    )
    for level in range(start_level + 1, h_enum + 1):
        if level > 1 and not any(state.frontiers):
            break  # every extension of the last level was empty
        began = time.perf_counter()
        if level == 1:
            tasks = [("seed", shard) for shard in range(len(labels))]
            shards = list(range(len(labels)))
        else:
            shards = [
                shard
                for shard in range(len(labels))
                if state.frontiers[shard]
            ]
            tasks = [
                ("grow", shard, tuple(state.frontiers[shard]))
                for shard in shards
            ]
        results = runner.run(tasks)
        frontier_by_shard: list[list[tuple]] = [[] for _ in labels]
        for shard, result in zip(shards, results):
            frontier_by_shard[shard] = result.frontier
        state.merge_level(
            level,
            results,
            seconds=time.perf_counter() - began,
            jobs=runner.jobs,
            frontier_by_shard=frontier_by_shard,
        )
        _observe_level(
            telemetry, began, state.level_stats[-1], results, shards
        )
        if checkpoint is not None:
            ck_began = time.perf_counter()
            checkpoint.save(state)
            _observe_checkpoint(telemetry, ck_began, level)
        _maybe_stop(checkpoint, stop_after_level, level)
    return state.to_enumeration(), state.level_stats


def _workload_scope_digest(keys: Iterable[tuple]) -> str:
    """Content hash of the needed-key set, pinning a checkpoint to it."""
    digest = hashlib.sha256()
    for key in sorted(keys):
        digest.update(json.dumps(key_to_json(key)).encode("utf-8"))
    return digest.hexdigest()[:20]


def _needed_subpatterns(
    workload: Sequence[QueryPattern], h_enum: int
) -> dict[tuple, QueryPattern]:
    """Canonical connected subpatterns (≤ ``h_enum`` atoms) of a workload."""
    needed: dict[tuple, QueryPattern] = {}
    for query in workload:
        for subset in query.connected_edge_subsets(max_size=h_enum):
            sub = query.subpattern(subset)
            key = canonical_key(sub)
            if key not in needed:
                needed[key] = canonical_pattern(sub)
    return needed


def _enumerate_workload_leveled(
    graph: LabeledDiGraph,
    workload: Sequence[QueryPattern],
    config: StatsBuildConfig,
    runner: _TaskRunner,
    checkpoint: _BuildCheckpoint | None,
    resume: bool,
    stop_after_level: int | None,
    skip: set[tuple] | None = None,
    *,
    telemetry: JobTelemetry,
) -> tuple[_Enumeration, list[dict]]:
    """Count each canonical subpattern the workload needs, exactly once,
    level = pattern size, each level sharded into sorted key chunks."""
    h_enum = max(config.h, config.molp_h)
    needed = _needed_subpatterns(workload, h_enum)
    keys = sorted(
        key for key in needed if skip is None or key not in skip
    )
    by_size: dict[int, list[tuple]] = {}
    for key in keys:
        by_size.setdefault(len(key), []).append(key)
    state = _load_or_fresh_state(checkpoint, resume, 0, telemetry)
    done = set(state.completed_levels)
    for size in sorted(by_size):
        if size in done:
            continue
        began = time.perf_counter()
        level_keys = by_size[size]
        chunk_count = min(len(level_keys), max(1, runner.jobs * 2))
        chunks = [
            tuple(level_keys[i::chunk_count]) for i in range(chunk_count)
        ]
        results = runner.run([("count", chunk) for chunk in chunks])
        state.merge_level(
            size,
            results,
            seconds=time.perf_counter() - began,
            jobs=runner.jobs,
            frontier_by_shard=None,
        )
        _observe_level(
            telemetry,
            began,
            state.level_stats[-1],
            results,
            range(len(chunks)),
        )
        if checkpoint is not None:
            ck_began = time.perf_counter()
            checkpoint.save(state)
            _observe_checkpoint(telemetry, ck_began, size)
        _maybe_stop(checkpoint, stop_after_level, size)
    enumeration, level_stats = state.to_enumeration(), state.level_stats
    # The workload defines scope, not the stored hit set: misses are
    # not provably empty, and `enumerated` reports the needed set.
    enumeration.markov_complete = False
    enumeration.degrees_complete = False
    enumeration.enumerated = len(needed)
    return enumeration, level_stats


def _enumerate_workload(
    graph: LabeledDiGraph,
    workload: Sequence[QueryPattern],
    config: StatsBuildConfig,
    skip: set[tuple] | None = None,
) -> _Enumeration:
    """Serial convenience wrapper used by :func:`extend_statistics`."""
    runner = _TaskRunner(graph, config, jobs=1)
    try:
        enumeration, _ = _enumerate_workload_leveled(
            graph, workload, config, runner,
            checkpoint=None, resume=False, stop_after_level=None, skip=skip,
            telemetry=JobTelemetry("stats.extend"),
        )
    finally:
        runner.close()
    return enumeration


# ----------------------------------------------------------------------
# Store assembly
# ----------------------------------------------------------------------

def _populate_markov(
    markov: MarkovTable, enumeration: _Enumeration, h: int
) -> None:
    for key, count in enumeration.counts.items():
        if len(key) <= h:
            markov._cache[key] = count


def _populate_degrees(
    catalog: DegreeCatalog, enumeration: _Enumeration
) -> None:
    for key, relation in enumeration.degree_relations.items():
        catalog._cache[key] = relation


def _prime_from_workload(
    markov: MarkovTable,
    workload: Sequence[QueryPattern],
    cycle_rates: CycleClosingRates,
    h: int,
) -> None:
    """Populate walk-sampled cycle rates, one CEG per cyclic shape."""
    primed: set[tuple] = set()
    for query in workload:
        key = canonical_key(query)
        if key in primed:
            continue
        primed.add(key)
        shape = canonical_pattern(query)
        if largest_cycle_length(shape) <= h:
            continue
        try:
            build_ceg_o(shape, markov, cycle_rates=cycle_rates)
        except ReproError:
            continue


def build_statistics(
    graph: LabeledDiGraph,
    config: StatsBuildConfig | None = None,
    workload: Sequence[QueryPattern] | None = None,
    dataset_name: str = "",
    *,
    jobs: int = 1,
    checkpoint_dir: str | Path | None = None,
    resume: bool = False,
    stop_after_level: int | None = None,
    telemetry: JobTelemetry | None = None,
) -> StatisticsStore:
    """Bulk-build a :class:`StatisticsStore` for ``graph``.

    Without a ``workload`` the build enumerates every connected pattern
    up to ``max(h, molp_h)`` atoms over the label set (a *complete*
    artifact: misses are provably empty); with one it builds exactly the
    statistics the workload's queries can touch (the paper's §6 setup).

    ``jobs`` fans each enumeration level out across worker processes;
    the artifact is byte-identical for every jobs value.  With a
    ``checkpoint_dir`` the coordinator persists a resume checkpoint
    after every level: a killed build rerun with ``resume=True``
    continues from the last completed level.  ``stop_after_level``
    (requires a checkpoint) raises :class:`BuildInterrupted` once that
    level's checkpoint is durable — the hook the interruption tests and
    the CI resume smoke use in place of ``kill -9``.

    ``telemetry`` (a :class:`~repro.obs.offline.JobTelemetry`; a silent
    one when omitted) records per-level/per-shard spans plus build
    counters and an edges/sec gauge on the bundle; it never touches the
    artifact — bytes stay identical whether or not the bundle writes
    anything, serial, parallel, or resumed.
    """
    config = config or StatsBuildConfig()
    telemetry = telemetry or JobTelemetry("stats.build")
    started = time.perf_counter()
    if stop_after_level is not None and checkpoint_dir is None:
        raise DatasetError("stop_after_level requires a checkpoint_dir")
    mode = "full" if workload is None else "workload"
    checkpoint: _BuildCheckpoint | None = None
    if checkpoint_dir is not None:
        scope = ""
        if workload is not None:
            h_enum = max(config.h, config.molp_h)
            scope = _workload_scope_digest(
                _needed_subpatterns(workload, h_enum)
            )
        checkpoint = _BuildCheckpoint(
            checkpoint_dir,
            fingerprint=dataset_fingerprint(graph),
            config=config,
            mode=mode,
            scope_digest=scope,
        )
    runner = _TaskRunner(graph, config, jobs)
    try:
        if workload is None:
            enumeration, level_stats = _enumerate_full_leveled(
                graph, config, runner, checkpoint, resume,
                stop_after_level, telemetry,
            )
        else:
            enumeration, level_stats = _enumerate_workload_leveled(
                graph, workload, config, runner, checkpoint, resume,
                stop_after_level, telemetry=telemetry,
            )
    finally:
        runner.close()
    if checkpoint is not None:
        checkpoint.clear()
    build_seconds = time.perf_counter() - started
    telemetry.trace.note(
        mode=mode,
        jobs=max(1, int(jobs)),
        enumerated=enumeration.enumerated,
        edges=graph.num_edges,
    )
    registry = telemetry.registry
    registry.gauge(
        "repro_build_seconds",
        "Wall seconds of the last statistics build.",
    ).set(round(build_seconds, 6))
    registry.gauge(
        "repro_build_edges_per_second",
        "Graph edges divided by build wall time (throughput).",
    ).set(
        round(graph.num_edges / build_seconds, 3)
        if build_seconds > 0
        else 0.0
    )
    registry.gauge(
        "repro_build_peak_level_width",
        "Widest level (stored patterns) of the last build.",
    ).set(max((entry["stored"] for entry in level_stats), default=0))

    markov = MarkovTable(
        graph,
        h=config.h,
        count_budget=config.count_budget,
        labels=graph.labels,
        complete=enumeration.markov_complete,
    )
    _populate_markov(markov, enumeration, config.h)
    degrees = DegreeCatalog(
        graph,
        h=config.molp_h,
        max_rows=config.max_rows,
        complete=enumeration.degrees_complete,
    )
    _populate_degrees(degrees, enumeration)

    rates = (
        CycleClosingRates(
            graph, seed=config.cycle_seed, samples=config.cycle_samples
        )
        if config.cycle_rates
        else None
    )
    if workload is not None and rates is not None:
        _prime_from_workload(markov, workload, rates, config.h)

    manifest = StoreManifest(
        dataset_fingerprint=dataset_fingerprint(graph),
        dataset_name=dataset_name,
        graph_summary=graph.summary(),
        h=config.h,
        molp_h=config.molp_h,
        complete=enumeration.markov_complete and enumeration.degrees_complete,
        build_config=dict(
            config.as_dict(),
            mode=mode,
            enumerated_patterns=enumeration.enumerated,
            build_seconds=round(time.perf_counter() - started, 6),
            jobs=max(1, int(jobs)),
            levels=level_stats,
            peak_level_width=max(
                (entry["stored"] for entry in level_stats), default=0
            ),
        ),
    )
    return StatisticsStore(
        manifest=manifest,
        markov=markov,
        degrees=degrees,
        cycle_rates=rates,
        graph=graph,
    )


def extend_statistics(
    store: StatisticsStore,
    graph: LabeledDiGraph,
    workload: Sequence[QueryPattern],
) -> StatisticsStore:
    """Add the statistics a further workload needs to an existing store.

    Used by the experiment drivers to share one store per dataset across
    figures: canonical shapes already counted are skipped, new ones are
    counted once through the shared bulk path.
    """
    config = StatsBuildConfig(
        h=store.markov.h,
        molp_h=store.degrees.h,
        max_rows=store.degrees.max_rows,
        count_budget=store.markov.count_budget,
    )
    enumeration = _enumerate_workload(
        graph,
        workload,
        config,
        # Markov keys cover sizes <= h; degree keys additionally cover
        # h < size <= molp_h patterns that have no Markov entry.
        skip=set(store.markov._cache) | set(store.degrees._cache),
    )
    _populate_markov(store.markov, enumeration, config.h)
    for key, relation in enumeration.degree_relations.items():
        store.degrees._cache.setdefault(key, relation)
    if store.cycle_rates is not None:
        _prime_from_workload(
            store.markov, workload, store.cycle_rates, config.h
        )
    return store
