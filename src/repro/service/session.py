"""Batched estimation sessions with canonical-shape caching.

Real workloads are dominated by repeated query *shapes*: the same
template instantiated with fresh variable names (and often the same
labels) arrives over and over.  The seed estimators rebuild their CEG
and re-read catalog statistics for every such arrival.  An
:class:`EstimationSession` instead canonicalizes each incoming
:class:`~repro.query.pattern.QueryPattern` via
:func:`repro.query.canonical.canonical_key` and serves estimates through
two LRU caches:

* **skeleton cache** — canonical shape → built ``CEG_O``/``CEG_OCR``,
  so structurally-identical queries never re-run the CEG construction;
* **estimate cache** — (canonical shape, estimator config) → estimate,
  so they never re-run the path DP either.

``CEG_M`` has no cached skeleton: MOLP runs a DP over the query's
attribute lattice without building the graph.  Its shared state — the
degree statistics of small joins — lives in
:class:`~repro.catalog.degrees.DegreeCatalog`, which the session holds
once and reuses across the batch, and finished bounds land in the
estimate cache like everything else.

Because every estimator in this library computes from the *canonical*
pattern (see :meth:`repro.core.estimators.OptimisticEstimator.build_ceg`),
a cached estimate is bit-for-bit the value a fresh estimator would
produce — caching is observationally invisible, which the property tests
in ``tests/test_service_property.py`` enforce.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.catalog.cycle_rates import CycleClosingRates
from repro.catalog.degrees import DegreeCatalog
from repro.catalog.markov import MarkovTable
from repro.core.bound_sketch import molp_sketch_bound
from repro.core.ceg import CEG
from repro.core.ceg_m import molp_bound
from repro.core.ceg_o import build_ceg_o
from repro.core.paths import (
    AGGREGATOR_CHOICES,
    PATH_LENGTH_CHOICES,
    estimate_from_ceg,
)
from repro.errors import ReproError
from repro.graph.digraph import LabeledDiGraph
from repro.query.canonical import canonical_key, canonical_pattern
from repro.query.pattern import QueryPattern
from repro.service.lru import CacheStats, LRUCache
from repro.stats.store import StatisticsStore

__all__ = [
    "EstimatorSpec",
    "SessionStats",
    "BatchItem",
    "BatchResult",
    "SessionEstimator",
    "EstimationSession",
]

OPTIMISTIC_NAMES = tuple(
    f"{'all-hops' if hop == 'all' else hop + '-hop'}-{agg}"
    for hop in PATH_LENGTH_CHOICES
    for agg in AGGREGATOR_CHOICES
)


@dataclass(frozen=True)
class EstimatorSpec:
    """One estimator configuration a session can serve.

    ``kind`` selects the family: ``"optimistic"`` is a point of the §4.2
    space over ``CEG_O``/``CEG_OCR`` (``path_length`` × ``aggregator``,
    plus ``use_cycle_rates`` for the §4.3 variant); ``"molp"`` is the
    pessimistic MOLP bound (``sketch_budget > 1`` enables the §5.3 bound
    sketch).
    """

    kind: str = "optimistic"
    path_length: str = "max"
    aggregator: str = "max"
    use_cycle_rates: bool = False
    sketch_budget: int = 1

    def __post_init__(self):
        if self.kind not in ("optimistic", "molp"):
            raise ValueError(f"unknown estimator kind {self.kind!r}")
        if self.kind == "optimistic":
            if self.path_length not in PATH_LENGTH_CHOICES:
                raise ValueError(
                    f"path_length must be one of {PATH_LENGTH_CHOICES}"
                )
            if self.aggregator not in AGGREGATOR_CHOICES:
                raise ValueError(
                    f"aggregator must be one of {AGGREGATOR_CHOICES}"
                )
        if self.sketch_budget < 1:
            raise ValueError("sketch_budget must be >= 1")

    @property
    def name(self) -> str:
        """Paper-style label (``max-hop-max``, ``MOLP``, ``MOLP-sketch4``)."""
        if self.kind == "molp":
            if self.sketch_budget > 1:
                return f"MOLP-sketch{self.sketch_budget}"
            return "MOLP"
        hop = (
            "all-hops" if self.path_length == "all" else f"{self.path_length}-hop"
        )
        suffix = "+ocr" if self.use_cycle_rates else ""
        return f"{hop}-{self.aggregator}{suffix}"

    @classmethod
    def from_name(cls, name: str) -> "EstimatorSpec":
        """Parse a paper-style label back into a spec."""
        if name == "MOLP":
            return cls(kind="molp")
        if name.startswith("MOLP-sketch"):
            budget_text = name[len("MOLP-sketch"):]
            try:
                budget = int(budget_text)
            except ValueError:
                raise ValueError(f"bad MOLP sketch budget in {name!r}") from None
            return cls(kind="molp", sketch_budget=budget)
        use_ocr = name.endswith("+ocr")
        base = name[:-4] if use_ocr else name
        head, _, aggregator = base.rpartition("-")
        hop = {"max-hop": "max", "min-hop": "min", "all-hops": "all"}.get(head)
        if hop is None or aggregator not in AGGREGATOR_CHOICES:
            raise ValueError(
                f"unknown estimator name {name!r}; expected one of "
                f"{OPTIMISTIC_NAMES + ('MOLP', 'MOLP-sketch<K>')} "
                "(optionally suffixed with '+ocr')"
            )
        return cls(
            kind="optimistic",
            path_length=hop,
            aggregator=aggregator,
            use_cycle_rates=use_ocr,
        )

    @classmethod
    def coerce(cls, value: "EstimatorSpec | str") -> "EstimatorSpec":
        """Accept either a spec object or a paper-style name."""
        if isinstance(value, EstimatorSpec):
            return value
        return cls.from_name(value)


@dataclass(frozen=True)
class SessionStats:
    """Snapshot of both session caches."""

    skeletons: CacheStats
    estimates: CacheStats

    def as_dict(self) -> dict[str, dict[str, float | int]]:
        """JSON-friendly representation."""
        return {
            "skeletons": self.skeletons.as_dict(),
            "estimates": self.estimates.as_dict(),
        }


@dataclass(frozen=True)
class BatchItem:
    """One (query, estimator) cell of a batch result."""

    index: int
    estimator: str
    estimate: float | None
    error: str | None
    seconds: float

    @property
    def ok(self) -> bool:
        """Whether estimation succeeded for this cell."""
        return self.error is None


@dataclass
class BatchResult:
    """All estimates of one :meth:`EstimationSession.estimate_batch` call.

    ``items`` is query-major and deterministic: the cell for query ``i``
    under the ``j``-th spec sits at ``items[i * len(specs) + j]``
    regardless of thread scheduling.
    """

    specs: list[str]
    num_queries: int
    items: list[BatchItem]
    wall_seconds: float
    stats: SessionStats

    def item(self, index: int, spec: str) -> BatchItem:
        """The cell for one query index and estimator name."""
        return self.items[index * len(self.specs) + self.specs.index(spec)]

    def estimates_for(self, spec: str) -> list[float | None]:
        """Per-query estimates (None where estimation failed) for a spec."""
        column = self.specs.index(spec)
        return [
            self.items[i * len(self.specs) + column].estimate
            for i in range(self.num_queries)
        ]

    @property
    def failures(self) -> list[BatchItem]:
        """Every cell whose estimation raised."""
        return [item for item in self.items if not item.ok]

    @property
    def ok(self) -> bool:
        """Whether every cell succeeded."""
        return not self.failures


@dataclass
class SessionEstimator:
    """Adapter exposing one spec of a session as an ``EstimatorLike``.

    Lets session-backed estimators drop into any code written against
    the ``estimate(query) -> float`` protocol (e.g.
    :func:`repro.experiments.harness.run_harness`).
    """

    session: "EstimationSession"
    spec: EstimatorSpec

    @property
    def name(self) -> str:
        """The spec's paper-style label."""
        return self.spec.name

    def estimate(self, query: QueryPattern) -> float:
        """Cached estimate for one query."""
        return self.session.estimate(query, self.spec)


class EstimationSession:
    """A multi-query estimation service over one graph's statistics.

    Parameters
    ----------
    graph:
        The data graph.  May be None when a ``store`` is supplied: the
        session then serves purely from the store's artifacts and never
        touches a base graph (the §6 deployment shape) — ``MOLP-sketch``
        specs, which re-partition base relations, are rejected.
    h:
        Markov-table size for the optimistic estimators.
    molp_h:
        Join-statistics size for the MOLP degree catalog.
    cycle_rates:
        Optional sampled cycle-closing rates enabling ``+ocr`` specs
        (defaults to the store's rates when a store is given).
    markov:
        An existing Markov table to reuse.  Otherwise one is built
        lazily over ``graph``, each miss counted exactly by
        :func:`repro.engine.count_pattern`.
    store:
        A prebuilt :class:`~repro.stats.StatisticsStore` supplying the
        Markov table, degree catalog and cycle rates; its ``h`` and
        ``molp_h`` take precedence.
    skeleton_capacity / estimate_capacity:
        LRU capacities of the two caches.
    max_workers:
        Default thread count for :meth:`estimate_batch` (None lets the
        executor decide; 1 forces serial execution).
    """

    def __init__(
        self,
        graph: LabeledDiGraph | None,
        h: int = 3,
        molp_h: int = 2,
        cycle_rates: CycleClosingRates | None = None,
        markov: MarkovTable | None = None,
        skeleton_capacity: int = 512,
        estimate_capacity: int = 4096,
        max_workers: int | None = None,
        max_rows: int | None = 5_000_000,
        store: StatisticsStore | None = None,
    ):
        catalog: DegreeCatalog | None = None
        if store is not None:
            if graph is None:
                graph = store.graph
            markov = store.markov
            h = store.markov.h
            molp_h = store.degrees.h
            catalog = store.degrees
            if cycle_rates is None:
                cycle_rates = store.cycle_rates
        elif graph is None and markov is None:
            raise ValueError(
                "EstimationSession needs a graph, a Markov table, or a "
                "statistics store"
            )
        self.graph = graph
        self.store = store
        self.h = h
        self.molp_h = molp_h
        self.cycle_rates = cycle_rates
        self.markov = markov if markov is not None else MarkovTable(graph, h=h)
        self.max_workers = max_workers
        self.max_rows = max_rows
        self._skeletons: LRUCache[CEG] = LRUCache(skeleton_capacity)
        self._estimates: LRUCache[float] = LRUCache(estimate_capacity)
        self._build_lock = threading.Lock()
        self._catalog: DegreeCatalog | None = catalog
        self._catalog_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Cached building blocks
    # ------------------------------------------------------------------
    def ceg_for(self, pattern: QueryPattern, use_cycle_rates: bool = False) -> CEG:
        """The shape-cached ``CEG_O`` (or ``CEG_OCR``) of a pattern.

        The CEG is built from the pattern's canonical form, so all
        variable renamings of one shape share a single skeleton.
        """
        if use_cycle_rates and self.cycle_rates is None:
            raise ValueError(
                "CEG_OCR skeletons need a session built with cycle_rates"
            )
        rates = self.cycle_rates if use_cycle_rates else None
        key = (canonical_key(pattern), rates is not None)
        cached = self._skeletons.get(key)
        if cached is not None:
            return cached
        with self._build_lock:
            cached = self._skeletons.peek(key)
            if cached is not None:
                return cached
            built = build_ceg_o(
                canonical_pattern(pattern), self.markov, cycle_rates=rates
            )
            self._skeletons.put(key, built)
            return built

    def _degree_catalog(self) -> DegreeCatalog:
        with self._catalog_lock:
            if self._catalog is None:
                self._catalog = DegreeCatalog(
                    self.graph, h=self.molp_h, max_rows=self.max_rows
                )
            return self._catalog

    def validate_spec(self, spec: EstimatorSpec) -> None:
        """Reject specs this session cannot serve (caller error).

        Raises ``ValueError`` — the request is misconfigured, not a
        per-query data problem.  The server maps this onto its
        ``unsupported_spec`` wire error before admitting a request.
        """
        if spec.use_cycle_rates and self.cycle_rates is None:
            raise ValueError(
                f"spec {spec.name!r} needs cycle rates but the session has none"
            )
        if spec.kind == "molp" and spec.sketch_budget > 1 and self.graph is None:
            raise ValueError(
                f"spec {spec.name!r} partitions base relations and needs a "
                "data graph; a statistics-only session serves plain MOLP"
            )

    # ------------------------------------------------------------------
    # Estimation
    # ------------------------------------------------------------------
    def estimate(
        self, pattern: QueryPattern, spec: EstimatorSpec | str = "max-hop-max"
    ) -> float:
        """Cached estimate of one query under one estimator config.

        Raises the same :class:`~repro.errors.ReproError` subclasses a
        fresh estimator would (errors are never cached).
        """
        spec = EstimatorSpec.coerce(spec)
        self.validate_spec(spec)
        key = (canonical_key(pattern), spec)
        cached = self._estimates.get(key)
        if cached is not None:
            return cached
        if spec.kind == "optimistic":
            ceg = self.ceg_for(pattern, use_cycle_rates=spec.use_cycle_rates)
            value = estimate_from_ceg(ceg, spec.path_length, spec.aggregator)
        else:
            shape = canonical_pattern(pattern)
            if spec.sketch_budget > 1:
                value = molp_sketch_bound(
                    self.graph,
                    shape,
                    spec.sketch_budget,
                    h=self.molp_h,
                    max_rows=self.max_rows,
                    catalog=self._degree_catalog(),
                )
            else:
                value = molp_bound(shape, self._degree_catalog())
        self._estimates.put(key, value)
        return value

    def peek_estimates(
        self, pattern: QueryPattern, specs: Sequence[EstimatorSpec]
    ) -> dict[str, float] | None:
        """Cached floats for *every* spec, or None when any is missing.

        The non-blocking probe behind the server's warm fast path: an
        all-hit request is answered on the event loop without a worker
        thread.  The floats are the exact objects :meth:`estimate`
        cached, so callers see bit-identical values either way; errors
        are never cached, so an all-hit probe implies no per-query
        failures.  Specs must already be validated.
        """
        shape = canonical_key(pattern)
        out: dict[str, float] = {}
        for spec in specs:
            cached = self._estimates.probe((shape, spec))
            if cached is None:
                return None
            out[spec.name] = cached
        return out

    def estimate_one(
        self, pattern: QueryPattern, spec: EstimatorSpec | str = "max-hop-max"
    ) -> BatchItem:
        """One (query, spec) cell with errors captured, not raised.

        The coalescing-friendly single-item entry point the network
        server fans out over: per-query data failures come back as
        :attr:`BatchItem.error` (exactly as a batch cell would report
        them) while spec misconfiguration still raises ``ValueError``
        up front.  Thread-safe, like :meth:`estimate`.
        """
        spec = EstimatorSpec.coerce(spec)
        self.validate_spec(spec)
        started = time.perf_counter()
        try:
            value: float | None = self.estimate(pattern, spec)
            error = None
        except ReproError as exc:
            value = None
            error = f"{type(exc).__name__}: {exc}"
        return BatchItem(
            index=0,
            estimator=spec.name,
            estimate=value,
            error=error,
            seconds=time.perf_counter() - started,
        )

    def estimator(self, spec: EstimatorSpec | str) -> SessionEstimator:
        """An ``EstimatorLike`` adapter serving one spec from this session."""
        return SessionEstimator(self, EstimatorSpec.coerce(spec))

    def estimators(
        self, specs: Iterable[EstimatorSpec | str]
    ) -> dict[str, SessionEstimator]:
        """Adapters for several specs, keyed by their names."""
        adapters = [self.estimator(spec) for spec in specs]
        return {adapter.name: adapter for adapter in adapters}

    def estimate_batch(
        self,
        patterns: Sequence[QueryPattern],
        specs: Sequence[EstimatorSpec | str] = ("max-hop-max",),
        max_workers: int | None = None,
    ) -> BatchResult:
        """Estimate every pattern under every spec, in parallel.

        Work is fanned out over a thread pool but results come back in
        deterministic query-major order (query index, then spec order),
        independent of scheduling.  Per-cell failures are captured as
        :attr:`BatchItem.error` instead of aborting the batch.
        """
        spec_objs = [EstimatorSpec.coerce(spec) for spec in specs]
        if len({spec.name for spec in spec_objs}) != len(spec_objs):
            raise ValueError("duplicate estimator specs in batch")
        # Spec misconfiguration is a caller error, not per-query data:
        # reject it before fan-out so it cannot surface as a mid-batch
        # ValueError escaping the per-cell ReproError capture.
        for spec in spec_objs:
            self.validate_spec(spec)
        tasks = [
            (index, pattern, spec)
            for index, pattern in enumerate(patterns)
            for spec in spec_objs
        ]

        def run_one(task: tuple[int, QueryPattern, EstimatorSpec]) -> BatchItem:
            index, pattern, spec = task
            started = time.perf_counter()
            try:
                value: float | None = self.estimate(pattern, spec)
                error = None
            except ReproError as exc:
                value = None
                error = f"{type(exc).__name__}: {exc}"
            return BatchItem(
                index=index,
                estimator=spec.name,
                estimate=value,
                error=error,
                seconds=time.perf_counter() - started,
            )

        workers = max_workers if max_workers is not None else self.max_workers
        wall_started = time.perf_counter()
        if workers is not None and workers <= 1:
            items = [run_one(task) for task in tasks]
        else:
            with ThreadPoolExecutor(max_workers=workers) as executor:
                items = list(executor.map(run_one, tasks))
        return BatchResult(
            specs=[spec.name for spec in spec_objs],
            num_queries=len(patterns),
            items=items,
            wall_seconds=time.perf_counter() - wall_started,
            stats=self.stats(),
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> SessionStats:
        """Hit/miss/eviction snapshot of both caches.

        Thread-safe: each cache snapshots its counters under its own
        lock (the two snapshots are not taken atomically together, so a
        concurrent estimate may land between them — fine for the
        monitoring/introspection surfaces this feeds).
        """
        return SessionStats(
            skeletons=self._skeletons.stats(),
            estimates=self._estimates.stats(),
        )

    def clear_caches(self) -> None:
        """Drop both caches (counters survive, statistics tables stay)."""
        self._skeletons.clear()
        self._estimates.clear()
