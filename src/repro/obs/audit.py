"""Sampled q-error audit probe: live accuracy telemetry.

The serving stack reports *speed* for free, but ROADMAP item 5's
feedback loop needs *accuracy*: how far off are the estimates actually
being served?  :class:`AuditProbe` answers it at a configurable
sampling rate without touching the request path:

* the server calls :meth:`maybe_sample` after a served estimate — a
  coin flip plus a bounded, non-blocking queue put (overflow drops the
  sample and counts it, never blocks the event loop);
* a lazily-started daemon thread drains the queue, re-runs each sampled
  query against **WanderJoin** ground truth
  (:class:`repro.baselines.wanderjoin.WanderJoinEstimator`) on a
  graph-backed reference tenant, and publishes
  ``repro_audit_q_error{estimator, shape_class}`` histograms into the
  metrics registry (``shape_class`` = acyclic/cyclic × edge count, the
  axis item 5's per-shape estimator switch will pivot on).

The reference graph is resolved from the audited tenant's artifact
manifest (``dataset_name`` + build ``scale``) through
:func:`repro.datasets.presets.load_dataset`, so the probe needs no
extra configuration beyond a rate.  It is fork-safe: the worker thread
is keyed to the owning pid and restarts lazily in a forked child.
"""

from __future__ import annotations

import os
import queue
import random
import sys
import threading
import time
from typing import Any, Callable

from repro.obs.metrics import Q_ERROR_BUCKETS, MetricsRegistry
from repro.obs.tracing import NdjsonSink

__all__ = ["AuditProbe", "shape_class"]


def shape_class(pattern: Any) -> str:
    """The (cyclicity, size) bucket of a query pattern."""
    from repro.query.shape import spanning_tree_and_closures

    _tree, closures = spanning_tree_and_closures(pattern)
    kind = "cyclic" if closures else "acyclic"
    return f"{kind}-{len(pattern.edges)}e"


class AuditProbe:
    """Background ground-truth auditing of served estimates."""

    def __init__(
        self,
        registry: MetricsRegistry,
        graph_loader: Callable[[str], Any],
        rate: float = 0.01,
        tenant: str | None = None,
        walk_ratio: float = 0.05,
        queue_limit: int = 256,
        seed: int = 0,
        pace_seconds: float = 0.05,
        sink: NdjsonSink | None = None,
    ):
        """``graph_loader(tenant)`` resolves the reference graph; it runs
        on the probe thread (it may parse datasets) and may raise.

        ``sink`` (optional, usually the server's trace-log sink) gets
        one ``type: "audit"`` NDJSON record per audited sample — the
        query, the shape class, every estimator's estimate, the
        WanderJoin ground truth and the resulting q-errors — so the
        offline ``repro obs audit`` analysis can show *which* queries
        the histograms' tail came from.
        """
        if not 0.0 <= rate <= 1.0:
            raise ValueError("audit rate must be within [0, 1]")
        self.rate = rate
        self.tenant = tenant
        self.walk_ratio = walk_ratio
        self.pace_seconds = pace_seconds
        self.sink = sink
        self._graph_loader = graph_loader
        self._rng = random.Random(seed)
        self._queue: queue.Queue = queue.Queue(maxsize=queue_limit)
        self._lock = threading.Lock()
        self._thread: threading.Thread | None = None
        self._owner_pid: int | None = None
        self._stop = threading.Event()
        self._estimators: dict[str, Any] = {}  # tenant -> WanderJoin
        self._disabled_tenants: set[str] = set()
        #: Enqueued vs fully-processed sample counts; ``drain()`` waits
        #: for them to meet, covering the dequeued-but-mid-audit window
        #: a bare queue.empty() check would miss.
        self._enqueued = 0
        self._processed = 0
        self.q_error = registry.histogram(
            "repro_audit_q_error",
            "Q-error of sampled served estimates vs WanderJoin ground "
            "truth.",
            Q_ERROR_BUCKETS,
            labels=("estimator", "shape_class"),
        )
        self.samples = registry.counter(
            "repro_audit_samples_total",
            "Served estimates audited against ground truth.",
            labels=("estimator",),
        )
        self.dropped = registry.counter(
            "repro_audit_dropped_total",
            "Audit samples dropped (queue full or probe errors).",
        )
        registry.gauge(
            "repro_audit_queue_depth",
            "Sampled estimates awaiting ground-truth replay.",
            callback=self._queue.qsize,
        )

    # ------------------------------------------------------------------
    # Request-path side (event loop; must never block)
    # ------------------------------------------------------------------
    def maybe_sample(
        self, tenant: str, query: str, estimates: dict[str, float]
    ) -> bool:
        """Coin-flip enqueue of one served estimate; returns sampled?"""
        if self.rate <= 0.0 or not estimates:
            return False
        if self.tenant is not None and tenant != self.tenant:
            return False
        if tenant in self._disabled_tenants:
            return False
        if self._rng.random() >= self.rate:
            return False
        try:
            self._queue.put_nowait((tenant, query, dict(estimates)))
        except queue.Full:
            self.dropped.inc()
            return False
        self._enqueued += 1
        self._ensure_thread()
        return True

    def _ensure_thread(self) -> None:
        pid = os.getpid()
        with self._lock:
            if self._thread is not None and self._owner_pid == pid:
                if self._thread.is_alive():
                    return
            # First sample in this process (or we are a forked child
            # holding the parent's dead thread handle): start fresh.
            self._owner_pid = pid
            self._stop = threading.Event()
            self._thread = threading.Thread(
                target=self._run, name="repro-audit", daemon=True
            )
            self._thread.start()

    def prewarm(self, tenant: str) -> bool:
        """Load ``tenant``'s reference graph now, on the caller's thread.

        The first audited sample otherwise pays the dataset parse and
        graph build mid-traffic — a long pure-Python stretch that
        contends with the serving loop for the GIL.  Deployments (and
        benchmarks) that know the audited tenant up front should pay it
        at startup instead.  Returns whether the tenant is auditable.
        """
        return self._truth_estimator(tenant) is not None

    def stop(self, timeout: float = 5.0) -> None:
        """Stop the probe thread after draining queued samples."""
        with self._lock:
            thread = self._thread
            if thread is None or self._owner_pid != os.getpid():
                return
            self._stop.set()
        try:
            self._queue.put_nowait(None)  # wake the drain loop
        except queue.Full:
            pass
        thread.join(timeout)

    # ------------------------------------------------------------------
    # Probe-thread side
    # ------------------------------------------------------------------
    def _truth_estimator(self, tenant: str) -> Any | None:
        estimator = self._estimators.get(tenant)
        if estimator is not None:
            return estimator
        from repro.baselines.wanderjoin import WanderJoinEstimator

        try:
            graph = self._graph_loader(tenant)
        except Exception:
            # Non-graph-backed tenant (unknown dataset, scaled synth not
            # materialisable here): auditing it is impossible, stop
            # paying for the attempt.
            self._disabled_tenants.add(tenant)
            return None
        estimator = WanderJoinEstimator(graph, seed=0)
        self._estimators[tenant] = estimator
        return estimator

    def _audit_one(
        self, tenant: str, query: str, estimates: dict[str, float]
    ) -> None:
        from repro.experiments.metrics import q_error
        from repro.query.parser import parse_pattern

        estimator = self._truth_estimator(tenant)
        if estimator is None:
            self.dropped.inc()
            return
        pattern = parse_pattern(query)
        truth = estimator.estimate(pattern, ratio=self.walk_ratio)
        bucket = shape_class(pattern)
        errors: dict[str, float] = {}
        for name, value in sorted(estimates.items()):
            errors[name] = q_error(value, truth)
            self.q_error.observe(
                errors[name], estimator=name, shape_class=bucket
            )
            self.samples.inc(estimator=name)
        if self.sink is not None:
            self.sink.write(
                {
                    "type": "audit",
                    "ts": time.time(),
                    "pid": os.getpid(),
                    "tenant": tenant,
                    "query": query,
                    "shape_class": bucket,
                    "truth": truth,
                    "walk_ratio": self.walk_ratio,
                    "estimates": {
                        name: float(value)
                        for name, value in sorted(estimates.items())
                    },
                    "q_errors": errors,
                }
            )

    def _run(self) -> None:
        while not self._stop.is_set() or not self._queue.empty():
            try:
                item = self._queue.get(timeout=0.25)
            except queue.Empty:
                continue
            if item is None:
                continue
            # The replay (and the one-time reference-graph load) is
            # pure-Python CPU work.  At the interpreter's default 5 ms
            # switch interval a busy probe holds the GIL in 5 ms slices
            # and convoys the serving event loop; drop to 0.5 ms while
            # auditing so request handling preempts the probe quickly.
            previous = sys.getswitchinterval()
            sys.setswitchinterval(0.0005)
            try:
                self._audit_one(*item)
            except Exception:
                # A malformed sample must not kill the probe.
                self.dropped.inc()
            finally:
                sys.setswitchinterval(previous)
                self._processed += 1
            if self.pace_seconds > 0.0:
                # Spread audits out instead of replaying back to back;
                # sampling tolerates the queue overflowing under burst
                # (drops are counted), latency does not tolerate a
                # CPU-saturated sibling thread.
                self._stop.wait(self.pace_seconds)

    def drain(self, timeout: float = 10.0) -> None:
        """Block until queued samples are audited (tests/benchmarks)."""
        deadline = time.monotonic() + timeout
        while (
            self._processed < self._enqueued
            and time.monotonic() < deadline
        ):
            time.sleep(0.01)
