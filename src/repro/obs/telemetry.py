"""The per-process telemetry bundle the serving stack threads around.

One :class:`Telemetry` object owns the process's
:class:`~repro.obs.metrics.MetricsRegistry`, the optional trace-log
:class:`~repro.obs.tracing.NdjsonSink`, the slow-query threshold and
the optional :class:`~repro.obs.audit.AuditProbe`, plus the request
lifecycle glue: :meth:`begin` mints a :class:`RequestTrace` and
:meth:`finish` turns it into counters, stage histograms, a trace-log
line and — past the threshold — a slow-query record.

``enabled=False`` collapses every hook to a no-op: ``begin`` returns
the shared :data:`~repro.obs.tracing.NULL_TRACE`, whose spans, notes
and annotations record nothing, and ``finish`` returns at once.  The
server runs the same code either way; this is the baseline leg of
``benchmarks/bench_obs_overhead.py``.
"""

from __future__ import annotations

import os
import queue
import threading
import time
from typing import Any

from repro.obs.metrics import LATENCY_BUCKETS_MS, MetricsRegistry
from repro.obs.tracing import NULL_TRACE, NdjsonSink, NullTrace, RequestTrace

__all__ = ["Telemetry"]

#: Stage-duration histogram bounds (ms): finer than the request-latency
#: buckets at the microsecond end, where queue/cache-probe spans live.
STAGE_BUCKETS_MS = (
    0.01, 0.05, 0.1, 0.25, 0.5, 1, 2, 5, 10, 25, 50, 100, 250, 1000,
)


class Telemetry:
    """Metrics + tracing + slow-query capture for one serving process."""

    def __init__(
        self,
        registry: MetricsRegistry | None = None,
        sink: NdjsonSink | None = None,
        slow_query_ms: float = 500.0,  # 0 disables the slow-query log
        audit: Any = None,
        enabled: bool = True,
        worker_index: int | None = None,
    ):
        self.enabled = enabled
        self.registry = registry if registry is not None else MetricsRegistry()
        self.sink = sink
        self.slow_query_ms = slow_query_ms
        self.audit = audit
        self.worker_index = worker_index
        self.requests_total = self.registry.counter(
            "repro_requests_total",
            "Requests dispatched, by verb ('_unparsed' counts undecodable "
            "lines).",
            labels=("verb",),
        )
        self.request_latency = self.registry.histogram(
            "repro_request_latency_ms",
            "End-to-end estimate latency per tenant, milliseconds.",
            LATENCY_BUCKETS_MS,
            labels=("tenant",),
        )
        self.stage_ms = self.registry.histogram(
            "repro_stage_ms",
            "Per-stage request time, milliseconds (span durations).",
            STAGE_BUCKETS_MS,
            labels=("stage",),
        )
        self.slow_queries = self.registry.counter(
            "repro_slow_queries_total",
            "Requests slower than the --slow-query-ms threshold.",
        )
        self.trace_records = self.registry.counter(
            "repro_trace_records_total",
            "Trace records written to the --trace-log sink.",
        )
        self.trace_dropped = self.registry.counter(
            "repro_trace_record_drops_total",
            "Trace records dropped (writer backlog or serialisation "
            "failure).",
        )
        # Trace records are serialised and written by a background
        # thread: json.dumps plus the sink's stat/write syscalls are
        # ~50-100us per request, which the serving event loop cannot
        # afford at high request rates.  The thread is pid-keyed (fork
        # safety, same scheme as the audit probe) and lazily started.
        self._queue: queue.Queue = queue.Queue(maxsize=4096)
        self._writer_lock = threading.Lock()
        self._writer: threading.Thread | None = None
        self._writer_pid: int | None = None
        self._writer_stop = threading.Event()
        self._enqueued = 0
        self._written = 0

    # ------------------------------------------------------------------
    # Request lifecycle
    # ------------------------------------------------------------------
    def begin(
        self, verb: str, tenant: str | None, trace_id: str | None = None
    ) -> RequestTrace | NullTrace:
        """A trace for one request (:data:`NULL_TRACE` when off)."""
        if not self.enabled:
            return NULL_TRACE
        return RequestTrace(verb, tenant, trace_id=trace_id)

    def finish(
        self, trace: RequestTrace | NullTrace, ok: bool, seconds: float
    ) -> None:
        """Close out one request: stage metrics, trace log, slow log."""
        if not self.enabled:
            return
        wall_ms = seconds * 1000.0
        for stage, ms in trace.stage_totals().items():
            self.stage_ms.observe(ms, stage=stage)
        # A threshold of 0 means "off", not "log every request".
        slow = self.slow_query_ms > 0 and wall_ms >= self.slow_query_ms
        if slow:
            self.slow_queries.inc()
        if self.sink is None:
            return
        extra: dict[str, Any] = {"ok": ok, "wall_ms": round(wall_ms, 4)}
        if self.worker_index is not None:
            extra["worker"] = self.worker_index
        # The trace is complete at this point (no span mutates after
        # dispatch returns), so it is safe to hand the object itself to
        # the writer thread and serialise there.
        try:
            self._queue.put_nowait((trace, extra, slow))
        except queue.Full:
            self.trace_dropped.inc()
            return
        self._enqueued += 1
        self._ensure_writer()

    # ------------------------------------------------------------------
    # Trace-record writer thread
    # ------------------------------------------------------------------
    def _ensure_writer(self) -> None:
        pid = os.getpid()
        with self._writer_lock:
            if self._writer is not None and self._writer_pid == pid:
                if self._writer.is_alive():
                    return
            # First record in this process, or a forked child holding
            # the parent's dead thread handle: start fresh.
            self._writer_pid = pid
            self._writer_stop = threading.Event()
            self._writer = threading.Thread(
                target=self._write_loop, name="repro-trace-writer",
                daemon=True,
            )
            self._writer.start()

    def _write_loop(self) -> None:
        stop = self._writer_stop
        while not stop.is_set() or not self._queue.empty():
            try:
                item = self._queue.get(timeout=0.25)
            except queue.Empty:
                continue
            if item is None:
                continue
            trace, extra, slow = item
            try:
                record = trace.record(**extra)
                self.sink.write(record)
                self.trace_records.inc()
                if slow:
                    record = dict(record)
                    record["type"] = "slow_query"
                    record["threshold_ms"] = self.slow_query_ms
                    self.sink.write(record)
            except Exception:
                # Telemetry must never take the process down.
                self.trace_dropped.inc()
            finally:
                self._written += 1

    def flush(self, timeout: float = 10.0) -> None:
        """Block until enqueued trace records hit the sink."""
        deadline = time.monotonic() + timeout
        while (
            self._written < self._enqueued
            and time.monotonic() < deadline
        ):
            time.sleep(0.005)

    def close(self) -> None:
        if self.audit is not None:
            self.audit.stop()
        with self._writer_lock:
            thread = self._writer
            owner = self._writer_pid
            self._writer_stop.set()
        if thread is not None and owner == os.getpid():
            try:
                self._queue.put_nowait(None)  # wake the writer loop
            except queue.Full:
                pass
            thread.join(5.0)
        if self.sink is not None:
            self.sink.close()

    def describe(self) -> dict[str, Any]:
        """JSON-friendly switch state (for the stats verb)."""
        return {
            "enabled": self.enabled,
            "trace_log": str(self.sink.path) if self.sink else None,
            "slow_query_ms": self.slow_query_ms,
            "audit_rate": self.audit.rate if self.audit else 0.0,
            "pid": os.getpid(),
        }
