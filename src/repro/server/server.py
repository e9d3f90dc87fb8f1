"""The asyncio estimation server: admission control over a store registry.

Architecture (one process, one event loop)::

      TCP clients ──NDJSON──▶ asyncio loop ──▶ admission control
                                                 │  bounded in-flight +
                                                 │  queue, per-request
                                                 │  deadline, shedding
                                                 ▼
                                          single-flight coalescer
                                                 │  (tenant, generation,
                                                 │   shape, spec)
                                                 ▼
                                     worker threads ──▶ EstimationSession
                                                        (per tenant, from
                                                         StoreRegistry)

    The loop only parses lines and routes; estimation is CPU-bound
    synchronous code and runs on a small thread pool.  Admission is
    enforced *before* the pool: at most ``max_inflight`` requests
    compute concurrently, at most ``queue_limit`` more wait, and
    anything beyond that is shed immediately with the ``overloaded``
    error code instead of queueing unboundedly.  Every estimate request
    carries a deadline (its own ``deadline_ms`` or the server default)
    that covers queue time too, so a request that would have waited past
    its deadline under load turns into ``deadline_exceeded`` rather than
    a zombie.

Responses are bit-identical to in-process
:meth:`~repro.service.session.EstimationSession.estimate_batch` floats:
the session computes from the canonical pattern and JSON round-trips
doubles exactly (see :mod:`repro.server.protocol`).  Hot-reloading a
tenant (the ``reload`` verb) swaps its registry entry atomically;
requests admitted before the swap finish on the old session, requests
after it use the new one — nothing in between can observe a torn state.
"""

from __future__ import annotations

import asyncio
import collections
import contextlib
import functools
import operator
import os
import socket as socket_module
import threading
import time
from datetime import datetime, timezone
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable

from repro.errors import DatasetError, ReproError
from repro.obs import (
    LATENCY_BUCKETS_MS,
    AuditProbe,
    Counter,
    MetricsRegistry,
    NdjsonSink,
    RequestTrace,
    Telemetry,
    merge_expositions,
    quantile_from_buckets,
)
from repro.obs.tracing import NullTrace
from repro.query.canonical import canonical_key
from repro.query.parser import parse_pattern
from repro.query.pattern import QueryPattern
from repro.server import protocol
from repro.server.client import EstimationClient
from repro.server.coalescer import SingleFlight
from repro.server.protocol import ProtocolError, Request
from repro.server.registry import StoreRegistry, TenantEntry
from repro.service.session import EstimatorSpec
from repro.stats.artifact import CATALOG_ARRAYS_FILE, image_sequence
from repro.stats.store import parse_count as stats_parse_count

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.server.fleet import FleetContext

__all__ = [
    "ServerConfig",
    "EstimationServer",
    "ThreadedServer",
    "LATENCY_BUCKETS_MS",
]


def _server_version() -> str:
    """The package version (resolved lazily to dodge the import cycle)."""
    import repro

    return getattr(repro, "__version__", "0")


@dataclass(frozen=True)
class ServerConfig:
    """Tunables of one :class:`EstimationServer`."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = pick a free port; read it back from ``address``
    max_inflight: int = 8
    queue_limit: int = 64
    default_deadline_ms: float = 30_000.0
    #: Seconds :meth:`EstimationServer.stop` waits for admitted requests
    #: to drain before force-closing connections.
    shutdown_grace_seconds: float = 10.0
    #: Master telemetry switch: False drops request tracing, the trace
    #: log, slow-query capture and the audit probe (the bench baseline).
    #: The metrics registry itself stays on — it replaces the server's
    #: request accounting, so the stats/metrics verbs always work.
    telemetry: bool = True
    #: NDJSON sink for trace + slow-query records (None = no sink).
    trace_log: str | None = None
    trace_log_max_bytes: int = 32 * 1024 * 1024
    #: Requests slower than this are captured in the slow-query log
    #: (default 500 ms — ~200× the fleet's warm p50, so it fires on
    #: genuine outliers, not on every cold CEG build).  0 disables the
    #: slow-query log entirely.
    slow_query_ms: float = 500.0
    #: Rotated trace-log generations kept on disk (``<path>.1`` ..
    #: ``<path>.N``; the oldest is discarded on each rotation).
    trace_log_keep: int = 1
    #: Fraction of served estimates re-run against WanderJoin ground
    #: truth by the background audit probe (0 disables it).
    audit_rate: float = 0.0
    #: Restrict auditing to one reference tenant (None audits any
    #: tenant whose manifest names a loadable dataset).
    audit_tenant: str | None = None
    #: WanderJoin walk budget as a fraction of the start relation.
    audit_walk_ratio: float = 0.05

    def __post_init__(self) -> None:
        if self.max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        if self.queue_limit < 0:
            raise ValueError("queue_limit must be >= 0")
        if self.default_deadline_ms <= 0:
            raise ValueError("default_deadline_ms must be positive")
        if self.slow_query_ms < 0:
            raise ValueError("slow_query_ms must be >= 0 (0 disables)")
        if self.trace_log_keep < 1:
            raise ValueError("trace_log_keep must be >= 1")
        if not 0.0 <= self.audit_rate <= 1.0:
            raise ValueError("audit_rate must be within [0, 1]")
        if self.trace_log_max_bytes < 4096:
            raise ValueError("trace_log_max_bytes must be >= 4096")


class EstimationServer:
    """One serving process: registry + coalescer + admission control.

    In fleet mode (``fleet`` is a
    :class:`~repro.server.fleet.FleetContext`), the process is one of N
    workers sharing the public port: it accepts on pre-bound inherited
    sockets, answers the ``fleet`` verb with the worker topology, and
    fans non-``scope=local`` control verbs (``stats``/``reload``/
    ``apply_deltas``/``shutdown``) out to its peers' direct ports so a
    client talking to *any* worker drives the whole fleet.
    """

    def __init__(
        self,
        registry: StoreRegistry,
        config: ServerConfig | None = None,
        fleet: "FleetContext | None" = None,
    ):
        self.registry = registry
        self.config = config or ServerConfig()
        self.fleet = fleet
        self.coalescer = SingleFlight()
        # One spare worker beyond the admission cap so ``reload`` (which
        # does disk I/O on the pool) cannot starve behind estimates; in
        # fleet mode, enough extra spares that a full control fan-out to
        # every peer can never starve behind estimates either.
        spares = 1 + (len(fleet.members) if fleet is not None else 0)
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.max_inflight + spares,
            thread_name_prefix="repro-serve",
        )
        self._semaphore: asyncio.Semaphore | None = None
        self._servers: list[asyncio.AbstractServer] = []
        self._shutdown_event: asyncio.Event | None = None
        self._pending_shutdown = False
        self._draining = False
        self._started_at = 0.0
        # Admission counters; all mutated on the event loop thread only.
        self._admitted = 0
        self._running = 0
        self._abandoned = 0
        self._shed_total = 0
        self._deadline_total = 0
        self._started_unix = 0.0
        self._started_at_iso: str | None = None
        self.telemetry = self._build_telemetry()
        self._writers: set[asyncio.StreamWriter] = set()
        # Writers with a request currently inside ``_dispatch`` — the
        # connections that must see a typed ``shutting_down`` error (not
        # a bare reset) if the shutdown grace window expires on them.
        self._busy_writers: set[asyncio.StreamWriter] = set()
        self._conn_tasks: set[asyncio.Task] = set()

    # ------------------------------------------------------------------
    # Telemetry wiring
    # ------------------------------------------------------------------
    def _build_telemetry(self) -> Telemetry:
        """The per-process telemetry bundle + callback-sourced metrics.

        Built in ``__init__`` — which fleet workers run *post-fork* —
        so every process opens its own trace-log fd and owns its own
        registry.  Counters owned elsewhere (coalescer, artifact loads,
        admission state) export through render-time callbacks instead
        of double accounting.
        """
        config = self.config
        sink = (
            NdjsonSink(
                config.trace_log,
                config.trace_log_max_bytes,
                keep=config.trace_log_keep,
            )
            if config.telemetry and config.trace_log
            else None
        )
        registry = MetricsRegistry()
        audit = None
        if config.telemetry and config.audit_rate > 0.0:
            audit = AuditProbe(
                registry,
                self._audit_graph,
                rate=config.audit_rate,
                tenant=config.audit_tenant,
                walk_ratio=config.audit_walk_ratio,
                sink=sink,
            )
        telemetry = Telemetry(
            registry=registry,
            sink=sink,
            slow_query_ms=config.slow_query_ms,
            audit=audit,
            enabled=config.telemetry,
            worker_index=self.fleet.index if self.fleet else None,
        )
        self._tenant_requests = registry.counter(
            "repro_tenant_requests_total",
            "Estimate requests per tenant.",
            labels=("tenant",),
        )
        self._tenant_ok = registry.counter(
            "repro_tenant_ok_total",
            "Served estimate responses per tenant.",
            labels=("tenant",),
        )
        self._tenant_errors = registry.counter(
            "repro_tenant_errors_total",
            "Failed estimate responses per tenant, by wire error code.",
            labels=("tenant", "code"),
        )
        self._tenant_estimator_errors = registry.counter(
            "repro_tenant_estimator_errors_total",
            "Served responses carrying at least one per-estimator error.",
            labels=("tenant",),
        )
        self._tenant_reloads = registry.counter(
            "repro_tenant_reloads_total",
            "Successful hot reloads per tenant.",
            labels=("tenant",),
        )
        self._tenant_delta_refreshes = registry.counter(
            "repro_tenant_delta_refreshes_total",
            "Successful apply_deltas refreshes per tenant.",
            labels=("tenant",),
        )
        # The ``coalescer`` and ``admission`` blocks of the stats verb,
        # field by field (``repro_<block>_<field>``); stats_result reads
        # these metrics back, so each value has one definition.
        flight = self.coalescer.stats
        self._coalescer_metrics = {
            "leaders": registry.counter(
                "repro_coalescer_leaders_total",
                "Single-flight computations run (leaders).",
                callback=lambda: flight().leaders,
            ),
            "followers": registry.counter(
                "repro_coalescer_followers_total",
                "Single-flight callers served by a leader's result.",
                callback=lambda: flight().followers,
            ),
            "in_flight": registry.gauge(
                "repro_coalescer_in_flight",
                "Single-flight keys currently computing.",
                callback=lambda: flight().in_flight,
            ),
        }
        self._admission_metrics = {
            "admitted": registry.gauge(
                "repro_admission_admitted",
                "Requests currently admitted (running + queued).",
                callback=lambda: self._admitted,
            ),
            "running": registry.gauge(
                "repro_admission_running",
                "Requests currently computing on the thread pool.",
                callback=lambda: self._running,
            ),
            "abandoned": registry.gauge(
                "repro_admission_abandoned",
                "Deadline-expired requests still holding a pool slot.",
                callback=lambda: self._abandoned,
            ),
            "queue_depth": registry.gauge(
                "repro_admission_queue_depth",
                "Admitted requests waiting for a pool slot.",
                callback=lambda: max(self._admitted - self._running, 0),
            ),
            "shed_total": registry.counter(
                "repro_admission_shed_total",
                "Requests shed at the admission capacity limit.",
                callback=lambda: self._shed_total,
            ),
            "deadline_exceeded_total": registry.counter(
                "repro_admission_deadline_exceeded_total",
                "Requests that exceeded their deadline (queue time "
                "included).",
                callback=lambda: self._deadline_total,
            ),
        }
        self._disk_parses = registry.counter(
            "repro_artifact_disk_parses_total",
            "Statistics generation images loaded from disk in this process.",
            callback=stats_parse_count,
        )
        registry.gauge(
            "repro_server_info",
            "Constant 1, labelled with the server version.",
            labels=("version",),
            callback=lambda: {(_server_version(),): 1},
        )
        self._start_time = registry.gauge(
            "repro_process_start_time_seconds",
            "Unix time this serving process started.",
            callback=lambda: self._started_unix,
        )
        self._uptime = registry.gauge(
            "repro_uptime_seconds",
            "Seconds since this serving process started.",
            callback=lambda: (
                time.monotonic() - self._started_at if self._started_at else 0.0
            ),
        )
        self._generation_age = registry.gauge(
            "repro_generation_age_seconds",
            "Seconds since each tenant's artifact generation was loaded.",
            labels=("tenant",),
            callback=lambda: {
                (name,): round(time.monotonic() - entry.loaded_monotonic, 3)
                for name in self.registry.names()
                if (entry := self.registry.get(name)) is not None
            },
        )
        return telemetry

    def _audit_graph(self, tenant: str):
        """Resolve the audit probe's reference graph for one tenant.

        Runs on the probe thread; raises when the tenant's manifest does
        not name a dataset the preset loader can materialise (the probe
        then disables auditing for that tenant).
        """
        entry = self.registry.get(tenant)
        if entry is None:
            raise DatasetError(f"unknown audit tenant {tenant!r}")
        manifest = entry.store.manifest
        if not manifest.dataset_name:
            raise DatasetError(
                f"tenant {tenant!r} has no dataset_name in its manifest"
            )
        from repro.datasets.presets import load_dataset

        scale = (manifest.build_config or {}).get("scale", 1.0)
        return load_dataset(manifest.dataset_name, float(scale or 1.0))

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(
        self, sockets: list[socket_module.socket] | None = None
    ) -> tuple[str, int]:
        """Bind and start accepting connections; returns (host, port).

        ``sockets`` serves on pre-bound listening sockets instead of
        binding ``config.host:port`` — the fleet path, where a worker
        inherits its ``SO_REUSEPORT`` share of the public port plus its
        own direct socket from the supervisor.  One asyncio server is
        started per socket; ``address`` reports the first.
        """
        self._semaphore = asyncio.Semaphore(self.config.max_inflight)
        self._shutdown_event = asyncio.Event()
        if sockets:
            for sock in sockets:
                self._servers.append(
                    await asyncio.start_server(
                        self._handle_connection,
                        sock=sock,
                        limit=protocol.MAX_LINE_BYTES,
                    )
                )
        else:
            self._servers.append(
                await asyncio.start_server(
                    self._handle_connection,
                    host=self.config.host,
                    port=self.config.port,
                    limit=protocol.MAX_LINE_BYTES,
                )
            )
        self._started_at = time.monotonic()
        self._started_unix = time.time()
        self._started_at_iso = datetime.fromtimestamp(
            self._started_unix, tz=timezone.utc
        ).isoformat(timespec="seconds")
        return self.address

    @property
    def address(self) -> tuple[str, int]:
        """The bound (host, port) — useful with ``port=0``."""
        if not self._servers:
            raise RuntimeError("server is not started")
        name = self._servers[0].sockets[0].getsockname()
        return name[0], name[1]

    def request_shutdown(self) -> None:
        """Begin a graceful shutdown (callable from the loop thread)."""
        self._draining = True
        if self._shutdown_event is not None:
            self._shutdown_event.set()

    async def run_until_shutdown(self) -> None:
        """Serve until a ``shutdown`` verb or :meth:`request_shutdown`."""
        assert self._shutdown_event is not None
        await self._shutdown_event.wait()
        await self.stop()

    async def stop(self) -> None:
        """Stop accepting, drain in-flight requests, release the pool."""
        self._draining = True
        for server in self._servers:
            server.close()
        for server in self._servers:
            await server.wait_closed()
        deadline = time.monotonic() + self.config.shutdown_grace_seconds
        while self._admitted > 0 and time.monotonic() < deadline:
            await asyncio.sleep(0.01)
        if self._admitted > 0:
            # Grace expired with requests still in flight: those clients
            # get the typed ``shutting_down`` error the taxonomy promises
            # (exit 3, retryable) rather than a bare connection reset.
            expiry_line = protocol.encode_line(
                protocol.error_response(
                    None,
                    protocol.SHUTTING_DOWN,
                    "server shutdown grace period "
                    f"({self.config.shutdown_grace_seconds:g}s) expired "
                    "before the request finished; retry elsewhere",
                )
            )
            for writer in list(self._busy_writers):
                with contextlib.suppress(Exception):
                    writer.write(expiry_line)
            for writer in list(self._busy_writers):
                with contextlib.suppress(Exception):
                    await asyncio.wait_for(writer.drain(), timeout=1.0)
        for writer in list(self._writers):
            writer.close()
        # Let the connection handlers observe EOF and unwind before the
        # loop closes, so shutdown never logs spurious cancellations.
        pending = [task for task in self._conn_tasks if not task.done()]
        if pending:
            await asyncio.wait(pending, timeout=1.0)
        self._executor.shutdown(wait=True, cancel_futures=True)
        self.telemetry.close()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._writers.add(writer)
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
            task.add_done_callback(self._conn_tasks.discard)
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:
                    # Line exceeded the stream limit: answer once, drop
                    # the connection (framing is lost beyond this point).
                    writer.write(
                        protocol.encode_line(
                            protocol.error_response(
                                None,
                                protocol.INVALID_REQUEST,
                                "request line exceeds "
                                f"{protocol.MAX_LINE_BYTES} bytes",
                            )
                        )
                    )
                    await writer.drain()
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                self._busy_writers.add(writer)
                try:
                    response = await self._dispatch(line)
                finally:
                    self._busy_writers.discard(writer)
                writer.write(protocol.encode_line(response))
                await writer.drain()
                if self._pending_shutdown:
                    # The shutdown response is on the wire; now wake the
                    # serve loop so it can drain and exit cleanly.
                    self._pending_shutdown = False
                    self.request_shutdown()
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            self._writers.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _dispatch(self, line: bytes) -> dict[str, Any]:
        started = time.perf_counter()
        telemetry = self.telemetry
        try:
            request = protocol.parse_request(line)
        except ProtocolError as error:
            telemetry.requests_total.inc(verb="_unparsed")
            return protocol.error_response(None, error.code, error.message)
        telemetry.requests_total.inc(verb=request.verb)
        trace = telemetry.begin(request.verb, request.tenant, request.trace_id)
        try:
            if request.verb == "estimate":
                response = await self._handle_estimate(request, trace)
            elif request.verb == "ping":
                response = protocol.ok_response(
                    request.id,
                    {"pong": True, "tenants": self.registry.names()},
                )
            elif request.verb == "fleet":
                response = protocol.ok_response(
                    request.id, self.fleet_result()
                )
            elif self.fleet is not None and not request.local:
                response = await self._fan_out(request, trace)
            else:
                response = protocol.ok_response(
                    request.id, await self._control(request)
                )
        except ProtocolError as error:
            response = protocol.error_response(
                request.id, error.code, error.message
            )
        except Exception as error:  # bug guard: never kill the connection
            response = protocol.error_response(
                request.id,
                protocol.INTERNAL_ERROR,
                f"{type(error).__name__}: {error}",
            )
        if request.verb == "shutdown":
            # Locally or fleet-wide, this process drains too; the
            # connection handler consumes the flag only after this
            # response is on the wire.
            self._draining = True
            self._pending_shutdown = True
        elapsed = time.perf_counter() - started
        if (
            request.verb == "estimate"
            and request.tenant is not None
            and self.registry.get(request.tenant) is not None
        ):
            self._observe_estimate(request.tenant, response, elapsed)
            if telemetry.audit is not None and response.get("ok"):
                estimates = response["result"].get("estimates") or {}
                if estimates and request.query is not None:
                    telemetry.audit.maybe_sample(
                        request.tenant, request.query, estimates
                    )
        telemetry.finish(trace, bool(response.get("ok")), elapsed)
        return response

    def _observe_estimate(
        self, tenant: str, response: dict[str, Any], seconds: float
    ) -> None:
        """Per-tenant request accounting (event-loop thread only)."""
        self._tenant_requests.inc(tenant=tenant)
        self.telemetry.request_latency.observe(
            seconds * 1000.0, tenant=tenant
        )
        if response.get("ok"):
            self._tenant_ok.inc(tenant=tenant)
            if response["result"].get("errors"):
                self._tenant_estimator_errors.inc(tenant=tenant)
        else:
            self._tenant_errors.inc(
                tenant=tenant, code=response["error"]["code"]
            )

    # ------------------------------------------------------------------
    # Verbs
    # ------------------------------------------------------------------
    def _entry(self, tenant: str) -> TenantEntry:
        """The tenant's current registry entry, or ``unknown_tenant``."""
        entry = self.registry.get(tenant)
        if entry is None:
            raise ProtocolError(
                protocol.UNKNOWN_TENANT,
                f"unknown tenant {tenant!r}; registered tenants: "
                f"{self.registry.names()}",
            )
        return entry

    async def _handle_estimate(
        self, request: Request, trace: RequestTrace | NullTrace
    ) -> dict[str, Any]:
        if self._draining:
            raise ProtocolError(
                protocol.SHUTTING_DOWN, "server is shutting down"
            )
        capacity = self.config.max_inflight + self.config.queue_limit
        if self._admitted >= capacity:
            self._shed_total += 1
            raise ProtocolError(
                protocol.OVERLOADED,
                f"server is at capacity ({self._admitted} requests admitted, "
                f"limit {capacity}); retry later",
            )
        deadline_ms = request.deadline_ms or self.config.default_deadline_ms
        self._admitted += 1
        try:
            return await asyncio.wait_for(
                self._estimate_admitted(request, trace),
                timeout=deadline_ms / 1000.0,
            )
        except asyncio.TimeoutError:
            self._deadline_total += 1
            raise ProtocolError(
                protocol.DEADLINE_EXCEEDED,
                f"request exceeded its {deadline_ms:g} ms deadline "
                "(including queue time)",
            ) from None
        finally:
            self._admitted -= 1

    async def _estimate_admitted(
        self, request: Request, trace: RequestTrace | NullTrace
    ) -> dict[str, Any]:
        assert request.tenant is not None and request.query is not None
        started = time.perf_counter()
        entry = self._entry(request.tenant)
        specs: list[EstimatorSpec] = []
        seen: set[str] = set()
        for name in request.estimators:
            try:
                spec = EstimatorSpec.from_name(name)
            except ValueError as error:
                raise ProtocolError(protocol.UNKNOWN_ESTIMATOR, str(error))
            if spec.name not in seen:
                seen.add(spec.name)
                specs.append(spec)
        try:
            pattern = parse_pattern(request.query)
        except ReproError as error:
            raise ProtocolError(
                protocol.MALFORMED_QUERY, f"malformed query: {error}"
            )
        for spec in specs:
            try:
                entry.session.validate_spec(spec)
            except ValueError as error:
                raise ProtocolError(protocol.UNSUPPORTED_SPEC, str(error))
        probe_start = time.perf_counter()
        # ``store_lookup`` covers entry lookup + spec/pattern parsing +
        # validation — everything between admission and the cache
        # probe, so the top-level spans tile the window.  The shape key
        # is stringified by the trace writer, off the request path.
        trace.add_span("store_lookup", started, probe_start - started)
        trace.note(
            shape=canonical_key(pattern),
            estimators=[spec.name for spec in specs],
            generation=entry.generation,
        )
        # Warm fast path: when every requested estimator is already in
        # the tenant's estimate LRU, answer on the event loop without
        # the executor round-trip.  The cached floats are the exact
        # objects a worker thread would return, so responses stay
        # bit-identical; admission and deadline accounting still wrap
        # this call — only the thread hop (and a pool slot) is skipped.
        cached = entry.session.peek_estimates(pattern, specs)
        trace.add_span(
            "cache_probe", probe_start, time.perf_counter() - probe_start
        )
        if cached is not None:
            return protocol.ok_response(
                request.id,
                trace.annotate(
                    {
                        "tenant": entry.name,
                        "generation": entry.generation,
                        "query": request.query,
                        "estimates": cached,
                        "errors": {},
                        "seconds": time.perf_counter() - started,
                    }
                ),
            )
        assert self._semaphore is not None
        loop = asyncio.get_running_loop()
        queue_start = time.perf_counter()
        await self._semaphore.acquire()
        self._running += 1
        exec_start = time.perf_counter()
        trace.add_span("queue", queue_start, exec_start - queue_start)
        # Opened here, closed when the executor round-trip returns; the
        # worker thread parents its count/coalesce spans on it.
        exec_span = trace.add_span("exec", exec_start, 0.0)

        def release_slot() -> None:
            self._running -= 1
            self._semaphore.release()

        future = loop.run_in_executor(
            self._executor,
            self._compute,
            entry,
            pattern,
            specs,
            trace,
            exec_span.span_id,
        )
        try:
            # Shielded so a deadline cancellation reaches *us*, not the
            # executor wrapper: the worker thread cannot be interrupted,
            # and cancelling the wrapper would fire its done-callbacks
            # immediately instead of when the thread actually finishes.
            estimates, errors = await asyncio.shield(future)
        except asyncio.CancelledError:
            if future.done():
                release_slot()
            else:
                # The deadline expired but the thread is still
                # computing: keep its admission slot held until it
                # finishes, so the pool never over-commits and
                # queue_depth stays honest.  `abandoned` makes these
                # zombies visible in the stats verb.
                self._abandoned += 1

                def on_done(done_future: asyncio.Future) -> None:
                    self._abandoned -= 1
                    release_slot()
                    if not done_future.cancelled():
                        done_future.exception()  # consume, never log

                future.add_done_callback(on_done)
            raise
        except BaseException:
            release_slot()  # the computation itself raised; slot is free
            raise
        finally:
            exec_span.ms = (time.perf_counter() - exec_start) * 1000.0
        release_slot()
        return protocol.ok_response(
            request.id,
            trace.annotate(
                {
                    "tenant": entry.name,
                    "generation": entry.generation,
                    "query": request.query,
                    "estimates": estimates,
                    "errors": errors,
                    "seconds": time.perf_counter() - started,
                }
            ),
        )

    def _compute(
        self,
        entry: TenantEntry,
        pattern: QueryPattern,
        specs: list[EstimatorSpec],
        trace: RequestTrace | NullTrace,
        exec_ref: str | None,
    ) -> tuple[dict[str, float], dict[str, str]]:
        """Worker-thread body: coalesced estimates for every spec.

        The single-flight key pins the tenant *generation*, so work
        started against an old artifact version never coalesces with
        requests served by a hot-reloaded one.  ``estimate_one``
        captures per-query data failures as values, so followers share
        the leader's error string exactly as they share its float.

        A *leader* wraps the engine call in a ``count`` span and
        publishes its reference through the coalescer; a *follower*
        records only a ``coalesce`` wait span carrying that shared
        reference — it never fabricates a build span for work it did
        not do.  Untraced, both spans are the null trace's no-ops.
        """
        shape = canonical_key(pattern)
        estimates: dict[str, float] = {}
        errors: dict[str, str] = {}
        for spec in specs:
            key = (entry.name, entry.generation, shape, spec.name)
            wait_start = time.perf_counter()

            def lead(publish_ref, spec=spec):
                with trace.span(
                    "count", parent=exec_ref, estimator=spec.name
                ) as span:
                    publish_ref(trace.ref(span))
                    return entry.session.estimate_one(pattern, spec)

            outcome = self.coalescer.run(key, lead)
            item = outcome.value
            if not outcome.leader:
                trace.add_span(
                    "coalesce",
                    wait_start,
                    outcome.wait_seconds,
                    parent=exec_ref,
                    estimator=spec.name,
                    shared=outcome.shared_ref,
                )
            if item.ok:
                estimates[spec.name] = item.estimate
            else:
                errors[spec.name] = item.error
        return estimates, errors

    async def _control(self, request: Request) -> dict[str, Any]:
        """The result of one control verb on this process alone.

        Both paths call it: a single process (or a ``scope=local``
        request) answers with it, and a fleet fan-out uses it for its
        own slot.  ``shutdown`` only acknowledges; :meth:`_dispatch`
        sets the drain flags.
        """
        verb = request.verb
        if verb == "stats":
            return self.stats_result()
        if verb == "metrics":
            return self.metrics_result()
        if verb == "shutdown":
            return {"shutting_down": True}
        if verb == "reload":
            entry = await self._swap_tenant(
                request,
                self._tenant_reloads,
                lambda tenant: self.registry.reload(
                    tenant,
                    path=request.path,
                    allow_fingerprint_change=request.allow_fingerprint_change,
                ),
            )
            return {
                "tenant": entry.name,
                "generation": entry.generation,
                "path": str(entry.path),
                "fingerprint": entry.fingerprint,
            }
        # apply_deltas: like reload the registry swap is atomic and
        # in-flight requests finish on the entry they captured, but only
        # the unseen delta generations are replayed (onto a
        # copy-on-write clone), so a refresh costs what the batch costs.
        entry, applied = await self._swap_tenant(
            request, self._tenant_delta_refreshes, self.registry.apply_deltas
        )
        return {
            "tenant": entry.name,
            "generation": entry.generation,
            "artifact_generation": entry.store.manifest.generation,
            "applied": applied,
            "fingerprint": entry.fingerprint,
            "path": str(entry.path),
        }

    async def _swap_tenant(
        self,
        request: Request,
        counter: Counter,
        swap: Callable[[str], Any],
    ) -> Any:
        """Run one registry swap (``reload``/``apply_deltas``) on the pool.

        An unknown tenant fails fast with ``unknown_tenant``; a swap the
        registry refuses (:class:`DatasetError`) is ``reload_failed``;
        a swap that lands bumps the tenant's ``counter``.
        """
        assert request.tenant is not None
        self._entry(request.tenant)
        loop = asyncio.get_running_loop()
        try:
            outcome = await loop.run_in_executor(
                self._executor, swap, request.tenant
            )
        except DatasetError as error:
            raise ProtocolError(protocol.RELOAD_FAILED, str(error))
        counter.inc(tenant=request.tenant)
        return outcome

    # ------------------------------------------------------------------
    # Fleet fan-out
    # ------------------------------------------------------------------
    async def _fan_out(
        self, request: Request, trace: RequestTrace | NullTrace
    ) -> dict[str, Any]:
        """Fan a control verb out fleet-wide; one raw response per worker.

        The accepting worker answers its own slot inline (a TCP hop to
        itself would deadlock behind this very dispatch) and queries each
        peer's direct port on the thread pool with ``scope: "local"`` so
        the fan-out can never recurse.  A peer that cannot be reached —
        crashed and awaiting supervisor restart — contributes a typed
        ``worker_unreachable`` slot instead of failing the whole fan.
        """
        assert self.fleet is not None
        loop = asyncio.get_running_loop()
        payload = self._peer_payload(request, trace)
        futures = {
            member.index: loop.run_in_executor(
                self._executor, self._peer_call, member.direct_port, payload
            )
            for member in self.fleet.members
            if member.index != self.fleet.index
        }
        try:
            local = protocol.ok_response(None, await self._control(request))
        except ProtocolError as error:
            local = protocol.error_response(None, error.code, error.message)
        workers: dict[str, dict[str, Any]] = {str(self.fleet.index): local}
        for index, future in futures.items():
            workers[str(index)] = await future
        all_ok = all(slot.get("ok") for slot in workers.values())
        result: dict[str, Any] = {
            "fleet": True,
            "verb": request.verb,
            "ok": all_ok,
            "workers": workers,
        }
        if trace.trace_id:
            result["trace_id"] = trace.trace_id
        if request.verb == "stats":
            result["aggregate"] = _aggregate_fleet_stats(workers)
        if request.verb == "metrics":
            # Fleet-wide scrape: counters and histogram buckets sum
            # across workers (a fleet counter equals the sum of its
            # per-worker slots — the obs-smoke CI job asserts this).
            result["exposition"] = merge_expositions(
                slot["result"]["exposition"]
                for slot in workers.values()
                if slot.get("ok") and "exposition" in (slot.get("result") or {})
            )
            result["format"] = "prometheus-text-0.0.4"
        return protocol.ok_response(request.id, result)

    def _peer_payload(
        self, request: Request, trace: RequestTrace | NullTrace
    ) -> dict[str, Any]:
        """The scope-local wire payload that replays ``request`` on a peer."""
        payload: dict[str, Any] = {
            "v": protocol.PROTOCOL_VERSION,
            "verb": request.verb,
            "scope": "local",
        }
        # Propagate the fan-out's trace id (untraced: the client's) so
        # every worker's spans land under one id in a shared trace log.
        trace_id = trace.trace_id or request.trace_id
        if trace_id is not None:
            payload["trace_id"] = trace_id
        if request.tenant is not None:
            payload["tenant"] = request.tenant
        if request.path is not None:
            payload["path"] = request.path
        if request.allow_fingerprint_change:
            payload["allow_fingerprint_change"] = True
        return payload

    def _peer_call(
        self, direct_port: int, payload: dict[str, Any]
    ) -> dict[str, Any]:
        """Thread-pool body: one scope-local request to one peer."""
        assert self.fleet is not None
        try:
            with EstimationClient(
                self.fleet.host, direct_port, timeout=30.0
            ) as peer:
                return peer.request(payload)
        except Exception as error:
            return protocol.error_response(
                None,
                protocol.WORKER_UNREACHABLE,
                f"worker at {self.fleet.host}:{direct_port} is unreachable "
                f"({type(error).__name__}: {error}); the supervisor "
                "restarts crashed workers — retry shortly",
            )

    def fleet_result(self) -> dict[str, Any]:
        """The ``fleet`` verb payload: worker topology and assignment."""
        if self.fleet is None:
            return {"fleet": False, "tenants": self.registry.names()}
        return {
            "fleet": True,
            "worker": {"index": self.fleet.index, "pid": os.getpid()},
            "host": self.fleet.host,
            "port": self.fleet.port,
            "workers": [
                {"index": member.index, "direct_port": member.direct_port}
                for member in self.fleet.members
            ],
            "assignment": dict(self.fleet.assignment),
        }

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def metrics_result(self) -> dict[str, Any]:
        """The ``metrics`` verb payload: the Prometheus text exposition."""
        result: dict[str, Any] = {
            "exposition": self.telemetry.registry.render(),
            "format": "prometheus-text-0.0.4",
        }
        if self.fleet is not None:
            result["worker"] = {"index": self.fleet.index, "pid": os.getpid()}
        return result

    def _tenant_requests_dict(self, name: str) -> dict[str, Any]:
        """One tenant's request accounting in the legacy stats shape.

        Same keys the retired ``_TenantMetrics`` emitted — the stats
        verb's contract — plus bucket-derived p50/p95/p99 quantiles.
        """
        errors = {
            labels["code"]: int(value)
            for labels, value in self._tenant_errors.items()
            if labels["tenant"] == name and value
        }
        child = self.telemetry.request_latency.get_child(tenant=name)
        bounds = self.telemetry.request_latency.buckets
        counts = child.counts if child is not None else [0] * (len(bounds) + 1)
        buckets = {
            f"<={bound}ms": count
            for bound, count in zip(LATENCY_BUCKETS_MS, counts)
        }
        buckets[f">{LATENCY_BUCKETS_MS[-1]}ms"] = counts[-1]
        return {
            "requests": int(self._tenant_requests.value(tenant=name)),
            "ok": int(self._tenant_ok.value(tenant=name)),
            "errors": errors,
            "responses_with_estimator_errors": int(
                self._tenant_estimator_errors.value(tenant=name)
            ),
            "latency_ms": {
                "buckets": buckets,
                "sum_ms": child.sum if child is not None else 0.0,
                "max_ms": child.max if child is not None else 0.0,
                "p50": quantile_from_buckets(bounds, counts, 0.50),
                "p95": quantile_from_buckets(bounds, counts, 0.95),
                "p99": quantile_from_buckets(bounds, counts, 0.99),
            },
        }

    def stats_result(self) -> dict[str, Any]:
        """The ``stats`` verb payload (also handy in-process).

        Every live number is read back from the metrics registry — the
        same series the ``metrics`` verb exposes — so the two views of
        one process cannot disagree.
        """
        ages = {
            labels["tenant"]: value
            for labels, value in self._generation_age.items()
        }
        tenants = self.registry.stats()
        for name, payload in tenants.items():
            payload["generation_age_seconds"] = ages.get(name, 0.0)
            payload["requests"] = self._tenant_requests_dict(name)
        by_verb = {
            labels["verb"]: int(value)
            for labels, value in self.telemetry.requests_total.items()
            if value
        }
        coalescer = {
            field: int(metric.value())
            for field, metric in self._coalescer_metrics.items()
        }
        coalescer["calls"] = coalescer["leaders"] + coalescer["followers"]
        result: dict[str, Any] = {
            "uptime_seconds": self._uptime.value(),
            "server": {
                "version": _server_version(),
                "start_time": self._started_at_iso,
                "start_time_unix": self._start_time.value(),
                "pid": os.getpid(),
            },
            "telemetry": self.telemetry.describe(),
            "tenants": tenants,
            "admission": {
                "max_inflight": self.config.max_inflight,
                "queue_limit": self.config.queue_limit,
                **{
                    field: int(metric.value())
                    for field, metric in self._admission_metrics.items()
                },
            },
            "coalescer": coalescer,
            "requests": {
                "total": sum(by_verb.values()),
                "by_verb": by_verb,
            },
        }
        result["memory"] = _process_memory()
        result["memory"]["mapped"] = _mapped_statistics_memory()
        # Every load memory-maps a generation image from disk, so
        # nothing is published or attached any more; the two fields stay
        # at 0 for readers of the older shape.
        result["artifact_plane"] = {
            "disk_parses": int(self._disk_parses.value()),
            "publishes": 0,
            "attaches": 0,
        }
        if self.fleet is not None:
            result["worker"] = {
                "index": self.fleet.index,
                "pid": os.getpid(),
                "direct_port": self.fleet.members[
                    self.fleet.index
                ].direct_port,
            }
            result["tenant_assignment"] = dict(self.fleet.assignment)
        return result


def _process_memory() -> dict[str, float]:
    """This process's RSS/PSS/USS in kB (Linux ``smaps_rollup``).

    USS (private pages only) is the honest marginal cost of one worker
    whose statistics pages are shared mappings; platforms without smaps_rollup
    report zeros rather than failing the stats verb.
    """
    fields: dict[str, float] = {}
    try:
        text = Path(f"/proc/{os.getpid()}/smaps_rollup").read_text()
    except OSError:  # pragma: no cover - non-Linux
        return {"rss_kb": 0.0, "pss_kb": 0.0, "uss_kb": 0.0}
    for line in text.splitlines():
        parts = line.split()
        if len(parts) >= 2 and parts[0].rstrip(":") in (
            "Rss",
            "Pss",
            "Private_Clean",
            "Private_Dirty",
        ):
            fields[parts[0].rstrip(":")] = float(parts[1])
    return {
        "rss_kb": fields.get("Rss", 0.0),
        "pss_kb": fields.get("Pss", 0.0),
        "uss_kb": fields.get("Private_Clean", 0.0)
        + fields.get("Private_Dirty", 0.0),
    }


_SMAPS_HEADER = None


def _mapped_statistics_memory() -> list[dict[str, Any]]:
    """Mapped-vs-resident bytes of this process's statistics mappings.

    Walks ``/proc/self/smaps`` for memory-mapped generation images
    (``.../gen-NNNN/catalogs.npz``), one row per image path:
    ``mapped_kb`` is the address-space reservation, ``rss_kb`` the pages
    actually resident — the operator's view of how much of a catalog a
    worker has touched.  ``deleted`` marks an image the writer already
    pruned that this process still maps (an in-flight or fork-time
    generation).
    """
    global _SMAPS_HEADER
    if _SMAPS_HEADER is None:
        import re

        _SMAPS_HEADER = re.compile(r"^[0-9a-f]+-[0-9a-f]+\s")
    try:
        lines = Path("/proc/self/smaps").read_text().splitlines()
    except OSError:  # pragma: no cover - non-Linux
        return []
    images: dict[str, dict[str, Any]] = {}
    current: dict[str, Any] | None = None
    for line in lines:
        if _SMAPS_HEADER.match(line):
            fields = line.split(maxsplit=5)
            path = fields[5] if len(fields) == 6 else ""
            deleted = path.endswith(" (deleted)")
            path = path.removesuffix(" (deleted)")
            mapped = Path(path)
            current = None
            if mapped.name == CATALOG_ARRAYS_FILE and (
                image_sequence(mapped.parent.name) is not None
            ):
                current = images.setdefault(
                    path,
                    {
                        "name": path,
                        "deleted": deleted,
                        "mapped_kb": 0.0,
                        "rss_kb": 0.0,
                    },
                )
        elif current is not None:
            parts = line.split()
            if parts and parts[0] == "Size:":
                current["mapped_kb"] += float(parts[1])
            elif parts and parts[0] == "Rss:":
                current["rss_kb"] += float(parts[1])
    return sorted(images.values(), key=lambda s: s["name"])


def _aggregate_fleet_stats(
    workers: dict[str, dict[str, Any]]
) -> dict[str, Any]:
    """Fleet-wide totals over the per-worker slots of a stats fan-out."""
    reports = [
        slot.get("result") or {}
        for _index, slot in sorted(workers.items(), key=lambda kv: int(kv[0]))
        if slot.get("ok")
    ]
    by_verb: collections.Counter = collections.Counter()
    tenants: dict[str, dict[str, Any]] = {}
    for stats in reports:
        by_verb.update((stats.get("requests") or {}).get("by_verb") or {})
        assignment = stats.get("tenant_assignment") or {}
        for name, tenant_stats in (stats.get("tenants") or {}).items():
            aggregate = tenants.setdefault(
                name,
                {
                    "requests": 0,
                    "ok": 0,
                    "owner": assignment.get(name),
                    "generation": tenant_stats.get("generation"),
                },
            )
            tenant_requests = tenant_stats.get("requests") or {}
            aggregate["requests"] += int(tenant_requests.get("requests", 0))
            aggregate["ok"] += int(tenant_requests.get("ok", 0))

    def combine(block: str, field: str, how=operator.add, zero: Any = 0):
        """One per-worker scalar, summed (or maxed) over the reports."""
        values = (
            type(zero)((stats.get(block) or {}).get(field, zero))
            for stats in reports
        )
        return functools.reduce(how, values, zero)

    return {
        "workers_reporting": len(reports),
        "by_verb": dict(by_verb),
        "tenants": tenants,
        "artifact_plane": {
            field: combine("artifact_plane", field)
            for field in ("disk_parses", "publishes", "attaches")
        },
        "memory": {
            "uss_kb_total": combine("memory", "uss_kb", zero=0.0),
            "uss_kb_max": combine("memory", "uss_kb", max, 0.0),
            "rss_kb_max": combine("memory", "rss_kb", max, 0.0),
        },
        "requests_total": combine("requests", "total"),
        **{
            field: combine("admission", field)
            for field in ("shed_total", "deadline_exceeded_total", "abandoned")
        },
    }


class ThreadedServer:
    """An :class:`EstimationServer` on a background thread's event loop.

    The in-process harness behind the integration tests and the load
    benchmark: ``start()`` returns the bound (host, port), ``stop()``
    performs the same graceful drain as the ``shutdown`` verb.  Usable
    as a context manager.
    """

    def __init__(
        self, registry: StoreRegistry, config: ServerConfig | None = None
    ):
        self.registry = registry
        self.config = config or ServerConfig()
        self.server: EstimationServer | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None
        self.host: str | None = None
        self.port: int | None = None

    def start(self, timeout: float = 30.0) -> tuple[str, int]:
        """Start serving; returns the bound (host, port)."""
        self._thread = threading.Thread(
            target=self._run, name="repro-server", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout):
            raise RuntimeError("estimation server failed to start in time")
        if self._startup_error is not None:
            raise self._startup_error
        assert self.host is not None and self.port is not None
        return self.host, self.port

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as error:  # surfaced by start() or ignored
            if not self._ready.is_set():
                self._startup_error = error
                self._ready.set()

    async def _main(self) -> None:
        server = EstimationServer(self.registry, self.config)
        try:
            self.host, self.port = await server.start()
        except BaseException as error:
            self._startup_error = error
            self._ready.set()
            return
        self.server = server
        self._loop = asyncio.get_running_loop()
        self._ready.set()
        await server.run_until_shutdown()

    def stop(self, timeout: float = 30.0) -> None:
        """Gracefully shut the server down and join its thread."""
        if self._thread is None:
            return
        if (
            self._loop is not None
            and self.server is not None
            and self._thread.is_alive()
        ):
            try:
                self._loop.call_soon_threadsafe(self.server.request_shutdown)
            except RuntimeError:
                pass  # loop already closed
        self._thread.join(timeout)

    def __enter__(self) -> "ThreadedServer":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()
