"""Offline-plane telemetry: batch jobs emit the server's record shape.

The serving tier threads a :class:`~repro.obs.telemetry.Telemetry`
through every request; the offline jobs — ``repro stats build`` and
``repro updates apply``/``replay`` — thread a
:class:`JobTelemetry` through one *job*.  The contract is deliberately
identical: spans land in the same NDJSON record shape
(``type: "trace"``, ``trace_id``, ``verb``, ``spans: [...]``) so one
``repro obs`` toolkit analyses a trace log regardless of which plane
wrote it, and metrics land in the same
:class:`~repro.obs.metrics.MetricsRegistry` so the exposition format
is the one scrape dialect.

Batch jobs have no ``metrics`` wire verb to scrape, so ``--metrics-out``
writes the exposition as a *textfile-collector* file
(:func:`write_textfile`: atomic tmp+rename, the node-exporter pattern)
— a cron'd build is scrapeable without a server.

Nothing here imports the stats/delta planes; the dependency points one
way (``repro.stats``/``repro.delta`` → ``repro.obs``), exactly like the
server's.
"""

from __future__ import annotations

import os
import time
from pathlib import Path
from typing import Any

from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import NdjsonSink, RequestTrace

__all__ = ["JobTelemetry", "write_textfile"]


def write_textfile(path: str | Path, registry: MetricsRegistry) -> None:
    """Atomically write ``registry``'s exposition to ``path``.

    Written as ``<path>.tmp.<pid>`` then renamed, so a textfile
    collector scraping mid-write sees either the old exposition or the
    new one, never a torn file.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
    tmp.write_text(registry.render(), encoding="utf-8")
    os.replace(tmp, path)


class JobTelemetry:
    """Trace + metrics bundle for one offline job.

    ``trace`` is the job's :class:`RequestTrace` (the builders record
    per-level / per-generation spans on it), ``registry`` collects the
    job's metrics, and :meth:`finish` writes the NDJSON trace record
    and the textfile exposition.  Both outputs are optional — a job run
    without ``--trace-log``/``--metrics-out`` still carries the bundle
    (the spans double as the source of ``level timings`` style
    reporting) but writes nothing.
    """

    def __init__(
        self,
        verb: str,
        *,
        trace_log: str | Path | None = None,
        metrics_out: str | Path | None = None,
        trace_log_keep: int = 1,
        trace_log_max_bytes: int = 32 * 1024 * 1024,
        tenant: str | None = None,
        trace_id: str | None = None,
    ):
        self.registry = MetricsRegistry()
        self.sink = (
            NdjsonSink(
                trace_log, trace_log_max_bytes, keep=trace_log_keep
            )
            if trace_log
            else None
        )
        self.metrics_out = Path(metrics_out) if metrics_out else None
        self.trace = RequestTrace(verb, tenant=tenant, trace_id=trace_id)
        self._finished = False

    def finish(self, ok: bool = True, **extra: Any) -> None:
        """Write the trace record + exposition; safe to call once."""
        if self._finished:
            return
        self._finished = True
        wall_ms = (time.perf_counter() - self.trace.origin) * 1000.0
        if self.sink is not None:
            record = self.trace.record(
                ok=ok, wall_ms=round(wall_ms, 4), **extra
            )
            self.sink.write(record)
            self.sink.close()
        if self.metrics_out is not None:
            try:
                write_textfile(self.metrics_out, self.registry)
            except OSError:
                # Same contract as the serving plane: telemetry never
                # fails the job it observes.
                pass
