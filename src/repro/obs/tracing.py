"""Structured request tracing: trace ids, spans, NDJSON sinks.

Every request the server dispatches gets a :class:`RequestTrace` — a
``trace_id`` (client-supplied via the wire envelope, or minted here)
plus a flat list of named spans measured against one shared
``perf_counter`` origin.  Spans either *tile* the request window
(top-level: ``store_lookup`` → ``cache_probe`` → ``queue`` → ``exec``)
or nest under a parent (``count``/``coalesce`` inside ``exec``), so

    sum(top-level span ms) ≈ wall_ms

holds by construction and a trace reader can attribute every
microsecond of a slow request to a stage.  A single-flight *follower*
does not fabricate a CEG-build span of its own: it records a
``coalesce`` wait span carrying the **leader's** span reference
(``shared`` = ``"<trace_id>:<span_id>"``), so cross-request attribution
survives coalescing.

A request served with telemetry off gets :data:`NULL_TRACE` instead: the
same interface with every hook a no-op, so instrumented code has one
path and never asks whether it is being traced.

Records are NDJSON lines written through :class:`NdjsonSink`: an
``O_APPEND`` fd (atomic line writes across the forked fleet workers
that share one ``--trace-log`` path), with size-based rotation keeping
``keep`` shifted backups (``<path>.1`` .. ``<path>.N``) and an inode
check so sibling processes notice a rotation performed by someone else
and reopen.
"""

from __future__ import annotations

import contextlib
import fcntl
import json
import os
import secrets
import threading
import time
from pathlib import Path
from typing import Any

__all__ = [
    "new_trace_id", "Span", "RequestTrace", "NullTrace", "NULL_TRACE",
    "NdjsonSink",
]

#: Attribute values a trace record carries as they are; anything else
#: (a canonical shape key) is stringified by :meth:`RequestTrace.record`.
_JSON_VALUES = (str, int, float, bool, list, dict, type(None))


def new_trace_id() -> str:
    """A fresh 16-hex-digit trace id (64 random bits)."""
    return secrets.token_hex(8)


class Span:
    """One named, timed stage of a request."""

    __slots__ = ("span_id", "name", "start_ms", "ms", "parent", "attrs")

    def __init__(
        self,
        span_id: str,
        name: str,
        start_ms: float,
        parent: str | None = None,
        **attrs: Any,
    ):
        self.span_id = span_id
        self.name = name
        self.start_ms = start_ms
        self.ms = 0.0
        self.parent = parent
        self.attrs = attrs

    def as_dict(self) -> dict[str, Any]:
        record: dict[str, Any] = {
            "span": self.span_id,
            "name": self.name,
            "start_ms": round(self.start_ms, 4),
            "ms": round(self.ms, 4),
        }
        if self.parent is not None:
            record["parent"] = self.parent
        record.update(self.attrs)
        return record


class _SpanContext:
    """Context manager measuring one span against the trace origin."""

    __slots__ = ("trace", "span", "_t0")

    def __init__(self, trace: "RequestTrace", span: Span):
        self.trace = trace
        self.span = span
        self._t0 = 0.0

    def __enter__(self) -> Span:
        self._t0 = time.perf_counter()
        self.span.start_ms = (self._t0 - self.trace.origin) * 1000.0
        return self.span

    def __exit__(self, *exc_info: Any) -> None:
        self.span.ms = (time.perf_counter() - self._t0) * 1000.0


class RequestTrace:
    """Span collection for one request (thread-safe append)."""

    def __init__(
        self,
        verb: str,
        tenant: str | None = None,
        trace_id: str | None = None,
    ):
        self.trace_id = trace_id or new_trace_id()
        self.verb = verb
        self.tenant = tenant
        self.origin = time.perf_counter()
        self.started_unix = time.time()
        self.spans: list[Span] = []
        self.attrs: dict[str, Any] = {}
        self._lock = threading.Lock()
        self._next = 0

    def span(self, name: str, parent: str | None = None, **attrs: Any):
        """``with trace.span("exec") as span:`` — measured on exit."""
        return _SpanContext(self, self._new_span(name, parent, **attrs))

    def _new_span(
        self, name: str, parent: str | None = None, **attrs: Any
    ) -> Span:
        with self._lock:
            self._next += 1
            span = Span(f"s{self._next}", name, 0.0, parent, **attrs)
            self.spans.append(span)
            return span

    def add_span(
        self,
        name: str,
        started_at: float,
        seconds: float,
        parent: str | None = None,
        **attrs: Any,
    ) -> Span:
        """Record an already-measured span (``started_at`` from
        ``perf_counter``)."""
        span = self._new_span(name, parent, **attrs)
        span.start_ms = (started_at - self.origin) * 1000.0
        span.ms = seconds * 1000.0
        return span

    def ref(self, span: Span) -> str:
        """The cross-request reference of a span (followers carry it)."""
        return f"{self.trace_id}:{span.span_id}"

    def note(self, **attrs: Any) -> None:
        """Attach request-level attributes (shape, generation, ...)."""
        self.attrs.update(attrs)

    def annotate(self, result: dict[str, Any]) -> dict[str, Any]:
        """Echo the trace id + per-stage timings in a result envelope."""
        result["trace_id"] = self.trace_id
        result["timings"] = {
            f"{stage}_ms": ms for stage, ms in self.stage_totals().items()
        }
        return result

    def stage_totals(self) -> dict[str, float]:
        """Total ms per span name (summed over repeated stages)."""
        totals: dict[str, float] = {}
        with self._lock:
            for span in self.spans:
                totals[span.name] = totals.get(span.name, 0.0) + span.ms
        return {name: round(ms, 4) for name, ms in totals.items()}

    def record(self, **extra: Any) -> dict[str, Any]:
        """The NDJSON trace record for this request.

        Runs off the request path (the telemetry writer thread), so it
        is where rich attribute values such as a canonical shape key
        become strings.
        """
        with self._lock:
            spans = [span.as_dict() for span in self.spans]
        record: dict[str, Any] = {
            "type": "trace",
            "trace_id": self.trace_id,
            "verb": self.verb,
            "ts": self.started_unix,
            "pid": os.getpid(),
        }
        if self.tenant is not None:
            record["tenant"] = self.tenant
        for name, value in self.attrs.items():
            record[name] = (
                value if isinstance(value, _JSON_VALUES) else str(value)
            )
        record.update(extra)
        record["spans"] = spans
        return record


class NullTrace:
    """The :class:`RequestTrace` interface with every hook a no-op.

    Handed to requests served with telemetry off: every span is one
    shared, unrecorded :class:`Span` (``span_id`` None, ``ms`` settable),
    notes are dropped, and :meth:`annotate` adds no ``trace_id`` or
    ``timings`` to a response.
    """

    trace_id = None
    _span = Span(None, "null", 0.0)  # type: ignore[arg-type]

    def span(self, name: str, parent: str | None = None, **attrs: Any):
        return contextlib.nullcontext(self._span)

    def add_span(self, name: str, *args: Any, **attrs: Any) -> Span:
        return self._span

    def ref(self, span: Span) -> None:
        return None

    def note(self, **attrs: Any) -> None:
        pass

    def annotate(self, result: dict[str, Any]) -> dict[str, Any]:
        return result


#: The one shared trace of every untraced request.
NULL_TRACE = NullTrace()


class NdjsonSink:
    """Append-only NDJSON file with size rotation, fork/fleet safe.

    Lines are written with one ``os.write`` on an ``O_APPEND`` fd, so
    records from N fleet workers sharing the path interleave whole, not
    torn.  When the file exceeds ``max_bytes`` the rotated generations
    shift up (``.N-1`` → ``.N``, ..., live file → ``.1``; the oldest of
    the ``keep`` backups is discarded) and a fresh file starts; sibling
    processes detect the rename via an inode check and reopen.
    """

    def __init__(
        self,
        path: str | Path,
        max_bytes: int = 32 * 1024 * 1024,
        keep: int = 1,
    ):
        if keep < 1:
            raise ValueError("keep must be >= 1")
        self.path = Path(path)
        self.max_bytes = int(max_bytes)
        self.keep = int(keep)
        self._lock = threading.Lock()
        self._fd: int | None = None

    def _open(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fd = os.open(
            self.path, os.O_CREAT | os.O_WRONLY | os.O_APPEND, 0o644
        )

    def _reopen_if_rotated(self) -> None:
        assert self._fd is not None
        try:
            on_disk = os.stat(self.path)
        except FileNotFoundError:
            on_disk = None
        if on_disk is None or os.fstat(self._fd).st_ino != on_disk.st_ino:
            os.close(self._fd)
            self._fd = None
            self._open()

    def _rotate(self, pending: int) -> None:
        """Shift the backup chain up one slot and retire the live file.

        The shift is serialized across sibling processes with a sidecar
        ``flock``: exactly one sibling performs it per era.  Two
        interleaved shift loops would otherwise clobber generations —
        ``os.replace`` overwrites its target, so a racing ``.1`` → ``.2``
        lands on top of the ``.2`` the winner just populated and a whole
        file of records vanishes.  Losers re-check under the lock, see a
        fresh live inode (or one with room again), and skip; their
        reopen then lands on the new live file via the inode check.
        """
        lock_fd = os.open(
            f"{self.path}.lock", os.O_CREAT | os.O_WRONLY, 0o644
        )
        try:
            fcntl.flock(lock_fd, fcntl.LOCK_EX)
            assert self._fd is not None
            try:
                on_disk = os.stat(self.path)
            except FileNotFoundError:
                return  # a sibling rotated; reopen starts the new file
            if on_disk.st_ino != os.fstat(self._fd).st_ino:
                return  # a sibling already rotated this era
            if on_disk.st_size + pending <= self.max_bytes:
                return
            for generation in range(self.keep - 1, 0, -1):
                source = f"{self.path}.{generation}"
                if os.path.exists(source):
                    os.replace(source, f"{self.path}.{generation + 1}")
            os.replace(self.path, f"{self.path}.1")
        finally:
            os.close(lock_fd)

    def write(self, record: dict[str, Any]) -> None:
        """Append one record as a JSON line (never raises on I/O)."""
        line = (
            json.dumps(record, separators=(",", ":"), default=str) + "\n"
        ).encode("utf-8")
        try:
            with self._lock:
                if self._fd is None:
                    self._open()
                else:
                    self._reopen_if_rotated()
                assert self._fd is not None
                if os.fstat(self._fd).st_size + len(line) > self.max_bytes:
                    try:
                        self._rotate(len(line))
                    except OSError:
                        # Rotation failed (e.g. flock-less filesystem);
                        # fall through to the reopen and keep the record.
                        pass
                    self._reopen_if_rotated()
                os.write(self._fd, line)
        except OSError:
            # Telemetry must never fail a request; drop the record.
            pass

    def close(self) -> None:
        with self._lock:
            if self._fd is not None:
                try:
                    os.close(self._fd)
                except OSError:
                    pass
                self._fd = None
