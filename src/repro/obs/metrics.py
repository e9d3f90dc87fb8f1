"""Process-wide metrics registry with Prometheus text exposition.

Three primitives — :class:`Counter`, :class:`Gauge`, :class:`Histogram`
— registered by name in a :class:`MetricsRegistry` and labelled on use::

    registry = MetricsRegistry()
    requests = registry.counter(
        "repro_requests_total", "Requests by verb.", labels=("verb",)
    )
    requests.inc(verb="estimate")
    latency = registry.histogram(
        "repro_request_latency_ms", "Latency.", LATENCY_BUCKETS_MS,
        labels=("tenant",),
    )
    latency.observe(0.42, tenant="example")
    text = registry.render()          # Prometheus text exposition

Design points:

* **Hot-path cost is one dict lookup + one int add.**  Histogram bucket
  selection is ``bisect`` over the (sorted) bound tuple, not a linear
  scan — the fix the old ``_LatencyHistogram`` needed once sub-ms
  buckets landed.  No locks on increments: the serving stack mutates
  metrics from the event-loop thread, and Python int += is atomic
  enough for the worker-thread stage histograms (a lost increment under
  a torn race costs one sample, never a crash).
* **Callback metrics** export values owned elsewhere (the coalescer's
  counters, ``stats.store.parse_count``) without double accounting: the callback is
  polled at render time and returns either a scalar or a
  ``{label_values_tuple: value}`` map.
* **Quantiles from buckets**: :func:`quantile_from_buckets` linearly
  interpolates inside the bucket holding the target rank — the same
  estimate Prometheus's ``histogram_quantile`` computes server-side,
  available here for the ``stats`` verb's p50/p95/p99.
* :func:`parse_exposition` and :func:`merge_expositions` round-trip the
  text format so the fleet fan-out can aggregate per-worker scrapes by
  *summing* counters and histogram buckets (gauges are point-in-time
  per process and are dropped from merged output).
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "quantile_from_buckets",
    "parse_exposition",
    "merge_expositions",
    "Exposition",
]

#: Latency histogram bucket upper bounds, in milliseconds.  Starts at
#: 0.1 ms so the warm fast path (fleet p50 ~0.3 ms) lands in a real
#: bucket instead of vanishing under the first bound.
LATENCY_BUCKETS_MS = (
    0.1, 0.25, 0.5, 1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000,
)

#: Q-error histogram bounds (q >= 1 by construction; +Inf catches the
#: zero-cardinality mismatches ``q_error`` maps to infinity).
Q_ERROR_BUCKETS = (1.1, 1.25, 1.5, 2, 3, 5, 10, 25, 100, 1000)


def _escape_label(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _escape_help(text: str) -> str:
    # HELP lines escape backslash and newline only (quotes stay raw).
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _unescape_help(text: str) -> str:
    out: list[str] = []
    cursor = 0
    while cursor < len(text):
        char = text[cursor]
        if char == "\\" and cursor + 1 < len(text):
            nxt = text[cursor + 1]
            out.append({"n": "\n", "\\": "\\"}.get(nxt, "\\" + nxt))
            cursor += 2
        else:
            out.append(char)
            cursor += 1
    return "".join(out)


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if isinstance(value, float) and value.is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _sample_line(
    name: str, labels: dict[str, str] | None, value: float
) -> str:
    if labels:
        body = ",".join(
            f'{key}="{_escape_label(str(val))}"'
            for key, val in sorted(labels.items())
        )
        return f"{name}{{{body}}} {_format_value(value)}"
    return f"{name} {_format_value(value)}"


class _Metric:
    """Shared plumbing: a named family with a fixed label schema."""

    kind = "untyped"

    def __init__(
        self,
        name: str,
        help_text: str,
        labels: tuple[str, ...] = (),
        callback: Callable[[], Any] | None = None,
    ):
        self.name = name
        self.help = help_text
        self.labels = tuple(labels)
        self.callback = callback
        self._children: dict[tuple[str, ...], Any] = {}

    def _key(self, label_values: dict[str, Any]) -> tuple[str, ...]:
        if set(label_values) != set(self.labels):
            raise ValueError(
                f"metric {self.name!r} takes labels {self.labels}, "
                f"got {tuple(sorted(label_values))}"
            )
        return tuple(str(label_values[label]) for label in self.labels)

    def _callback_items(self) -> Iterable[tuple[tuple[str, ...], float]]:
        value = self.callback() if self.callback is not None else None
        if value is None:
            return []
        if isinstance(value, dict):
            return [
                (tuple(str(part) for part in key), float(val))
                if isinstance(key, tuple)
                else ((str(key),), float(val))
                for key, val in value.items()
            ]
        return [((), float(value))]

    def value(self, **labels: Any) -> float:
        """One label set's counter or gauge value, callback included."""
        key = self._key(labels)
        polled = dict(self._callback_items()).get(key, 0.0)
        return float(self._children.get(key, 0)) + polled

    def items(self) -> list[tuple[dict[str, str], float]]:
        """``(labels, value)`` pairs, callback-sourced values included."""
        out: list[tuple[dict[str, str], float]] = []
        for key, value in sorted(self._children.items()):
            out.append((dict(zip(self.labels, key)), float(value)))
        for key, value in sorted(self._callback_items()):
            out.append((dict(zip(self.labels, key)), value))
        return out

    def render(self) -> list[str]:
        lines = [
            f"# HELP {self.name} {_escape_help(self.help)}",
            f"# TYPE {self.name} {self.kind}",
        ]
        for labels, value in self.items():
            lines.append(_sample_line(self.name, labels, value))
        return lines


class Counter(_Metric):
    """A monotonically increasing value (per label set)."""

    kind = "counter"

    def inc(self, amount: float = 1, **labels: Any) -> None:
        key = self._key(labels)
        self._children[key] = self._children.get(key, 0) + amount

    def total(self) -> float:
        """Sum over every label set (callback values included)."""
        return sum(value for _labels, value in self.items())


class Gauge(_Metric):
    """A point-in-time value (per label set)."""

    kind = "gauge"

    def set(self, value: float, **labels: Any) -> None:
        self._children[self._key(labels)] = value


class _HistogramChild:
    __slots__ = ("counts", "sum", "max", "count")

    def __init__(self, n_buckets: int) -> None:
        self.counts = [0] * (n_buckets + 1)  # trailing slot: +Inf
        self.sum = 0.0
        self.max = 0.0
        self.count = 0


class Histogram(_Metric):
    """Fixed-bucket cumulative histogram (Prometheus ``le`` semantics)."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help_text: str,
        buckets: tuple[float, ...],
        labels: tuple[str, ...] = (),
    ):
        super().__init__(name, help_text, labels)
        if tuple(sorted(buckets)) != tuple(buckets) or not buckets:
            raise ValueError("histogram buckets must be sorted and non-empty")
        self.buckets = tuple(float(bound) for bound in buckets)

    def child(self, **labels: Any) -> _HistogramChild:
        key = self._key(labels)
        child = self._children.get(key)
        if child is None:
            child = self._children.setdefault(
                key, _HistogramChild(len(self.buckets))
            )
        return child

    def get_child(self, **labels: Any) -> _HistogramChild | None:
        """The child for one label set, or None if never observed."""
        return self._children.get(self._key(labels))

    def observe(self, value: float, **labels: Any) -> None:
        child = self.child(**labels)
        child.counts[bisect_left(self.buckets, value)] += 1
        child.sum += value
        child.count += 1
        if value > child.max:
            child.max = value

    def labeled(self) -> list[tuple[dict[str, str], _HistogramChild]]:
        return [
            (dict(zip(self.labels, key)), child)
            for key, child in sorted(self._children.items())
        ]

    def items(self) -> list[tuple[dict[str, str], float]]:
        # For aggregate views (e.g. Counter.total-style sums) a
        # histogram's "value" is its observation count.
        return [
            (labels, float(child.count)) for labels, child in self.labeled()
        ]

    def render(self) -> list[str]:
        lines = [
            f"# HELP {self.name} {_escape_help(self.help)}",
            f"# TYPE {self.name} {self.kind}",
        ]
        for labels, child in self.labeled():
            cumulative = 0
            for bound, count in zip(self.buckets, child.counts):
                cumulative += count
                lines.append(
                    _sample_line(
                        f"{self.name}_bucket",
                        {**labels, "le": _format_value(bound)},
                        cumulative,
                    )
                )
            lines.append(
                _sample_line(
                    f"{self.name}_bucket",
                    {**labels, "le": "+Inf"},
                    child.count,
                )
            )
            lines.append(
                _sample_line(f"{self.name}_sum", labels, child.sum)
            )
            lines.append(
                _sample_line(f"{self.name}_count", labels, child.count)
            )
        return lines


def quantile_from_buckets(
    bounds: tuple[float, ...], counts: list[int], q: float
) -> float:
    """Estimate the ``q``-quantile of a fixed-bucket histogram.

    ``counts`` holds per-bucket (non-cumulative) counts with a trailing
    overflow slot; interpolation is linear inside the winning bucket
    (the overflow bucket reports its lower bound — there is no upper
    edge to interpolate toward).
    """
    total = sum(counts)
    if total == 0:
        return 0.0
    rank = q * total
    cumulative = 0.0
    for position, count in enumerate(counts):
        previous = cumulative
        cumulative += count
        if cumulative >= rank:
            if position >= len(bounds):
                return float(bounds[-1])
            low = bounds[position - 1] if position > 0 else 0.0
            high = bounds[position]
            if count == 0:
                return float(high)
            fraction = (rank - previous) / count
            return float(low + (high - low) * fraction)
    return float(bounds[-1])


class MetricsRegistry:
    """Named metric families; renders the Prometheus text exposition."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[str, _Metric] = {}

    def _register(self, metric: _Metric) -> _Metric:
        with self._lock:
            existing = self._metrics.get(metric.name)
            if existing is not None:
                if type(existing) is not type(metric) or (
                    existing.labels != metric.labels
                ):
                    raise ValueError(
                        f"metric {metric.name!r} is already registered "
                        "with a different type or label schema"
                    )
                return existing
            self._metrics[metric.name] = metric
            return metric

    def counter(
        self,
        name: str,
        help_text: str,
        labels: tuple[str, ...] = (),
        callback: Callable[[], Any] | None = None,
    ) -> Counter:
        return self._register(Counter(name, help_text, labels, callback))  # type: ignore[return-value]

    def gauge(
        self,
        name: str,
        help_text: str,
        labels: tuple[str, ...] = (),
        callback: Callable[[], Any] | None = None,
    ) -> Gauge:
        return self._register(Gauge(name, help_text, labels, callback))  # type: ignore[return-value]

    def histogram(
        self,
        name: str,
        help_text: str,
        buckets: tuple[float, ...],
        labels: tuple[str, ...] = (),
    ) -> Histogram:
        return self._register(Histogram(name, help_text, buckets, labels))  # type: ignore[return-value]

    def get(self, name: str) -> _Metric | None:
        return self._metrics.get(name)

    def render(self) -> str:
        """The registry as Prometheus text exposition (format 0.0.4)."""
        with self._lock:
            metrics = sorted(self._metrics.values(), key=lambda m: m.name)
        lines: list[str] = []
        for metric in metrics:
            lines.extend(metric.render())
        return "\n".join(lines) + "\n" if lines else ""


# ----------------------------------------------------------------------
# Exposition parsing + fleet merge
# ----------------------------------------------------------------------
@dataclass
class Exposition:
    """A parsed text exposition: sample values keyed by (name, labels)."""

    types: dict[str, str] = field(default_factory=dict)
    helps: dict[str, str] = field(default_factory=dict)
    samples: dict[tuple[str, tuple[tuple[str, str], ...]], float] = field(
        default_factory=dict
    )

    def value(self, name: str, **labels: Any) -> float:
        key = (
            name,
            tuple(sorted((k, str(v)) for k, v in labels.items())),
        )
        return self.samples.get(key, 0.0)

    def family(self, name: str) -> dict[tuple[tuple[str, str], ...], float]:
        """Every sample of one metric name, keyed by its label tuple."""
        return {
            labels: value
            for (sample_name, labels), value in self.samples.items()
            if sample_name == name
        }


def _parse_labels(body: str) -> tuple[tuple[str, str], ...]:
    labels: list[tuple[str, str]] = []
    position = 0
    while position < len(body):
        equals = body.find("=", position)
        if equals < 0:
            raise ValueError(f"label without '=' in {body!r}")
        name = body[position:equals].strip().lstrip(",").strip()
        if not name:
            raise ValueError(f"empty label name in {body!r}")
        if equals + 1 >= len(body) or body[equals + 1] != '"':
            raise ValueError(f"unquoted label value in {body!r}")
        cursor = equals + 2
        value: list[str] = []
        while True:
            if cursor >= len(body):
                raise ValueError(f"unterminated label value in {body!r}")
            char = body[cursor]
            if char == '"':
                break
            if char == "\\":
                if cursor + 1 >= len(body):
                    raise ValueError(
                        f"dangling escape in label value in {body!r}"
                    )
                escaped = body[cursor + 1]
                # The three escapes the format defines decode; anything
                # else keeps its backslash (lossless for foreign input).
                value.append(
                    {"n": "\n", "\\": "\\", '"': '"'}.get(
                        escaped, "\\" + escaped
                    )
                )
                cursor += 2
            else:
                value.append(char)
                cursor += 1
        labels.append((name, "".join(value)))
        position = cursor + 1
    return tuple(sorted(labels))


def parse_exposition(text: str) -> Exposition:
    """Parse Prometheus text exposition; raises ValueError on bad lines."""
    exposition = Exposition()
    # Expositions are "\n"-framed; splitlines() would also split on
    # \x1c-\x1e / \x85 / U+2028 inside label values and tear samples.
    for raw in text.split("\n"):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("# HELP "):
            _, _, rest = line.partition("# HELP ")
            name, _, help_text = rest.partition(" ")
            exposition.helps[name] = _unescape_help(help_text)
            continue
        if line.startswith("# TYPE "):
            _, _, rest = line.partition("# TYPE ")
            name, _, kind = rest.partition(" ")
            if kind not in ("counter", "gauge", "histogram", "untyped"):
                raise ValueError(f"unknown metric type {kind!r} for {name!r}")
            exposition.types[name] = kind
            continue
        if line.startswith("#"):
            continue
        if "{" in line:
            name, _, rest = line.partition("{")
            body, _, value_text = rest.rpartition("}")
            labels = _parse_labels(body)
            value_text = value_text.strip()
        else:
            name, _, value_text = line.partition(" ")
            labels = ()
        if not name or not value_text:
            raise ValueError(f"malformed sample line: {raw!r}")
        exposition.samples[(name, labels)] = float(value_text)
    return exposition


def _family_of(sample_name: str, types: dict[str, str]) -> str:
    """Map ``name_bucket``/``_sum``/``_count`` back to their family."""
    for suffix in ("_bucket", "_sum", "_count"):
        if sample_name.endswith(suffix):
            family = sample_name[: -len(suffix)]
            if types.get(family) == "histogram":
                return family
    return sample_name


def merge_expositions(texts: Iterable[str]) -> str:
    """Sum counters and histograms across per-worker expositions.

    Gauges are per-process point-in-time readings with no meaningful
    fleet-wide sum (a worker's queue depth, a generation age), so the
    merged output carries counters and histograms only; scrape the
    per-worker slots for gauges.

    A name registered with *different* types across expositions (one
    worker's counter is another's gauge — a version skew) keeps the
    first summable type seen; samples from expositions that disagree
    are skipped rather than summed into the wrong family.
    """
    types: dict[str, str] = {}
    helps: dict[str, str] = {}
    merged: dict[tuple[str, tuple[tuple[str, str], ...]], float] = {}
    order: list[tuple[str, tuple[tuple[str, str], ...]]] = []
    for text in texts:
        exposition = parse_exposition(text)
        for name, kind in exposition.types.items():
            if kind in ("counter", "histogram"):
                types.setdefault(name, kind)
        for name, help_text in exposition.helps.items():
            helps.setdefault(name, help_text)
        for key, value in exposition.samples.items():
            family = _family_of(key[0], exposition.types)
            kind = exposition.types.get(family)
            if kind not in ("counter", "histogram"):
                continue
            if types.get(family) != kind:
                continue  # first summable type won; skip the dissenter
            if key not in merged:
                merged[key] = 0.0
                order.append(key)
            merged[key] += value
    lines: list[str] = []
    seen_families: set[str] = set()
    for name, labels in sorted(order):
        family = _family_of(name, types)
        if family not in seen_families:
            seen_families.add(family)
            if family in helps:
                lines.append(
                    f"# HELP {family} {_escape_help(helps[family])}"
                )
            lines.append(f"# TYPE {family} {types.get(family, 'untyped')}")
        lines.append(
            _sample_line(name, dict(labels), merged[(name, labels)])
        )
    return "\n".join(lines) + "\n" if lines else ""
