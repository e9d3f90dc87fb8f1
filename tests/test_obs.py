"""Unit tests of the observability plane (``repro.obs``).

Covers the metrics registry (labelled families, bisect bucketing,
Prometheus text exposition, parse + fleet merge round-trips,
bucket-derived quantiles), the span/trace model (tiling, parents,
follower references, stage totals), the rotating NDJSON sink, and the
sampled WanderJoin q-error audit probe.
"""

import json
import math

import pytest

from repro.obs import (
    LATENCY_BUCKETS_MS,
    AuditProbe,
    MetricsRegistry,
    NdjsonSink,
    RequestTrace,
    Telemetry,
    merge_expositions,
    new_trace_id,
    parse_exposition,
    quantile_from_buckets,
    shape_class,
)
from repro.obs.tracing import NULL_TRACE


# ----------------------------------------------------------------------
# Counters / gauges / histograms
# ----------------------------------------------------------------------
class TestMetricFamilies:
    def test_counter_labels_and_totals(self):
        registry = MetricsRegistry()
        requests = registry.counter("t_total", "help.", labels=("verb",))
        requests.inc(verb="estimate")
        requests.inc(verb="estimate")
        requests.inc(verb="stats")
        assert requests.value(verb="estimate") == 2
        assert requests.value(verb="stats") == 1
        assert requests.value(verb="ping") == 0
        assert requests.total() == 3

    def test_label_schema_is_enforced(self):
        registry = MetricsRegistry()
        counter = registry.counter("t_total", "help.", labels=("verb",))
        with pytest.raises(ValueError):
            counter.inc(tenant="x")
        with pytest.raises(ValueError):
            counter.inc()  # missing the declared label

    def test_register_returns_existing_and_rejects_schema_change(self):
        registry = MetricsRegistry()
        first = registry.counter("t_total", "help.", labels=("verb",))
        again = registry.counter("t_total", "help.", labels=("verb",))
        assert again is first
        with pytest.raises(ValueError):
            registry.counter("t_total", "help.", labels=("other",))
        with pytest.raises(ValueError):
            registry.gauge("t_total", "help.", labels=("verb",))

    def test_histogram_bucket_edges_are_le(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h", "help.", (1.0, 5.0, 10.0))
        histogram.observe(1.0)   # == bound: belongs to the <=1 bucket
        histogram.observe(1.001)
        histogram.observe(10.0)
        histogram.observe(99.0)  # overflow -> +Inf slot
        child = histogram.get_child()
        assert child.counts == [1, 1, 1, 1]
        assert child.count == 4
        assert child.max == 99.0
        assert child.sum == pytest.approx(111.001)

    def test_latency_buckets_include_submillisecond_bounds(self):
        # The satellite: 0.1/0.25/0.5 ms resolution for the warm path.
        assert LATENCY_BUCKETS_MS[:3] == (0.1, 0.25, 0.5)
        assert list(LATENCY_BUCKETS_MS) == sorted(LATENCY_BUCKETS_MS)

    def test_callback_metrics_poll_at_render(self):
        registry = MetricsRegistry()
        state = {"n": 3}
        registry.counter("cb_total", "help.", callback=lambda: state["n"])
        assert "cb_total 3" in registry.render()
        state["n"] = 8
        assert "cb_total 8" in registry.render()

    def test_callback_metric_with_labelled_map(self):
        registry = MetricsRegistry()
        registry.gauge(
            "age_seconds",
            "help.",
            labels=("tenant",),
            callback=lambda: {("t1",): 1.5, ("t2",): 2.5},
        )
        exposition = parse_exposition(registry.render())
        assert exposition.value("age_seconds", tenant="t1") == 1.5
        assert exposition.value("age_seconds", tenant="t2") == 2.5

    def test_value_reads_a_scalar_callback(self):
        registry = MetricsRegistry()
        state = {"n": 3}
        counter = registry.counter(
            "x_total", "help.", callback=lambda: state["n"]
        )
        gauge = registry.gauge("depth", "help.", callback=lambda: 2)
        assert counter.value() == 3.0
        assert gauge.value() == 2.0
        state["n"] = 8
        assert counter.value() == 8.0, "value() polls like render() does"

    def test_value_reads_a_labelled_callback(self):
        registry = MetricsRegistry()
        gauge = registry.gauge(
            "age_seconds",
            "help.",
            labels=("tenant",),
            callback=lambda: {("t1",): 1.5},
        )
        assert gauge.value(tenant="t1") == 1.5
        assert gauge.value(tenant="t2") == 0.0
        with pytest.raises(ValueError):
            gauge.value(shard="t1")


class TestQuantiles:
    def test_empty_histogram_is_zero(self):
        assert quantile_from_buckets((1.0, 2.0), [0, 0, 0], 0.5) == 0.0

    def test_interpolates_inside_the_winning_bucket(self):
        # 10 samples uniformly inside (1, 2]: p50 is mid-bucket.
        bounds = (1.0, 2.0, 4.0)
        counts = [0, 10, 0, 0]
        assert quantile_from_buckets(bounds, counts, 0.5) == pytest.approx(1.5)
        assert quantile_from_buckets(bounds, counts, 1.0) == pytest.approx(2.0)

    def test_overflow_bucket_reports_last_bound(self):
        bounds = (1.0, 2.0)
        counts = [0, 0, 5]
        assert quantile_from_buckets(bounds, counts, 0.99) == 2.0

    def test_agrees_with_exact_quantile_on_dense_data(self):
        registry = MetricsRegistry()
        histogram = registry.histogram(
            "h", "help.", tuple(float(b) for b in range(1, 101))
        )
        values = [float(v) for v in range(1, 101)]
        for value in values:
            histogram.observe(value - 0.5)
        child = histogram.get_child()
        p95 = quantile_from_buckets(histogram.buckets, child.counts, 0.95)
        assert abs(p95 - 94.5) <= 1.0


# ----------------------------------------------------------------------
# Exposition render / parse / merge
# ----------------------------------------------------------------------
class TestExposition:
    def _registry(self):
        registry = MetricsRegistry()
        counter = registry.counter("req_total", "Requests.", labels=("verb",))
        counter.inc(verb="estimate")
        counter.inc(7, verb="stats")
        gauge = registry.gauge("depth", "Queue depth.")
        gauge.set(4)
        histogram = registry.histogram(
            "lat_ms", "Latency.", (1.0, 10.0), labels=("tenant",)
        )
        histogram.observe(0.5, tenant="t1")
        histogram.observe(3.0, tenant="t1")
        histogram.observe(50.0, tenant="t1")
        return registry

    def test_render_parse_round_trip(self):
        text = self._registry().render()
        exposition = parse_exposition(text)
        assert exposition.types["req_total"] == "counter"
        assert exposition.types["depth"] == "gauge"
        assert exposition.types["lat_ms"] == "histogram"
        assert exposition.value("req_total", verb="estimate") == 1
        assert exposition.value("req_total", verb="stats") == 7
        assert exposition.value("depth") == 4
        # Cumulative le semantics on the wire.
        assert exposition.value("lat_ms_bucket", tenant="t1", le="1") == 1
        assert exposition.value("lat_ms_bucket", tenant="t1", le="10") == 2
        assert exposition.value("lat_ms_bucket", tenant="t1", le="+Inf") == 3
        assert exposition.value("lat_ms_count", tenant="t1") == 3
        assert exposition.value("lat_ms_sum", tenant="t1") == 53.5

    def test_label_values_are_escaped(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total", "help.", labels=("q",))
        counter.inc(q='a"b\\c\nd')
        exposition = parse_exposition(registry.render())
        assert exposition.value("c_total", q='a"b\\c\nd') == 1

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_exposition("req_total{verb=estimate} 1")
        with pytest.raises(ValueError):
            parse_exposition("# TYPE x sideways\nx 1")

    def test_merge_sums_counters_and_histograms_drops_gauges(self):
        first = self._registry().render()
        second = self._registry().render()
        merged = parse_exposition(merge_expositions([first, second]))
        assert merged.value("req_total", verb="estimate") == 2
        assert merged.value("req_total", verb="stats") == 14
        assert merged.value("lat_ms_bucket", tenant="t1", le="+Inf") == 6
        assert merged.value("lat_ms_sum", tenant="t1") == 107.0
        # Gauges are per-process point-in-time values: no meaningful sum.
        assert merged.family("depth") == {}

    def test_merged_output_is_itself_valid_exposition(self):
        merged = merge_expositions([self._registry().render()])
        reparsed = parse_exposition(merged)
        assert reparsed.value("req_total", verb="stats") == 7


# ----------------------------------------------------------------------
# Traces and spans
# ----------------------------------------------------------------------
class TestRequestTrace:
    def test_trace_ids_are_minted_or_adopted(self):
        assert RequestTrace("estimate").trace_id != new_trace_id()
        assert RequestTrace("estimate", trace_id="abc123").trace_id == "abc123"

    def test_span_context_manager_measures(self):
        trace = RequestTrace("estimate", tenant="t1")
        with trace.span("exec") as span:
            pass
        assert span.ms >= 0.0
        assert trace.spans == [span]

    def test_parents_refs_and_attrs_survive_to_the_record(self):
        trace = RequestTrace("estimate", tenant="t1", trace_id="tid")
        import time as time_module

        t0 = time_module.perf_counter()
        exec_span = trace.add_span("exec", t0, 0.010)
        child = trace.add_span(
            "count", t0, 0.004, parent=exec_span.span_id, estimator="MOLP"
        )
        assert trace.ref(child) == f"tid:{child.span_id}"
        trace.note(shape="((0, 1, 'A'),)")
        record = trace.record(ok=True, wall_ms=11.0)
        assert record["type"] == "trace"
        assert record["trace_id"] == "tid"
        assert record["tenant"] == "t1"
        assert record["shape"] == "((0, 1, 'A'),)"
        by_name = {span["name"]: span for span in record["spans"]}
        assert by_name["count"]["parent"] == exec_span.span_id
        assert by_name["count"]["estimator"] == "MOLP"
        assert by_name["exec"]["ms"] == pytest.approx(10.0)

    def test_record_stringifies_a_noted_shape_key(self):
        key = ((0, 1, "A"), (1, 2, "B"))
        trace = RequestTrace("estimate", tenant="t1")
        trace.note(shape=key, estimators=["MOLP"], generation=3)
        assert trace.attrs["shape"] is key, "noting costs no str()"
        record = trace.record(ok=True)
        assert record["shape"] == str(key)
        assert record["estimators"] == ["MOLP"]
        assert record["generation"] == 3

    def test_annotate_echoes_id_and_stage_timings(self):
        trace = RequestTrace("estimate", trace_id="tid")
        import time as time_module

        trace.add_span("cache_probe", time_module.perf_counter(), 0.001)
        result = trace.annotate({"estimates": {}})
        assert result["trace_id"] == "tid"
        assert result["timings"] == {"cache_probe_ms": pytest.approx(1.0)}

    def test_stage_totals_sum_repeated_stages(self):
        trace = RequestTrace("estimate")
        import time as time_module

        t0 = time_module.perf_counter()
        trace.add_span("count", t0, 0.002)
        trace.add_span("count", t0, 0.003)
        trace.add_span("queue", t0, 0.001)
        totals = trace.stage_totals()
        assert totals["count"] == pytest.approx(5.0)
        assert totals["queue"] == pytest.approx(1.0)


# ----------------------------------------------------------------------
# NDJSON sink
# ----------------------------------------------------------------------
class TestNdjsonSink:
    def test_writes_valid_ndjson(self, tmp_path):
        sink = NdjsonSink(tmp_path / "trace.ndjson")
        sink.write({"type": "trace", "n": 1})
        sink.write({"type": "slow_query", "n": 2})
        sink.close()
        lines = (tmp_path / "trace.ndjson").read_text().splitlines()
        records = [json.loads(line) for line in lines]
        assert [record["n"] for record in records] == [1, 2]

    def test_rotates_by_size(self, tmp_path):
        path = tmp_path / "trace.ndjson"
        sink = NdjsonSink(path, max_bytes=4096)
        for n in range(200):
            sink.write({"n": n, "pad": "x" * 100})
        sink.close()
        rotated = tmp_path / "trace.ndjson.1"
        assert rotated.exists(), "sink never rotated"
        assert path.stat().st_size <= 4096
        # Both generations stay valid NDJSON.
        for file in (path, rotated):
            for line in file.read_text().splitlines():
                json.loads(line)

    def test_survives_external_rotation(self, tmp_path):
        path = tmp_path / "trace.ndjson"
        sink = NdjsonSink(path)
        sink.write({"n": 1})
        path.rename(tmp_path / "elsewhere.ndjson")  # someone else rotated
        sink.write({"n": 2})
        sink.close()
        assert json.loads(path.read_text()) == {"n": 2}

    def test_never_raises_on_unwritable_path(self, tmp_path):
        target = tmp_path / "dir-not-file"
        target.mkdir()
        sink = NdjsonSink(target)  # opening a directory fails with EISDIR
        sink.write({"n": 1})  # must swallow, not raise
        sink.close()


# ----------------------------------------------------------------------
# Telemetry bundle
# ----------------------------------------------------------------------
class TestTelemetry:
    def test_disabled_begin_returns_the_null_trace(self):
        telemetry = Telemetry(enabled=False)
        trace = telemetry.begin("estimate", "t1")
        assert trace is NULL_TRACE
        assert trace.trace_id is None
        span = trace.add_span("exec", 0.0, 0.5)
        assert span.span_id is None
        span.ms = 12.0  # settable, and recorded nowhere
        with trace.span("count", parent=span.span_id) as inner:
            assert inner.span_id is None
        assert trace.ref(inner) is None
        trace.note(shape=("x",))
        assert trace.annotate({"estimates": {}}) == {"estimates": {}}
        telemetry.finish(trace, ok=True, seconds=0.1)  # no-op, no crash
        assert telemetry.stage_ms.labeled() == []

    def test_finish_feeds_stage_histograms_and_slow_counter(self, tmp_path):
        sink = NdjsonSink(tmp_path / "trace.ndjson")
        telemetry = Telemetry(sink=sink, slow_query_ms=5.0)
        trace = telemetry.begin("estimate", "t1")
        import time as time_module

        trace.add_span("exec", time_module.perf_counter(), 0.010)
        telemetry.finish(trace, ok=True, seconds=0.010)
        telemetry.close()
        assert telemetry.slow_queries.value() == 1
        assert telemetry.trace_records.value() == 1
        records = [
            json.loads(line)
            for line in (tmp_path / "trace.ndjson").read_text().splitlines()
        ]
        kinds = [record["type"] for record in records]
        assert kinds == ["trace", "slow_query"]
        assert records[1]["threshold_ms"] == 5.0
        assert records[1]["spans"] == records[0]["spans"]


# ----------------------------------------------------------------------
# Audit probe
# ----------------------------------------------------------------------
class TestAuditProbe:
    def test_shape_class_buckets(self):
        from repro.query.parser import parse_pattern

        chain = parse_pattern("a -[A]-> b -[B]-> c")
        assert shape_class(chain) == "acyclic-2e"
        triangle = parse_pattern("a -[A]-> b, b -[B]-> c, c -[C]-> a")
        assert shape_class(triangle) == "cyclic-3e"

    def test_probe_publishes_q_error_histograms(self):
        from repro.datasets.presets import running_example_graph
        from repro.stats import StatsBuildConfig, build_statistics

        registry = MetricsRegistry()
        probe = AuditProbe(
            registry,
            lambda tenant: running_example_graph(),
            rate=1.0,
            walk_ratio=1.0,
        )
        store = build_statistics(
            running_example_graph(), StatsBuildConfig(h=2)
        )
        session = store.session()
        from repro.query.parser import parse_pattern

        query = "a -[A]-> b -[B]-> c"
        estimate = session.estimate(parse_pattern(query))
        sampled = probe.maybe_sample("t1", query, {"max-hop-max": estimate})
        assert sampled
        probe.drain(timeout=30.0)
        probe.stop()
        assert probe.samples.value(estimator="max-hop-max") == 1
        child = probe.q_error.get_child(
            estimator="max-hop-max", shape_class="acyclic-2e"
        )
        assert child is not None and child.count == 1
        q = child.sum
        assert q >= 1.0 and math.isfinite(q)

    def test_rate_zero_never_samples(self):
        probe = AuditProbe(
            MetricsRegistry(), lambda tenant: None, rate=0.0
        )
        assert not probe.maybe_sample("t1", "a -[A]-> b", {"MOLP": 1.0})

    def test_tenant_filter(self):
        probe = AuditProbe(
            MetricsRegistry(), lambda tenant: None, rate=1.0, tenant="ref"
        )
        assert not probe.maybe_sample("other", "a -[A]-> b", {"MOLP": 1.0})

    def test_unloadable_tenant_disables_itself(self):
        def exploding_loader(tenant):
            raise RuntimeError("no dataset")

        probe = AuditProbe(MetricsRegistry(), exploding_loader, rate=1.0)
        assert probe.maybe_sample("t1", "a -[A]-> b", {"MOLP": 1.0})
        probe.drain(timeout=10.0)
        probe.stop()
        assert "t1" in probe._disabled_tenants
        assert probe.dropped.value() == 1
        # Later samples for the dead tenant are refused at the gate.
        assert not probe.maybe_sample("t1", "a -[A]-> b", {"MOLP": 1.0})

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            AuditProbe(MetricsRegistry(), lambda tenant: None, rate=1.5)
