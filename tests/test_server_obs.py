"""Server-level observability tests: traces, metrics verb, slow log.

The PR 9 acceptance surface on a single-process server:

* a cold estimate's response carries a ``trace_id`` and per-stage
  ``timings`` whose top-level stages sum to within 10% of the
  envelope's wall-clock ``seconds``;
* a warm (cache-hit) estimate shows no executor span;
* the ``metrics`` verb emits parseable Prometheus text exposition with
  monotonic counters, and served floats are bit-identical with
  telemetry on;
* slow queries land in the NDJSON trace log as ``slow_query`` records;
* ``telemetry=False`` strips the tracing surface but keeps the
  stats/metrics verbs alive (the overhead benchmark's baseline);
* the ``stats`` verb keeps its key tree and value types, and every
  request number in it equals the same series in the exposition.
"""

import json

import pytest

from repro.datasets.presets import running_example_graph
from repro.obs import LATENCY_BUCKETS_MS, parse_exposition
from repro.query.canonical import canonical_key
from repro.query.parser import parse_pattern
from repro.server import (
    EstimationClient,
    ServerConfig,
    ServerError,
    StoreRegistry,
    ThreadedServer,
)
from repro.stats import StatisticsStore, StatsBuildConfig, build_statistics

QUERY = "a -[A]-> b -[B]-> c"
SPECS = ["max-hop-max", "MOLP"]

#: Stages that tile the request window (children like count/coalesce
#: nest inside exec and must not be double-counted against wall time).
TOP_LEVEL_STAGES = {"store_lookup", "cache_probe", "queue", "exec"}


@pytest.fixture(scope="module")
def artifact_dir(tmp_path_factory):
    base = tmp_path_factory.mktemp("obs-server")
    store = build_statistics(
        running_example_graph(),
        StatsBuildConfig(h=2, molp_h=2),
        dataset_name="example",
    )
    store.save(base / "art")
    return base / "art"


def make_server(artifact_dir, **config_kwargs):
    registry = StoreRegistry()
    registry.load("example", artifact_dir)
    return ThreadedServer(
        registry, ServerConfig(port=0, **config_kwargs)
    )


@pytest.fixture()
def traced_server(artifact_dir, tmp_path):
    with make_server(
        artifact_dir, trace_log=str(tmp_path / "trace.ndjson")
    ) as server:
        yield server, tmp_path / "trace.ndjson"


def read_records(path, server=None):
    # Trace records are written by a background thread; flush it before
    # reading when the server is still live.
    if server is not None:
        server.server.telemetry.flush()
    return [json.loads(line) for line in path.read_text().splitlines()]


class TestRequestTracing:
    def test_cold_estimate_spans_tile_the_wall_clock(self, traced_server):
        server, trace_log = traced_server
        with EstimationClient(server.host, server.port) as client:
            result = client.estimate("example", QUERY, SPECS)
        assert result["trace_id"]
        timings = result["timings"]
        # A cold single-flight estimate runs the full pipeline.
        for stage in ("store_lookup_ms", "cache_probe_ms", "queue_ms",
                      "exec_ms", "count_ms"):
            assert stage in timings, f"missing {stage} in {timings}"
        top_level_ms = sum(
            ms for name, ms in timings.items()
            if name[: -len("_ms")] in TOP_LEVEL_STAGES
        )
        wall_ms = result["seconds"] * 1000.0
        assert top_level_ms <= wall_ms * 1.10
        assert top_level_ms >= wall_ms * 0.90, (
            f"stages {timings} cover only {top_level_ms:.4f} of "
            f"{wall_ms:.4f} ms"
        )
        records = read_records(trace_log, server)
        cold = [
            record for record in records
            if record["trace_id"] == result["trace_id"]
        ]
        assert len(cold) == 1
        spans = cold[0]["spans"]
        assert len(spans) >= 5
        by_name = {span["name"]: span for span in spans}
        exec_id = by_name["exec"]["span"]
        count_spans = [s for s in spans if s["name"] == "count"]
        assert len(count_spans) == len(SPECS)
        assert all(span["parent"] == exec_id for span in count_spans)
        assert cold[0]["shape"]  # canonical shape noted for the slow log
        assert cold[0]["generation"] == 1

    def test_warm_estimate_has_no_exec_span(self, traced_server):
        server, trace_log = traced_server
        with EstimationClient(server.host, server.port) as client:
            client.estimate("example", QUERY, SPECS)  # warm the LRU
            warm = client.estimate("example", QUERY, SPECS)
        assert "exec_ms" not in warm["timings"]
        assert "count_ms" not in warm["timings"]
        assert set(
            name[: -len("_ms")] for name in warm["timings"]
        ) == {"store_lookup", "cache_probe"}
        warm_record = [
            record for record in read_records(trace_log, server)
            if record["trace_id"] == warm["trace_id"]
        ][0]
        assert {span["name"] for span in warm_record["spans"]} == {
            "store_lookup", "cache_probe",
        }

    def test_shape_field_is_the_stringified_canonical_key(
        self, artifact_dir, tmp_path
    ):
        trace_log = tmp_path / "shape.ndjson"
        with make_server(
            artifact_dir, trace_log=str(trace_log), slow_query_ms=0.0001
        ) as server:
            with EstimationClient(server.host, server.port) as client:
                client.estimate("example", QUERY, SPECS)  # cold
                client.estimate("example", QUERY, SPECS)  # warm
            records = read_records(trace_log, server)
        shape = str(canonical_key(parse_pattern(QUERY)))
        estimates = [r for r in records if r["verb"] == "estimate"]
        kinds = sorted(record["type"] for record in estimates)
        assert kinds == ["slow_query", "slow_query", "trace", "trace"]
        assert all(record["shape"] == shape for record in estimates)

    def test_client_supplied_trace_id_is_adopted(self, traced_server):
        server, trace_log = traced_server
        with EstimationClient(server.host, server.port) as client:
            result = client.estimate(
                "example", QUERY, SPECS, trace_id="my-trace-0001"
            )
        assert result["trace_id"] == "my-trace-0001"
        assert any(
            record["trace_id"] == "my-trace-0001"
            for record in read_records(trace_log, server)
        )

    def test_invalid_trace_id_is_a_typed_error(self, traced_server):
        server, _ = traced_server
        from repro.server import ServerError, protocol

        with EstimationClient(server.host, server.port) as client:
            with pytest.raises(ServerError) as excinfo:
                client.call(
                    {
                        "v": protocol.PROTOCOL_VERSION,
                        "verb": "estimate",
                        "tenant": "example",
                        "query": QUERY,
                        "trace_id": "x" * 65,
                    }
                )
        assert excinfo.value.code == "invalid_request"

    def test_slow_queries_land_in_the_log(self, artifact_dir, tmp_path):
        trace_log = tmp_path / "slow.ndjson"
        with make_server(
            artifact_dir,
            trace_log=str(trace_log),
            slow_query_ms=0.0001,  # everything is "slow"
        ) as server:
            with EstimationClient(server.host, server.port) as client:
                result = client.estimate("example", QUERY, SPECS)
        slow = [
            record for record in read_records(trace_log)
            if record["type"] == "slow_query"
        ]
        assert slow, "no slow_query record despite a sub-ms threshold"
        record = slow[0]
        assert record["trace_id"] == result["trace_id"]
        assert record["tenant"] == "example"
        assert record["threshold_ms"] == 0.0001
        assert record["shape"]
        assert record["estimators"] == SPECS
        assert record["spans"], "slow record must carry the span breakdown"


class TestFollowerSpanSharing:
    def test_followers_reference_the_leaders_count_span(
        self, traced_server, monkeypatch
    ):
        import threading
        import time as time_module

        from repro.service.session import EstimationSession

        server, trace_log = traced_server
        original = EstimationSession.estimate

        def slowed(self, pattern, spec="max-hop-max"):
            time_module.sleep(0.25)
            return original(self, pattern, spec)

        monkeypatch.setattr(EstimationSession, "estimate", slowed)
        fan_out = 6
        query = "f0 -[C]-> f1 -[D]-> f2"  # cold: unique to this test
        barrier = threading.Barrier(fan_out)
        results: list[dict] = [None] * fan_out
        failures: list[Exception] = []

        def fire(slot):
            try:
                with EstimationClient(server.host, server.port) as client:
                    barrier.wait(10)
                    results[slot] = client.estimate(
                        "example", query, ["max-hop-max"]
                    )
            except Exception as error:  # pragma: no cover - failure path
                failures.append(error)

        threads = [
            threading.Thread(target=fire, args=(slot,))
            for slot in range(fan_out)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
        assert not failures
        trace_ids = {result["trace_id"] for result in results}
        records = [
            record for record in read_records(trace_log, server)
            if record["trace_id"] in trace_ids
        ]
        assert len(records) == fan_out
        count_refs = {
            f"{record['trace_id']}:{span['span']}"
            for record in records
            for span in record["spans"]
            if span["name"] == "count"
        }
        coalesce_spans = [
            span
            for record in records
            for span in record["spans"]
            if span["name"] == "coalesce"
        ]
        assert coalesce_spans, "no follower recorded a coalesce span"
        for span in coalesce_spans:
            # A follower does not fabricate a count span; it points at
            # the leader's via the published cross-trace reference.
            assert span["shared"] in count_refs, (
                f"coalesce span references {span['shared']!r}, not a "
                f"leader count span ({sorted(count_refs)})"
            )
        # Followers never fabricated their own count span (a straggler
        # arriving after the build may legitimately be a plain warm hit
        # with neither span, so leaders+followers need not cover all).
        leaders = {
            record["trace_id"]
            for record in records
            if any(span["name"] == "count" for span in record["spans"])
        }
        followers = {
            record["trace_id"]
            for record in records
            if any(span["name"] == "coalesce" for span in record["spans"])
        }
        assert leaders and followers
        assert leaders.isdisjoint(followers)


class TestMetricsVerb:
    def test_exposition_parses_and_counts_requests(self, artifact_dir):
        with make_server(artifact_dir) as server:
            with EstimationClient(server.host, server.port) as client:
                client.estimate("example", QUERY, SPECS)
                first = client.metrics()
                assert first["format"] == "prometheus-text-0.0.4"
                exposition = parse_exposition(first["exposition"])
                assert exposition.types["repro_requests_total"] == "counter"
                assert (
                    exposition.value("repro_requests_total", verb="estimate")
                    == 1
                )
                assert (
                    exposition.types["repro_request_latency_ms"] == "histogram"
                )
                assert (
                    exposition.value(
                        "repro_request_latency_ms_count", tenant="example"
                    )
                    == 1
                )
                assert exposition.value(
                    "repro_server_info", version="1.0.0"
                ) == 1
                # Counter monotonicity across scrapes.
                client.estimate("example", QUERY, SPECS)
                second = parse_exposition(client.metrics()["exposition"])
                for (name, labels), value in exposition.samples.items():
                    family = name
                    for suffix in ("_bucket", "_sum", "_count"):
                        if name.endswith(suffix):
                            family = name[: -len(suffix)]
                    if exposition.types.get(family) != "counter":
                        continue
                    assert second.samples.get((name, labels), 0.0) >= value, (
                        f"counter {name}{dict(labels)} went backwards"
                    )
                assert (
                    second.value("repro_requests_total", verb="estimate") == 2
                )

    def test_stage_and_admission_metrics_exist(self, artifact_dir):
        with make_server(artifact_dir) as server:
            with EstimationClient(server.host, server.port) as client:
                client.estimate("example", QUERY, SPECS)
                exposition = parse_exposition(
                    client.metrics()["exposition"]
                )
        assert exposition.value("repro_stage_ms_count", stage="exec") == 1
        assert exposition.value("repro_stage_ms_count", stage="queue") == 1
        assert (
            exposition.value("repro_coalescer_leaders_total") == len(SPECS)
        )
        assert ("repro_admission_queue_depth", ()) in exposition.samples
        assert exposition.value("repro_process_start_time_seconds") > 0
        assert (
            exposition.value("repro_generation_age_seconds", tenant="example")
            >= 0
        )

    def test_floats_bit_identical_with_telemetry_on(self, artifact_dir):
        reference = StatisticsStore.load(artifact_dir).session()
        batch = reference.estimate_batch(
            [parse_pattern(QUERY)], specs=SPECS
        )
        with make_server(artifact_dir) as server:
            with EstimationClient(server.host, server.port) as client:
                served = client.estimate("example", QUERY, SPECS)
        for spec in SPECS:
            assert served["estimates"][spec] == batch.item(0, spec).estimate


class TestStatsAdditions:
    def test_server_block_and_quantiles(self, artifact_dir):
        with make_server(artifact_dir) as server:
            with EstimationClient(server.host, server.port) as client:
                for _ in range(5):
                    client.estimate("example", QUERY, SPECS)
                stats = client.stats()
        assert stats["server"]["version"] == "1.0.0"
        assert stats["server"]["start_time_unix"] > 0
        assert stats["server"]["start_time"].endswith("+00:00")
        assert stats["telemetry"]["enabled"] is True
        tenant = stats["tenants"]["example"]
        assert tenant["generation_age_seconds"] >= 0
        requests = tenant["requests"]
        assert requests["requests"] == 5
        assert requests["ok"] == 5
        latency = requests["latency_ms"]
        assert sum(latency["buckets"].values()) == 5
        assert "<=0.1ms" in latency["buckets"]  # new sub-ms resolution
        assert 0 < latency["p50"] <= latency["p95"] <= latency["p99"]
        # Bucket interpolation can overshoot the true max only as far
        # as the upper edge of the bucket holding it.
        from repro.obs import LATENCY_BUCKETS_MS

        ceiling = next(
            (b for b in LATENCY_BUCKETS_MS if b >= latency["max_ms"]),
            LATENCY_BUCKETS_MS[-1],
        )
        assert latency["p99"] <= ceiling

    def test_by_verb_counts_from_the_registry(self, artifact_dir):
        with make_server(artifact_dir) as server:
            with EstimationClient(server.host, server.port) as client:
                client.ping()
                client.estimate("example", QUERY, SPECS)
                stats = client.stats()
        by_verb = stats["requests"]["by_verb"]
        assert by_verb["ping"] == 1
        assert by_verb["estimate"] == 1
        assert by_verb["stats"] == 1
        assert stats["requests"]["total"] == sum(by_verb.values())


class TestTelemetryDisabled:
    def test_no_trace_surface_but_verbs_still_work(self, artifact_dir):
        with make_server(artifact_dir, telemetry=False) as server:
            with EstimationClient(server.host, server.port) as client:
                result = client.estimate("example", QUERY, SPECS)
                assert "trace_id" not in result
                assert "timings" not in result
                stats = client.stats()
                assert stats["telemetry"]["enabled"] is False
                assert (
                    stats["tenants"]["example"]["requests"]["requests"] == 1
                )
                exposition = parse_exposition(
                    client.metrics()["exposition"]
                )
                assert (
                    exposition.value("repro_requests_total", verb="estimate")
                    == 1
                )

    def test_warm_cache_hit_carries_no_trace_surface(self, artifact_dir):
        with make_server(artifact_dir, telemetry=False) as server:
            with EstimationClient(server.host, server.port) as client:
                cold = client.estimate("example", QUERY, SPECS)
                warm = client.estimate("example", QUERY, SPECS)
            leaders = server.server.coalescer.stats().leaders
        assert leaders == len(SPECS), "the second request was a cache hit"
        assert warm["estimates"] == cold["estimates"]
        for result in (cold, warm):
            assert "trace_id" not in result
            assert "timings" not in result

    def test_disabled_floats_match_enabled_floats(self, artifact_dir):
        with make_server(artifact_dir, telemetry=False) as server:
            with EstimationClient(server.host, server.port) as client:
                baseline = client.estimate("example", QUERY, SPECS)
        with make_server(artifact_dir, telemetry=True) as server:
            with EstimationClient(server.host, server.port) as client:
                traced = client.estimate("example", QUERY, SPECS)
        assert baseline["estimates"] == traced["estimates"]


class TestAuditIntegration:
    def test_served_estimates_feed_the_q_error_histogram(self, artifact_dir):
        with make_server(
            artifact_dir, audit_rate=1.0, audit_walk_ratio=1.0
        ) as server:
            with EstimationClient(server.host, server.port) as client:
                client.estimate("example", QUERY, SPECS)
            audit = server.server.telemetry.audit
            assert audit is not None
            audit.drain(timeout=30.0)
            exposition = parse_exposition(
                server.server.metrics_result()["exposition"]
            )
        for spec in SPECS:
            assert (
                exposition.value("repro_audit_samples_total", estimator=spec)
                == 1
            )
            assert (
                exposition.value(
                    "repro_audit_q_error_count",
                    estimator=spec,
                    shape_class="acyclic-2e",
                )
                == 1
            )


def key_tree(value):
    """A JSON value's keys, recursively, with each leaf's type name."""
    if isinstance(value, dict):
        return {key: key_tree(item) for key, item in value.items()}
    if isinstance(value, list):
        return [key_tree(item) for item in value[:1]]
    return type(value).__name__


_CACHE_TREE = {
    "capacity": "int",
    "evictions": "int",
    "hit_rate": "float",
    "hits": "int",
    "misses": "int",
    "size": "int",
}

#: The single-server ``stats`` payload after two estimates and a ping,
#: as the wire carries it (CI, perfbench and the load benchmarks read it).
STATS_KEY_TREE = {
    "uptime_seconds": "float",
    "server": {
        "version": "str",
        "start_time": "str",
        "start_time_unix": "float",
        "pid": "int",
    },
    "telemetry": {
        "enabled": "bool",
        "trace_log": "NoneType",
        "slow_query_ms": "float",
        "audit_rate": "float",
        "pid": "int",
    },
    "tenants": {
        "example": {
            "path": "str",
            "generation": "int",
            "dataset": "str",
            "fingerprint": "str",
            "base_fingerprint": "str",
            "artifact_generation": "int",
            "last_reload_at": "str",
            "generation_age_seconds": "float",
            "last_delta_at": "NoneType",
            "h": "int",
            "molp_h": "int",
            "complete": "bool",
            "catalogs": ["str"],
            "image": "str",
            "cache": {"skeletons": _CACHE_TREE, "estimates": _CACHE_TREE},
            "requests": {
                "requests": "int",
                "ok": "int",
                "errors": {},
                "responses_with_estimator_errors": "int",
                "latency_ms": {
                    "buckets": dict.fromkeys(
                        [
                            "<=0.1ms", "<=0.25ms", "<=0.5ms", "<=1ms",
                            "<=2ms", "<=5ms", "<=10ms", "<=25ms",
                            "<=50ms", "<=100ms", "<=250ms", "<=500ms",
                            "<=1000ms", "<=2500ms", "<=5000ms", ">5000ms",
                        ],
                        "int",
                    ),
                    "sum_ms": "float",
                    "max_ms": "float",
                    "p50": "float",
                    "p95": "float",
                    "p99": "float",
                },
            },
        },
    },
    "admission": dict.fromkeys(
        [
            "max_inflight", "queue_limit", "admitted", "running",
            "abandoned", "queue_depth", "shed_total",
            "deadline_exceeded_total",
        ],
        "int",
    ),
    "coalescer": dict.fromkeys(
        ["leaders", "followers", "calls", "in_flight"], "int"
    ),
    "requests": {
        "total": "int",
        "by_verb": {"estimate": "int", "ping": "int", "stats": "int"},
    },
    "memory": {
        "rss_kb": "float",
        "pss_kb": "float",
        "uss_kb": "float",
        "mapped": [
            {
                "name": "str",
                "deleted": "bool",
                "mapped_kb": "float",
                "rss_kb": "float",
            }
        ],
    },
    # publishes/attaches are always 0 but stay: perfbench reads them.
    "artifact_plane": dict.fromkeys(
        ["disk_parses", "publishes", "attaches"], "int"
    ),
}


class TestStatsContract:
    def test_key_tree_and_value_types_are_pinned(self, artifact_dir):
        with make_server(artifact_dir) as server:
            with EstimationClient(server.host, server.port) as client:
                client.estimate("example", QUERY, SPECS)
                client.estimate("example", QUERY, SPECS)
                client.ping()
                stats = client.stats()
        assert key_tree(stats) == STATS_KEY_TREE

    def test_every_request_number_equals_its_exposition_series(
        self, artifact_dir
    ):
        with make_server(artifact_dir) as server:
            with EstimationClient(server.host, server.port) as client:
                client.estimate("example", QUERY, SPECS)
                client.estimate("example", QUERY, SPECS)
                client.estimate("example", "a -[A]-> b", ["max-hop-max"])
                with pytest.raises(ServerError):
                    client.estimate("example", "a -[A", SPECS)
                client.ping()
            # Quiescent: read both views back to back, in-process.
            stats = server.server.stats_result()
            exposition = parse_exposition(
                server.server.metrics_result()["exposition"]
            )

        def same(number, name, **labels):
            assert number == exposition.value(name, **labels), (
                name, labels, number
            )

        for field, number in stats["admission"].items():
            if field not in ("max_inflight", "queue_limit"):
                same(number, f"repro_admission_{field}")
        coalescer = stats["coalescer"]
        same(coalescer["leaders"], "repro_coalescer_leaders_total")
        same(coalescer["followers"], "repro_coalescer_followers_total")
        same(coalescer["in_flight"], "repro_coalescer_in_flight")
        assert coalescer["calls"] == (
            coalescer["leaders"] + coalescer["followers"]
        )
        for verb, number in stats["requests"]["by_verb"].items():
            same(number, "repro_requests_total", verb=verb)
        requests = stats["tenants"]["example"]["requests"]
        same(requests["requests"], "repro_tenant_requests_total",
             tenant="example")
        same(requests["ok"], "repro_tenant_ok_total", tenant="example")
        same(
            requests["responses_with_estimator_errors"],
            "repro_tenant_estimator_errors_total",
            tenant="example",
        )
        assert requests["errors"] == {"malformed_query": 1}
        for code, number in requests["errors"].items():
            same(number, "repro_tenant_errors_total",
                 tenant="example", code=code)
        latency = requests["latency_ms"]
        same(
            sum(latency["buckets"].values()),
            "repro_request_latency_ms_count",
            tenant="example",
        )
        same(latency["sum_ms"], "repro_request_latency_ms_sum",
             tenant="example")
        top = LATENCY_BUCKETS_MS[-1]
        same(
            sum(latency["buckets"].values()) - latency["buckets"][f">{top}ms"],
            "repro_request_latency_ms_bucket",
            tenant="example",
            le=str(top),
        )
        same(stats["artifact_plane"]["disk_parses"],
             "repro_artifact_disk_parses_total")
        same(stats["server"]["start_time_unix"],
             "repro_process_start_time_seconds")
        assert requests["requests"] == 4 and requests["ok"] == 3
