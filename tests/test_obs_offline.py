"""The offline observability plane and the ``repro obs`` toolkit.

Covers the PR-10 surface: exposition escaping round-trips (property
tested) and malformed-input errors, the slow-query-off switch, keep-N
trace-log rotation (including concurrent forked writers racing the
shift), merge semantics for disjoint and type-colliding families, the
instrumented builders (``build_statistics``, ``apply_updates``,
``replay_graph``), the audit probe's NDJSON records, the analysis functions, and the CLI verbs
end to end.
"""

from __future__ import annotations

import json
import math
import os
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.obs import (
    LATENCY_BUCKETS_MS,
    JobTelemetry,
    MetricsRegistry,
    NdjsonSink,
    Telemetry,
    audit_report,
    grep_trace,
    load_records,
    merge_expositions,
    parse_exposition,
    quantile_from_buckets,
    span_profile,
    summarize,
    write_textfile,
)


def run_cli(capsys, *argv):
    capsys.readouterr()
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ----------------------------------------------------------------------
# Satellite: exposition escaping
# ----------------------------------------------------------------------
class TestEscapingRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(
        value=st.text(
            alphabet=st.characters(
                codec="utf-8", exclude_categories=("Cs",)
            ),
            max_size=40,
        )
    )
    def test_label_values_round_trip(self, value):
        registry = MetricsRegistry()
        counter = registry.counter("rt_total", "help.", labels=("q",))
        counter.inc(q=value)
        parsed = parse_exposition(registry.render())
        assert parsed.value("rt_total", q=value) == 1.0

    @settings(max_examples=100, deadline=None)
    @given(help_text=st.text(max_size=60).filter(lambda s: s.strip()))
    def test_help_text_round_trips(self, help_text):
        registry = MetricsRegistry()
        registry.counter("rt_total", help_text).inc()
        text = registry.render()
        # Newlines in help must not break line framing.
        parsed = parse_exposition(text)
        assert parsed.value("rt_total") == 1.0
        # The HELP survives modulo the leading/trailing whitespace the
        # line format cannot represent.
        assert parsed.helps["rt_total"].strip() == help_text.strip()

    def test_newline_in_help_keeps_exposition_parseable(self):
        registry = MetricsRegistry()
        registry.counter("nl_total", "line one\nline two").inc()
        text = registry.render()
        assert "\nline two" not in text  # escaped, not raw
        assert parse_exposition(text).value("nl_total") == 1.0

    @pytest.mark.parametrize(
        "line",
        [
            'c_total{q="unterminated} 1',
            "c_total{noequals} 1",
            'c_total{="x"} 1',
            "c_total{q=bare} 1",
        ],
    )
    def test_malformed_labels_raise_value_error(self, line):
        with pytest.raises(ValueError):
            parse_exposition(line)

    def test_foreign_unknown_escape_is_lossless(self):
        parsed = parse_exposition('c_total{q="a\\tb"} 1')
        labels = dict(
            next(iter(parsed.family("c_total").keys()))
        )
        assert labels["q"] == "a\\tb"  # backslash kept, not dropped


# ----------------------------------------------------------------------
# Satellite: slow-query threshold 0 disables the log
# ----------------------------------------------------------------------
class TestSlowQueryOff:
    def test_zero_threshold_logs_nothing(self, tmp_path):
        sink = NdjsonSink(tmp_path / "t.ndjson")
        telemetry = Telemetry(sink=sink, slow_query_ms=0.0)
        trace = telemetry.begin("estimate", "t1")
        telemetry.finish(trace, ok=True, seconds=3.0)  # 3000 ms
        telemetry.flush()
        telemetry.close()
        records = [
            json.loads(line)
            for line in (tmp_path / "t.ndjson")
            .read_text()
            .splitlines()
        ]
        assert [r["type"] for r in records] == ["trace"]
        assert telemetry.slow_queries.total() == 0

    def test_positive_threshold_still_captures(self, tmp_path):
        sink = NdjsonSink(tmp_path / "t.ndjson")
        telemetry = Telemetry(sink=sink, slow_query_ms=5.0)
        trace = telemetry.begin("estimate", "t1")
        telemetry.finish(trace, ok=True, seconds=0.05)
        telemetry.flush()
        telemetry.close()
        kinds = [
            json.loads(line)["type"]
            for line in (tmp_path / "t.ndjson")
            .read_text()
            .splitlines()
        ]
        assert kinds == ["trace", "slow_query"]


# ----------------------------------------------------------------------
# Satellite: keep-N rotation
# ----------------------------------------------------------------------
class TestKeepNRotation:
    def test_keep_n_shifts_generations(self, tmp_path):
        path = tmp_path / "t.ndjson"
        sink = NdjsonSink(path, max_bytes=200, keep=3)
        for index in range(40):
            sink.write({"type": "trace", "index": index})
        sink.close()
        assert path.with_name("t.ndjson.1").exists()
        assert path.with_name("t.ndjson.2").exists()
        assert path.with_name("t.ndjson.3").exists()
        assert not path.with_name("t.ndjson.4").exists()
        # .2 holds strictly older records than .1.
        newest_in_2 = max(
            json.loads(line)["index"]
            for line in path.with_name("t.ndjson.2").read_text().splitlines()
        )
        oldest_in_1 = min(
            json.loads(line)["index"]
            for line in path.with_name("t.ndjson.1").read_text().splitlines()
        )
        assert newest_in_2 < oldest_in_1

    def test_keep_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError):
            NdjsonSink(tmp_path / "t.ndjson", keep=0)

    def test_concurrent_forked_writers_survive_rotation(self, tmp_path):
        """Siblings racing the keep-N shift drop no whole file of records.

        Each forked child writes its own numbered records through its
        own sink on the shared path; the inode check must land every
        record in *some* generation exactly once (the rotation-race
        fallback may not double-write or truncate).
        """
        path = tmp_path / "t.ndjson"
        workers, per_worker = 4, 60
        pids = []
        for worker in range(workers):
            pid = os.fork()
            if pid == 0:
                status = 1
                try:
                    sink = NdjsonSink(path, max_bytes=256, keep=64)
                    for index in range(per_worker):
                        sink.write({"w": worker, "i": index})
                    sink.close()
                    status = 0
                finally:
                    os._exit(status)
            pids.append(pid)
        for pid in pids:
            _, status = os.waitpid(pid, 0)
            assert os.waitstatus_to_exitcode(status) == 0
        found = []
        for candidate in [path] + [
            path.with_name(f"t.ndjson.{g}") for g in range(1, 65)
        ]:
            if not candidate.exists():
                continue
            for line in candidate.read_text().splitlines():
                record = json.loads(line)  # no torn lines
                found.append((record["w"], record["i"]))
        expected = {
            (worker, index)
            for worker in range(workers)
            for index in range(per_worker)
        }
        # keep=64 far exceeds the ~15 generations 240 short records can
        # fill (even doubled by racing shifts), so nothing ages out:
        # every record must land in exactly one generation.
        assert len(found) == len(set(found))
        assert set(found) == expected

    def test_reopen_follows_external_rotation_inode(self, tmp_path):
        path = tmp_path / "t.ndjson"
        sink = NdjsonSink(path, max_bytes=1 << 20, keep=2)
        sink.write({"n": 1})
        os.replace(path, path.with_name("t.ndjson.1"))
        sink.write({"n": 2})
        sink.close()
        assert json.loads(path.read_text())["n"] == 2


# ----------------------------------------------------------------------
# Satellite: merge_expositions semantics
# ----------------------------------------------------------------------
class TestMergeExpositions:
    def test_disjoint_families_union(self):
        a = MetricsRegistry()
        a.counter("only_a_total", "a.").inc(3)
        b = MetricsRegistry()
        b.counter("only_b_total", "b.").inc(5)
        merged = parse_exposition(
            merge_expositions([a.render(), b.render()])
        )
        assert merged.value("only_a_total") == 3
        assert merged.value("only_b_total") == 5

    def test_mixed_type_collision_keeps_first_summable(self):
        a = MetricsRegistry()
        a.counter("skewed", "v1.").inc(2)
        b = MetricsRegistry()
        b.gauge("skewed", "v2.").set(99)
        c = MetricsRegistry()
        c.counter("skewed", "v1.").inc(7)
        merged = parse_exposition(
            merge_expositions([a.render(), b.render(), c.render()])
        )
        assert merged.types["skewed"] == "counter"
        assert merged.value("skewed") == 9  # gauge's 99 never summed in

    def test_histogram_vs_counter_collision_drops_dissenter(self):
        a = MetricsRegistry()
        hist = a.histogram("lat_ms", "v1.", (1, 10))
        hist.observe(0.5)
        b = MetricsRegistry()
        b.counter("lat_ms", "v2.").inc(100)
        merged = parse_exposition(
            merge_expositions([a.render(), b.render()])
        )
        assert merged.types["lat_ms"] == "histogram"
        assert merged.value("lat_ms_count") == 1
        assert ("lat_ms", ()) not in merged.samples


# ----------------------------------------------------------------------
# Tentpole: instrumented offline builders
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def example_graph():
    from repro.datasets.presets import running_example_graph

    return running_example_graph()


class TestBuildInstrumentation:
    def test_build_emits_level_spans_and_counters(
        self, tmp_path, example_graph
    ):
        from repro.stats import StatsBuildConfig, build_statistics

        telemetry = JobTelemetry(
            "stats.build",
            trace_log=tmp_path / "t.ndjson",
            metrics_out=tmp_path / "m.prom",
        )
        build_statistics(
            example_graph,
            StatsBuildConfig(h=2),
            jobs=2,
            telemetry=telemetry,
        )
        telemetry.finish(ok=True)
        record = json.loads((tmp_path / "t.ndjson").read_text())
        levels = [s for s in record["spans"] if s["name"] == "level"]
        shards = [s for s in record["spans"] if s["name"] == "shard"]
        assert [span["level"] for span in levels] == [1, 2]
        for span in levels:
            assert {"examined", "stored", "frontier", "jobs"} <= set(span)
        assert shards and all(
            span["parent"] in {l["span"] for l in levels} for span in shards
        )
        exposition = parse_exposition((tmp_path / "m.prom").read_text())
        assert exposition.value("repro_build_levels_total") == 2
        assert exposition.value("repro_build_examined_total") > 0
        assert exposition.value("repro_build_edges_per_second") > 0

    def test_telemetry_does_not_change_artifact_bytes(
        self, tmp_path, example_graph
    ):
        from repro.stats import StatsBuildConfig, build_statistics

        plain = build_statistics(example_graph, StatsBuildConfig(h=2))
        telemetry = JobTelemetry("stats.build")
        traced = build_statistics(
            example_graph, StatsBuildConfig(h=2), telemetry=telemetry
        )
        assert plain.markov.to_artifact() == traced.markov.to_artifact()
        assert plain.degrees.to_artifact() == traced.degrees.to_artifact()


class TestDeltaInstrumentation:
    def _artifact(self, tmp_path, graph):
        from repro.stats import StatsBuildConfig, build_statistics

        store = build_statistics(
            graph, StatsBuildConfig(h=2), dataset_name="example"
        )
        directory = tmp_path / "art"
        store.save(directory)
        return directory

    def test_apply_counters_spans_and_lineage_age(
        self, tmp_path, example_graph
    ):
        from repro.delta import apply_updates
        from repro.delta.updates import UpdateBatch
        from repro.stats import StatisticsStore

        directory = self._artifact(tmp_path, example_graph)
        store = StatisticsStore.load(directory, graph=example_graph)
        telemetry = JobTelemetry("updates.apply")
        outcome = apply_updates(
            store,
            UpdateBatch.from_payload([["+", 0, 5, "B"]]),
            directory=directory,
            telemetry=telemetry,
        )
        assert outcome.mode == "incremental"
        applies = telemetry.registry.get("repro_delta_applies_total")
        assert applies.value(mode="incremental") == 1
        names = [span.name for span in telemetry.trace.spans]
        assert "maintain" in names and "persist" in names
        # First apply: no previous generation, so no lineage age yet.
        assert telemetry.registry.get("repro_delta_lineage_age_seconds") is None

        second = JobTelemetry("updates.apply")
        apply_updates(
            store,
            UpdateBatch.from_payload([["+", 1, 6, "B"]]),
            directory=directory,
            telemetry=second,
        )
        age = second.registry.get("repro_delta_lineage_age_seconds")
        assert age is not None and age.value() >= 0.0
        assert second.registry.get("repro_delta_generation").value() == 2

    def test_replay_graph_emits_generation_spans(
        self, tmp_path, example_graph
    ):
        from repro.delta import apply_updates, replay_graph
        from repro.delta.updates import UpdateBatch
        from repro.stats import StatisticsStore

        directory = self._artifact(tmp_path, example_graph)
        store = StatisticsStore.load(directory, graph=example_graph)
        apply_updates(
            store,
            UpdateBatch.from_payload([["+", 0, 5, "B"]]),
            directory=directory,
        )
        telemetry = JobTelemetry("updates.replay")
        replay_graph(example_graph, directory, telemetry=telemetry)
        spans = [
            span for span in telemetry.trace.spans
            if span.name == "generation"
        ]
        assert len(spans) == 1 and spans[0].attrs["generation"] == 1
        assert (
            telemetry.registry.get(
                "repro_delta_replayed_generations_total"
            ).total()
            == 1
        )


# ----------------------------------------------------------------------
# Tentpole: audit probe NDJSON records
# ----------------------------------------------------------------------
class TestAuditRecords:
    def test_probe_writes_audit_records_to_sink(
        self, tmp_path, example_graph
    ):
        from repro.obs import AuditProbe
        from repro.query.parser import parse_pattern
        from repro.stats import StatsBuildConfig, build_statistics

        sink = NdjsonSink(tmp_path / "t.ndjson")
        probe = AuditProbe(
            MetricsRegistry(),
            lambda tenant: example_graph,
            rate=1.0,
            walk_ratio=1.0,
            sink=sink,
        )
        store = build_statistics(example_graph, StatsBuildConfig(h=2))
        query = "a -[A]-> b -[B]-> c"
        estimate = store.session().estimate(parse_pattern(query))
        assert probe.maybe_sample("t1", query, {"max-hop-max": estimate})
        probe.drain(timeout=30.0)
        probe.stop()
        sink.close()
        records = [
            json.loads(line)
            for line in (tmp_path / "t.ndjson").read_text().splitlines()
        ]
        audits = [r for r in records if r["type"] == "audit"]
        assert len(audits) == 1
        record = audits[0]
        assert record["tenant"] == "t1"
        assert record["query"] == query
        assert record["shape_class"] == "acyclic-2e"
        assert record["estimates"]["max-hop-max"] == estimate
        assert record["q_errors"]["max-hop-max"] >= 1.0
        assert record["truth"] >= 0.0


# ----------------------------------------------------------------------
# Tentpole: the analysis functions
# ----------------------------------------------------------------------
def _trace(trace_id, verb, wall_ms, spans=(), **extra):
    return {
        "type": "trace",
        "trace_id": trace_id,
        "verb": verb,
        "ts": 1000.0,
        "pid": 1,
        "ok": True,
        "wall_ms": wall_ms,
        "spans": list(spans),
        **extra,
    }


class TestAnalyze:
    def test_summarize_p99_matches_server_histogram_bucketing(self):
        walls = [0.2, 0.4, 0.9, 3.0, 8.0, 40.0, 90.0, 400.0, 900.0, 2000.0]
        records = [
            _trace(f"t{i}", "estimate", wall) for i, wall in enumerate(walls)
        ]
        report = summarize(records)
        histogram = MetricsRegistry().histogram(
            "lat", "h.", LATENCY_BUCKETS_MS
        )
        for wall in walls:
            histogram.observe(wall)
        child = histogram.get_child()
        for quantile, key in ((0.5, "p50"), (0.95, "p95"), (0.99, "p99")):
            expected = quantile_from_buckets(
                LATENCY_BUCKETS_MS, child.counts, quantile
            )
            assert report["latency_ms"][key] == pytest.approx(
                expected, rel=1e-9
            )

    def test_summarize_counts_and_slow_queries(self):
        records = [
            _trace("a", "estimate", 1.0, tenant="t1", shape="s1"),
            _trace("b", "estimate", 2.0, tenant="t1", shape="s1"),
            _trace("c", "stats", 3.0),
            {
                "type": "slow_query",
                "trace_id": "b",
                "verb": "estimate",
                "wall_ms": 900.0,
                "threshold_ms": 500.0,
            },
        ]
        records[2]["ok"] = False
        report = summarize(records)
        assert report["traces"] == 3
        assert report["errors"] == 1
        assert report["verbs"]["estimate"]["count"] == 2
        assert report["tenants"] == {"t1": 2}
        assert report["shapes"] == {"s1": 2}
        assert report["slow_queries"][0]["trace_id"] == "b"

    def test_span_profile_self_time_and_fan_in(self):
        leader = _trace(
            "lead",
            "estimate",
            10.0,
            spans=[
                {"span": "s1", "name": "exec", "start_ms": 0, "ms": 10.0},
                {
                    "span": "s2",
                    "name": "count",
                    "start_ms": 1,
                    "ms": 8.0,
                    "parent": "s1",
                },
            ],
        )
        follower = _trace(
            "follow",
            "estimate",
            9.0,
            spans=[
                {
                    "span": "s1",
                    "name": "coalesce",
                    "start_ms": 0,
                    "ms": 9.0,
                    "shared": "lead:s2",
                }
            ],
        )
        report = span_profile([leader, follower], top=5)
        stages = {row["stage"]: row for row in report["stages"]}
        assert stages["exec"]["self_ms"] == pytest.approx(2.0)
        assert stages["exec"]["total_ms"] == pytest.approx(10.0)
        assert stages["count"]["self_ms"] == pytest.approx(8.0)
        assert report["coalesce_fan_in"] == [
            {"leader_span": "lead:s2", "followers": 1}
        ]
        assert report["top_offenders"][0]["stage"] == "coalesce"

    def test_audit_report_cells_and_worst(self):
        records = [
            {
                "type": "audit",
                "tenant": "t1",
                "query": "a -[A]-> b",
                "shape_class": "acyclic-1e",
                "truth": 10.0,
                "estimates": {"MOLP": 20.0, "max-hop-max": 1000.0},
                "q_errors": {"MOLP": 2.0, "max-hop-max": 100.0},
            },
            {
                "type": "audit",
                "tenant": "t1",
                "query": "a -[B]-> b",
                "shape_class": "acyclic-1e",
                "truth": 4.0,
                "estimates": {"MOLP": 5.0},
                "q_errors": {"MOLP": 1.25},
            },
        ]
        report = audit_report(records, top=2)
        assert report["samples"] == 2
        cells = {
            (row["estimator"], row["shape_class"]): row
            for row in report["cells"]
        }
        assert cells[("MOLP", "acyclic-1e")]["count"] == 2
        assert cells[("max-hop-max", "acyclic-1e")]["max"] == 100.0
        worst = report["worst"][0]
        assert worst["estimator"] == "max-hop-max"
        assert worst["q_error"] == 100.0
        assert worst["truth"] == 10.0

    def test_grep_trace_pulls_followers_by_shared_ref(self):
        leader = _trace("lead", "estimate", 5.0)
        follower = _trace(
            "follow",
            "estimate",
            4.0,
            spans=[
                {
                    "span": "s1",
                    "name": "coalesce",
                    "start_ms": 0,
                    "ms": 4.0,
                    "shared": "lead:s2",
                }
            ],
        )
        unrelated = _trace("other", "estimate", 1.0)
        report = grep_trace([leader, follower, unrelated], "lead")
        assert report["matches"] == 2
        ids = [record["trace_id"] for record in report["records"]]
        assert set(ids) == {"lead", "follow"}

    def test_load_records_reads_rotated_chain_and_skips_torn(
        self, tmp_path
    ):
        (tmp_path / "t.ndjson.2").write_text('{"n": 1}\n')
        (tmp_path / "t.ndjson.1").write_text('{"n": 2}\n{"torn": ')
        (tmp_path / "t.ndjson").write_text('{"n": 3}\n')
        records = load_records([tmp_path / "t.ndjson"])
        assert [record["n"] for record in records] == [1, 2, 3]


# ----------------------------------------------------------------------
# CLI end to end
# ----------------------------------------------------------------------
class TestObsCli:
    @pytest.fixture()
    def traced_build(self, tmp_path):
        log = tmp_path / "traces.ndjson"
        metrics = tmp_path / "metrics.prom"
        assert main([
            "stats", "build", "--dataset", "example",
            "--out", str(tmp_path / "art"), "--jobs", "2",
            "--trace-log", str(log), "--metrics-out", str(metrics),
        ]) == 0
        return log, metrics

    def test_summarize_and_spans(self, capsys, traced_build):
        log, metrics = traced_build
        code, out, _ = run_cli(capsys, "obs", "summarize", str(log))
        assert code == 0
        report = json.loads(out)
        assert report["verbs"]["stats.build"]["count"] == 1
        assert report["latency_ms"]["p99"] > 0
        code, out, _ = run_cli(capsys, "obs", "spans", str(log))
        assert code == 0
        stages = {row["stage"] for row in json.loads(out)["stages"]}
        assert "level" in stages and "shard" in stages

    def test_metrics_out_is_parseable_with_nonzero_counters(
        self, traced_build
    ):
        _, metrics = traced_build
        exposition = parse_exposition(metrics.read_text())
        assert exposition.value("repro_build_levels_total") > 0
        assert exposition.types["repro_build_levels_total"] == "counter"

    def test_grep_finds_the_build_trace(self, capsys, traced_build):
        log, _ = traced_build
        trace_id = json.loads(log.read_text().splitlines()[0])["trace_id"]
        code, out, _ = run_cli(
            capsys, "obs", "grep", str(log), "--trace-id", trace_id
        )
        assert code == 0
        report = json.loads(out)
        assert report["matches"] == 1
        assert report["records"][0]["verb"] == "stats.build"

    def test_grep_requires_trace_id(self, capsys, traced_build):
        log, _ = traced_build
        code, _, err = run_cli(capsys, "obs", "grep", str(log))
        assert code == 2 and "--trace-id" in err

    def test_missing_log_is_exit_2(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "obs", "summarize", str(tmp_path / "nope.ndjson")
        )
        assert code == 2 and "no such trace log" in err

    def test_audit_verb_over_synthetic_records(self, capsys, tmp_path):
        log = tmp_path / "t.ndjson"
        log.write_text(
            json.dumps(
                {
                    "type": "audit",
                    "shape_class": "acyclic-1e",
                    "query": "a -[A]-> b",
                    "truth": 2.0,
                    "estimates": {"MOLP": 4.0},
                    "q_errors": {"MOLP": 2.0},
                }
            )
            + "\n"
        )
        code, out, _ = run_cli(capsys, "obs", "audit", str(log))
        assert code == 0
        report = json.loads(out)
        assert report["samples"] == 1
        assert report["cells"][0]["estimator"] == "MOLP"

    def test_updates_apply_writes_job_trace(self, capsys, tmp_path):
        art = tmp_path / "art"
        assert main([
            "stats", "build", "--dataset", "example", "--out", str(art)
        ]) == 0
        ops = tmp_path / "ops.json"
        ops.write_text(json.dumps({"updates": [["+", 0, 5, "B"]]}))
        log = tmp_path / "apply.ndjson"
        code, out, _ = run_cli(
            capsys, "updates", "apply", "--stats-dir", str(art),
            "--updates", str(ops), "--trace-log", str(log),
            "--metrics-out", str(tmp_path / "apply.prom"),
        )
        assert code == 0
        record = json.loads(log.read_text().splitlines()[-1])
        assert record["verb"] == "updates.apply"
        assert record["mode"] == "incremental"
        assert any(s["name"] == "maintain" for s in record["spans"])
        exposition = parse_exposition(
            (tmp_path / "apply.prom").read_text()
        )
        assert (
            exposition.value(
                "repro_delta_applies_total", mode="incremental"
            )
            == 1
        )


class TestWriteTextfile:
    def test_atomic_write_leaves_no_tmp(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("x_total", "x.").inc()
        out = tmp_path / "deep" / "metrics.prom"
        write_textfile(out, registry)
        assert parse_exposition(out.read_text()).value("x_total") == 1
        assert list(out.parent.glob("*.tmp.*")) == []
