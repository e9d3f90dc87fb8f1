"""End-to-end server tests: bit-identity, coalescing, hot reload, admission.

The ISSUE's acceptance gates live here:

* served estimates are **bit-identical** to in-process
  ``EstimationSession.estimate_batch`` for every §4.2 estimator + MOLP;
* N concurrent identical cold-shape requests collapse into **one**
  underlying CEG build (coalescer + session counters prove it);
* hot-reloading a tenant's artifact mid-traffic fails **zero** in-flight
  requests;
* admission control sheds (``overloaded``) and enforces deadlines
  (``deadline_exceeded``) with exit-code-3 semantics, and the server
  shuts down cleanly.
"""

import json
import os
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.cli import main
from repro.datasets.presets import running_example_graph
from repro.query.parser import parse_pattern
from repro.server import (
    EstimationClient,
    ServerConfig,
    ServerError,
    ServerUnavailable,
    StoreRegistry,
    ThreadedServer,
    wait_until_ready,
)
from repro.service.session import EstimationSession
from repro.stats import StatsBuildConfig, build_statistics

ALL_SPECS = [
    f"{hop}-{agg}"
    for hop in ("max-hop", "min-hop", "all-hops")
    for agg in ("max", "min", "avg")
] + ["MOLP"]

QUERIES = [
    "a -[A]-> b -[B]-> c",
    "x -[B]-> y -[C]-> z",
    "p -[A]-> q -[B]-> r -[D]-> s",
    "u -[B]-> v, u -[B]-> w",
    "m -[E]-> n",
]


@pytest.fixture(scope="module")
def artifact_dirs(tmp_path_factory):
    base = tmp_path_factory.mktemp("server")
    store = build_statistics(
        running_example_graph(),
        StatsBuildConfig(h=2, molp_h=2),
        dataset_name="example",
    )
    store.save(base / "v1")
    store.save(base / "v2")
    return base


@pytest.fixture(scope="module")
def reference_session(artifact_dirs):
    """The in-process session the server must match bit for bit."""
    from repro.stats import StatisticsStore

    return StatisticsStore.load(artifact_dirs / "v1").session()


@pytest.fixture()
def server(artifact_dirs):
    registry = StoreRegistry()
    registry.load("example", artifact_dirs / "v1")
    with ThreadedServer(
        registry, ServerConfig(port=0, max_inflight=8, queue_limit=16)
    ) as threaded:
        yield threaded


class TestBitIdentity:
    def test_all_estimators_match_in_process_batch(
        self, server, reference_session
    ):
        patterns = [parse_pattern(text) for text in QUERIES]
        batch = reference_session.estimate_batch(patterns, specs=ALL_SPECS)
        with EstimationClient(server.host, server.port) as client:
            for index, text in enumerate(QUERIES):
                result = client.estimate("example", text, ALL_SPECS)
                for spec in ALL_SPECS:
                    cell = batch.item(index, spec)
                    if cell.ok:
                        served = result["estimates"][spec]
                        assert served == cell.estimate, (
                            f"{spec} on {text!r}: served {served!r} != "
                            f"in-process {cell.estimate!r}"
                        )
                    else:
                        assert result["errors"][spec] == cell.error

    def test_renamed_query_serves_identical_floats(self, server):
        with EstimationClient(server.host, server.port) as client:
            first = client.estimate("example", QUERIES[0], ALL_SPECS)
            renamed = client.estimate(
                "example", "q0 -[A]-> q1 -[B]-> q2", ALL_SPECS
            )
        assert first["estimates"] == renamed["estimates"]


class TestErrors:
    def test_unknown_tenant(self, server):
        with EstimationClient(server.host, server.port) as client:
            with pytest.raises(ServerError) as info:
                client.estimate("nope", "a -[A]-> b")
        assert info.value.code == "unknown_tenant"
        assert info.value.exit_code == 2

    def test_malformed_query(self, server):
        with EstimationClient(server.host, server.port) as client:
            with pytest.raises(ServerError) as info:
                client.estimate("example", "a -[A")
        assert info.value.code == "malformed_query"
        assert info.value.exit_code == 2

    def test_unknown_estimator(self, server):
        with EstimationClient(server.host, server.port) as client:
            with pytest.raises(ServerError) as info:
                client.estimate("example", "a -[A]-> b", ["bogus"])
        assert info.value.code == "unknown_estimator"
        assert info.value.exit_code == 2

    def test_unsupported_spec_rejected_up_front(self, server):
        # MOLP-sketch needs the base graph; a graph-free tenant cannot
        # serve it, and the server says so before admitting the request.
        with EstimationClient(server.host, server.port) as client:
            with pytest.raises(ServerError) as info:
                client.estimate("example", "a -[A]-> b", ["MOLP-sketch4"])
        assert info.value.code == "unsupported_spec"

    def test_estimation_failure_rides_in_errors_map(self, server):
        # A disconnected pattern is per-query data trouble (exit 1 in
        # the batch taxonomy), not a request error: the response is ok
        # with the failure in its errors map.
        with EstimationClient(server.host, server.port) as client:
            result = client.estimate(
                "example", "a -[A]-> b, c -[B]-> d", ["max-hop-max"]
            )
        assert result["estimates"] == {}
        assert "max-hop-max" in result["errors"]

    def test_raw_garbage_line_gets_typed_error(self, server):
        with EstimationClient(server.host, server.port) as client:
            response = client.request({"v": 99, "verb": "ping"})
            assert response["ok"] is False
            assert response["error"]["code"] == "unsupported_version"
            # The connection survives a bad request.
            assert client.ping()["pong"] is True

    def test_hostile_frames_get_typed_errors_on_one_connection(self, server):
        """Frames the JSON decoder cannot take (nesting deeper than its
        stack, non-finite numbers) are invalid requests, and the
        connection keeps answering."""
        frames = [
            b"[" * 200_000 + b"]" * 200_000,
            b'{"v": 1, "verb": "estimate", "tenant": "example", '
            b'"query": "a -[A]-> b", "deadline_ms": NaN}',
            b'{"v": 1, "verb": "ping", "id": Infinity}',
        ]
        with socket.create_connection((server.host, server.port), 10) as sock:
            with sock.makefile("rb") as reader:
                for frame in frames:
                    sock.sendall(frame + b"\n")
                    response = json.loads(reader.readline())
                    assert response["ok"] is False
                    assert response["error"]["code"] == "invalid_request"
                    assert response["error"]["exit_code"] == 2
                sock.sendall(b'{"v": 1, "verb": "ping", "id": 5}\n')
                response = json.loads(reader.readline())
        assert response["id"] == 5 and response["result"]["pong"] is True


def _slow_estimate(monkeypatch, seconds):
    """Make every session estimate slow enough to observe concurrency."""
    original = EstimationSession.estimate

    def slowed(self, pattern, spec="max-hop-max"):
        time.sleep(seconds)
        return original(self, pattern, spec)

    monkeypatch.setattr(EstimationSession, "estimate", slowed)


class TestCoalescing:
    def test_concurrent_identical_cold_requests_build_once(
        self, server, monkeypatch
    ):
        _slow_estimate(monkeypatch, 0.25)
        fan_out = 8
        query = "c0 -[C]-> c1 -[D]-> c2"  # cold: unused by other tests
        before_server = server.server.stats_result()
        before_cache = before_server["tenants"]["example"]["cache"]
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
        estimates = {json.dumps(result["estimates"]) for result in results}
        assert len(estimates) == 1, "all callers got the identical estimate"

        after_server = server.server.stats_result()
        after_cache = after_server["tenants"]["example"]["cache"]
        skeleton_builds = (
            after_cache["skeletons"]["misses"]
            - before_cache["skeletons"]["misses"]
        )
        assert skeleton_builds == 1, (
            f"{fan_out} concurrent identical requests must collapse into "
            f"one CEG build, saw {skeleton_builds}"
        )
        coalesced = (
            after_server["coalescer"]["followers"]
            - before_server["coalescer"]["followers"]
        )
        estimate_hits = (
            after_cache["estimates"]["hits"]
            - before_cache["estimates"]["hits"]
        )
        # Every non-leader either coalesced onto the in-flight build or
        # (arriving after it finished) hit the estimate LRU.
        assert coalesced + estimate_hits == fan_out - 1
        assert coalesced >= 1, "the single-flight path was exercised"


class TestHotReload:
    def test_reload_mid_traffic_fails_zero_requests(
        self, server, reference_session
    ):
        patterns = [parse_pattern(text) for text in QUERIES]
        batch = reference_session.estimate_batch(
            patterns, specs=["max-hop-max", "MOLP"]
        )
        expected = {
            text: {
                spec: batch.item(index, spec).estimate
                for spec in ("max-hop-max", "MOLP")
            }
            for index, text in enumerate(QUERIES)
        }
        stop = threading.Event()
        failures: list[str] = []
        generations: set[int] = set()
        completed = [0] * 4

        def hammer(slot):
            with EstimationClient(server.host, server.port) as client:
                position = 0
                while not stop.is_set():
                    text = QUERIES[position % len(QUERIES)]
                    position += 1
                    try:
                        result = client.estimate(
                            "example", text, ["max-hop-max", "MOLP"]
                        )
                    except Exception as error:
                        failures.append(f"{text!r}: {error}")
                        return
                    if result["errors"]:
                        failures.append(f"{text!r}: {result['errors']}")
                        return
                    if result["estimates"] != expected[text]:
                        failures.append(
                            f"{text!r}: {result['estimates']} != "
                            f"{expected[text]}"
                        )
                        return
                    generations.add(result["generation"])
                    completed[slot] += 1

        threads = [
            threading.Thread(target=hammer, args=(slot,)) for slot in range(4)
        ]
        for thread in threads:
            thread.start()
        time.sleep(0.25)
        with EstimationClient(server.host, server.port) as client:
            v2 = client.reload("example", str(server.registry.get("example").path.parent / "v2"))
            assert v2["generation"] == 2
        time.sleep(0.25)
        stop.set()
        for thread in threads:
            thread.join(30)
        assert failures == [], f"in-flight requests failed: {failures[:3]}"
        assert sum(completed) > 0
        assert generations == {1, 2}, (
            "traffic was served by both artifact versions across the swap"
        )


class TestAdmissionControl:
    @pytest.fixture()
    def tiny_server(self, artifact_dirs):
        registry = StoreRegistry()
        registry.load("example", artifact_dirs / "v1")
        with ThreadedServer(
            registry,
            ServerConfig(port=0, max_inflight=1, queue_limit=0),
        ) as threaded:
            yield threaded

    def test_overload_sheds_with_exit_3(self, tiny_server, monkeypatch):
        _slow_estimate(monkeypatch, 0.6)
        first_done = []

        def occupy():
            with EstimationClient(tiny_server.host, tiny_server.port) as client:
                first_done.append(
                    client.estimate("example", "a -[A]-> b", ["max-hop-max"])
                )

        thread = threading.Thread(target=occupy)
        thread.start()
        time.sleep(0.2)  # let the first request occupy the only slot
        with EstimationClient(tiny_server.host, tiny_server.port) as client:
            with pytest.raises(ServerError) as info:
                client.estimate("example", "z -[E]-> w", ["max-hop-max"])
        thread.join(30)
        assert info.value.code == "overloaded"
        assert info.value.exit_code == 3
        assert first_done and first_done[0]["estimates"], (
            "the admitted request still completed"
        )
        stats = tiny_server.server.stats_result()
        assert stats["admission"]["shed_total"] == 1

    def test_deadline_exceeded(self, tiny_server, monkeypatch):
        _slow_estimate(monkeypatch, 0.6)
        with EstimationClient(tiny_server.host, tiny_server.port) as client:
            with pytest.raises(ServerError) as info:
                client.estimate(
                    "example", "a -[A]-> b", ["max-hop-max"], deadline_ms=50
                )
            assert info.value.code == "deadline_exceeded"
            assert info.value.exit_code == 3
            stats = tiny_server.server.stats_result()
            assert stats["admission"]["deadline_exceeded_total"] == 1
            # The worker thread cannot be interrupted: it keeps its
            # admission slot (visible as `abandoned`) until it finishes,
            # so the pool never over-commits behind expired deadlines.
            assert stats["admission"]["abandoned"] == 1
            deadline = time.monotonic() + 10
            while (
                tiny_server.server.stats_result()["admission"]["abandoned"]
                and time.monotonic() < deadline
            ):
                time.sleep(0.05)
            stats = tiny_server.server.stats_result()
            assert stats["admission"]["abandoned"] == 0
            # ...and once the zombie drains, serving resumes normally.
            result = client.estimate("example", "a -[A]-> b", ["max-hop-max"])
            assert result["estimates"]["max-hop-max"] > 0


class TestStatsVerb:
    def test_stats_snapshot_shape(self, server):
        with EstimationClient(server.host, server.port) as client:
            client.estimate("example", "a -[A]-> b", ["max-hop-max", "MOLP"])
            stats = client.stats()
        assert stats["uptime_seconds"] >= 0
        tenant = stats["tenants"]["example"]
        assert tenant["generation"] >= 1
        assert set(tenant["cache"]) == {"skeletons", "estimates"}
        requests = tenant["requests"]
        assert requests["requests"] >= 1
        assert requests["ok"] >= 1
        assert sum(requests["latency_ms"]["buckets"].values()) == (
            requests["requests"]
        )
        admission = stats["admission"]
        assert admission["max_inflight"] == 8
        assert admission["queue_depth"] == 0
        assert {"leaders", "followers", "calls", "in_flight"} <= set(
            stats["coalescer"]
        )
        assert stats["requests"]["by_verb"]["estimate"] >= 1

    def test_reload_failure_is_typed_and_non_fatal(self, server):
        with EstimationClient(server.host, server.port) as client:
            with pytest.raises(ServerError) as info:
                client.reload("example", "/definitely/not/there")
            assert info.value.code == "reload_failed"
            assert info.value.exit_code == 2
            # Serving continues on the old artifact.
            result = client.estimate("example", "a -[A]-> b")
            assert result["estimates"]


class TestShutdown:
    def test_shutdown_verb_drains_cleanly(self, artifact_dirs):
        registry = StoreRegistry()
        registry.load("example", artifact_dirs / "v1")
        threaded = ThreadedServer(registry, ServerConfig(port=0))
        threaded.start()
        with EstimationClient(threaded.host, threaded.port) as client:
            assert client.estimate("example", "a -[A]-> b")["estimates"]
            assert client.shutdown() == {"shutting_down": True}
        threaded._thread.join(30)
        assert not threaded._thread.is_alive(), "server thread exited"
        with pytest.raises(ServerUnavailable):
            with EstimationClient(threaded.host, threaded.port) as client:
                client.ping()

    def test_grace_expiry_sends_typed_shutting_down(self, artifact_dirs):
        """Satellite regression: a request straddling the drain window.

        When the shutdown grace expires with a request still computing,
        its client must receive the typed ``shutting_down`` error (exit
        3) the protocol taxonomy promises — the regression closed the
        socket outright, surfacing as a bare connection reset.
        """
        registry = StoreRegistry()
        registry.load("example", artifact_dirs / "v1")
        entry = registry.get("example")
        original = entry.session.estimate_one

        def slow_estimate(pattern, spec):
            time.sleep(1.5)  # far longer than the grace window below
            return original(pattern, spec)

        entry.session.estimate_one = slow_estimate
        threaded = ThreadedServer(
            registry,
            ServerConfig(port=0, shutdown_grace_seconds=0.2),
        )
        threaded.start()
        outcome: dict = {}

        def straddler():
            try:
                with EstimationClient(
                    threaded.host, threaded.port, timeout=30.0
                ) as client:
                    outcome["result"] = client.estimate(
                        "example", "a -[A]-> b"
                    )
            except ServerError as error:
                outcome["error"] = error
            except ServerUnavailable as error:
                outcome["reset"] = error

        worker = threading.Thread(target=straddler)
        worker.start()
        time.sleep(0.4)  # request is admitted and sleeping in the pool
        threaded.stop()
        worker.join(30)
        assert not worker.is_alive()
        assert "reset" not in outcome, (
            f"in-flight client saw a bare connection reset instead of "
            f"the typed shutting_down error: {outcome.get('reset')}"
        )
        error = outcome.get("error")
        assert error is not None, (
            f"slow request unexpectedly completed: {outcome.get('result')}"
        )
        assert error.code == "shutting_down"
        assert error.exit_code == 3


class TestQueryCli:
    def run_cli(self, capsys, *argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_query_roundtrip(self, capsys, server):
        code, out, _ = self.run_cli(
            capsys,
            "query", "--port", str(server.port), "--tenant", "example",
            "-q", "a -[A]-> b -[B]-> c", "-e", "all9", "-e", "MOLP",
        )
        assert code == 0
        report = json.loads(out)
        assert report["tenant"] == "example"
        assert len(report["estimators"]) == 10
        [result] = report["results"]
        assert set(result["estimates"]) == set(report["estimators"])

    def test_query_unknown_tenant_exits_2(self, capsys, server):
        code, _, err = self.run_cli(
            capsys,
            "query", "--port", str(server.port), "--tenant", "nope",
            "-q", "a -[A]-> b",
        )
        assert code == 2
        assert "unknown_tenant" in err

    def test_query_estimation_failure_exits_1(self, capsys, server):
        code, out, _ = self.run_cli(
            capsys,
            "query", "--port", str(server.port), "--tenant", "example",
            "-q", "a -[A]-> b, c -[B]-> d",
        )
        assert code == 1
        report = json.loads(out)
        assert report["results"][0]["errors"]

    def test_query_dead_server_exits_3(self, capsys, server):
        code, _, err = self.run_cli(
            capsys,
            "query", "--host", "127.0.0.1", "--port", "1",
            "--tenant", "example", "-q", "a -[A]-> b", "--timeout", "2",
        )
        assert code == 3
        assert "cannot connect" in err

    def test_query_stats(self, capsys, server):
        code, out, _ = self.run_cli(
            capsys, "query", "--port", str(server.port), "--stats"
        )
        assert code == 0
        assert "admission" in json.loads(out)

    def test_query_needs_exactly_one_mode(self, capsys, server):
        code, _, err = self.run_cli(
            capsys, "query", "--port", str(server.port)
        )
        assert code == 2
        assert "exactly one" in err


class TestServeCli:
    def test_serve_requires_tenants(self, capsys):
        assert main(["serve"]) == 2
        assert "--tenant" in capsys.readouterr().err

    def test_serve_bad_tenant_spec_exits_2(self, capsys):
        assert main(["serve", "--tenant", "no-equals-sign"]) == 2
        assert "NAME=DIR" in capsys.readouterr().err

    def test_serve_missing_artifact_exits_2(self, capsys, tmp_path):
        # Satellite: a missing artifact directory surfaces as the
        # friendly DatasetError and exit code 2, not a traceback.
        code = main(["serve", "--tenant", f"example={tmp_path / 'nope'}"])
        assert code == 2
        err = capsys.readouterr().err
        assert "does not exist" in err

    def test_serve_subprocess_end_to_end(self, artifact_dirs):
        """`repro serve` as a real process: ready line, query, shutdown."""
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--tenant", f"example={artifact_dirs / 'v1'}", "--port", "0"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env={
                **os.environ,
                "PYTHONPATH": str(
                    Path(__file__).resolve().parent.parent / "src"
                ),
            },
        )
        try:
            ready = json.loads(process.stdout.readline())
            assert ready["event"] == "ready"
            assert ready["tenants"] == ["example"]
            port = ready["port"]
            wait_until_ready("127.0.0.1", port, timeout=30)
            with EstimationClient("127.0.0.1", port) as client:
                result = client.estimate("example", "a -[A]-> b", ["MOLP"])
                assert result["estimates"]["MOLP"] > 0
                client.shutdown()
            assert process.wait(timeout=30) == 0, "clean exit after shutdown"
            assert json.loads(process.stdout.readline())["event"] == "stopped"
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=10)
