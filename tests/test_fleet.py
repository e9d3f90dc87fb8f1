"""Fleet tests: consistent hashing, restart catch-up, chaos under load.

The tentpole's acceptance surface:

* the consistent-hash tenant assignment is deterministic across
  processes and moves few tenants when the fleet resizes;
* ``StoreRegistry.refresh_if_stale`` converges a fork-time registry
  snapshot with delta batches applied on disk since (the restarted
  worker's catch-up path);
* a live ``repro serve --workers N`` fleet answers the ``fleet`` verb,
  routes by tenant affinity, fans control verbs out, and aggregates
  ``stats``;
* chaos: SIGKILL one worker under concurrent load — the supervisor
  restarts it, no request is silently lost (each either succeeds or
  fails with a typed transient), and post-restart floats stay
  bit-identical to the in-process session;
* SIGTERM drains the whole fleet cleanly with empty stderr.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.datasets.presets import running_example_graph
from repro.delta import UpdateBatch, apply_updates
from repro.query.parser import parse_pattern
from repro.server import (
    FleetClient,
    FleetSupervisor,
    ServerConfig,
    ServerError,
    ServerUnavailable,
    StoreRegistry,
    assign_tenants,
    wait_until_ready,
)
from repro.service.session import EstimatorSpec
from repro.stats import StatisticsStore, StatsBuildConfig, build_statistics

SRC = Path(__file__).resolve().parent.parent / "src"

ALL_SPECS = [
    f"{hop}-{agg}"
    for hop in ("max-hop", "min-hop", "all-hops")
    for agg in ("max", "min", "avg")
] + ["MOLP"]

QUERIES = [
    "a -[A]-> b -[B]-> c",
    "x -[B]-> y -[C]-> z",
    "u -[B]-> v, u -[B]-> w",
]


# ----------------------------------------------------------------------
# Consistent hashing (pure functions, no processes)
# ----------------------------------------------------------------------
class TestAssignment:
    def test_deterministic_and_in_range(self):
        tenants = [f"tenant-{i}" for i in range(50)]
        first = assign_tenants(tenants, 4)
        second = assign_tenants(tenants, 4)
        assert first == second, "assignment must be stable across calls"
        assert set(first) == set(tenants)
        assert all(0 <= index < 4 for index in first.values())

    def test_spreads_tenants_across_workers(self):
        tenants = [f"tenant-{i}" for i in range(64)]
        assignment = assign_tenants(tenants, 4)
        owners = set(assignment.values())
        assert owners == {0, 1, 2, 3}, (
            f"64 tenants landed on only {sorted(owners)} of 4 workers"
        )

    def test_resize_moves_a_minority(self):
        tenants = [f"tenant-{i}" for i in range(200)]
        before = assign_tenants(tenants, 4)
        after = assign_tenants(tenants, 5)
        moved = sum(1 for t in tenants if before[t] != after[t])
        # Naive modulo hashing moves ~4/5 of tenants; the ring should
        # move roughly the 1/5 arc the new worker takes over.
        assert moved < len(tenants) // 2, (
            f"{moved}/{len(tenants)} tenants moved on a 4→5 resize"
        )

    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            assign_tenants(["a"], 0)


# ----------------------------------------------------------------------
# Listener sockets
# ----------------------------------------------------------------------
def test_fleet_listener_connections_run_with_nodelay():
    """Accepted fleet connections get TCP_NODELAY, like ``start_server``.

    asyncio enables TCP_NODELAY only on sockets whose proto is TCP, and
    an accepted socket inherits its listener's proto.
    """
    supervisor = FleetSupervisor(StoreRegistry(), ServerConfig(), workers=1)
    listener = supervisor._bind_listener(0, reuseport=False)
    port = listener.getsockname()[1]

    async def accepted_nodelay() -> int:
        seen: asyncio.Future = asyncio.get_running_loop().create_future()

        async def handle(reader, writer):
            sock = writer.get_extra_info("socket")
            seen.set_result(
                sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
            )
            writer.close()

        server = await asyncio.start_server(handle, sock=listener)
        async with server:
            _, writer = await asyncio.open_connection("127.0.0.1", port)
            value = await asyncio.wait_for(seen, timeout=10)
            writer.close()
            return value

    try:
        assert asyncio.run(accepted_nodelay()) != 0
    finally:
        listener.close()


# ----------------------------------------------------------------------
# Restart catch-up: refresh_if_stale
# ----------------------------------------------------------------------
@pytest.fixture()
def artifact_dir(tmp_path):
    store = build_statistics(
        running_example_graph(),
        StatsBuildConfig(h=2, molp_h=2),
        dataset_name="example",
    )
    store.save(tmp_path / "art")
    return tmp_path / "art"


BATCH = UpdateBatch(
    [["+", 0, 5, "B"], ["-", 3, 5, "B"], ["+", 6, 8, "C"]]
)


def apply_batch_offline(artifact_dir):
    """What ``repro updates apply`` does, in-process for speed."""
    store = StatisticsStore.load(artifact_dir, graph=running_example_graph())
    return apply_updates(
        store, BATCH, directory=artifact_dir, compact_threshold=100.0
    )


class TestRefreshIfStale:
    def test_noop_when_artifact_unchanged(self, artifact_dir):
        registry = StoreRegistry()
        entry = registry.load("example", artifact_dir)
        refreshed, applied = registry.refresh_if_stale("example")
        assert applied == 0
        assert refreshed is entry

    def test_catches_up_with_on_disk_deltas(self, artifact_dir):
        # A restarted worker's registry is the fork-time snapshot; the
        # artifact on disk may have absorbed delta batches meanwhile.
        registry = StoreRegistry()
        old = registry.load("example", artifact_dir)
        apply_batch_offline(artifact_dir)
        refreshed, applied = registry.refresh_if_stale("example")
        assert applied == 1
        assert refreshed.generation == old.generation + 1
        assert refreshed.store.manifest.generation == 1

    def test_unknown_tenant_raises(self, artifact_dir):
        from repro.errors import DatasetError

        registry = StoreRegistry()
        with pytest.raises(DatasetError):
            registry.refresh_if_stale("nope")


# ----------------------------------------------------------------------
# Live fleets (subprocess `repro serve --workers N`)
# ----------------------------------------------------------------------
class FleetProcess:
    """A ``repro serve --workers N`` subprocess plus its event stream."""

    def __init__(
        self,
        artifact_dir: Path,
        workers: int = 2,
        extra_args: list[str] | None = None,
    ):
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--tenant", f"t1={artifact_dir}",
                "--tenant", f"t2={artifact_dir}",
                "--port", "0",
                "--workers", str(workers),
                *(extra_args or []),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": str(SRC)},
            text=True,
        )
        self.events: list[dict] = []
        self._events_lock = threading.Lock()
        self._reader = threading.Thread(target=self._read_events, daemon=True)
        self._reader.start()
        self.ready = self.wait_event(lambda e: e["event"] == "ready", 60.0)
        self.host = self.ready["host"]
        self.port = self.ready["port"]
        wait_until_ready(self.host, self.port, timeout=30.0)

    def _read_events(self) -> None:
        assert self.proc.stdout is not None
        for line in self.proc.stdout:
            line = line.strip()
            if not line:
                continue
            with self._events_lock:
                self.events.append(json.loads(line))

    def wait_event(self, predicate, timeout: float) -> dict:
        deadline = time.monotonic() + timeout
        seen = 0
        while time.monotonic() < deadline:
            with self._events_lock:
                fresh = self.events[seen:]
                seen = len(self.events)
            for event in fresh:
                if predicate(event):
                    return event
            if self.proc.poll() is not None and seen == len(self.events):
                break
            time.sleep(0.02)
        raise AssertionError(
            f"fleet event did not arrive within {timeout}s; "
            f"saw {self.events}, rc={self.proc.poll()}"
        )

    def worker_pids(self) -> dict[int, int]:
        """Current pid per worker index, restart events applied."""
        pids = {w["index"]: w["pid"] for w in self.ready["workers"]}
        with self._events_lock:
            for event in self.events:
                if event["event"] == "worker-started":
                    pids[event["index"]] = event["pid"]
        return pids

    def finish(self, timeout: float = 30.0) -> tuple[int, str]:
        """Wait for exit; returns (returncode, stderr)."""
        self.proc.wait(timeout=timeout)
        self._reader.join(5.0)
        stderr = self.proc.stderr.read() if self.proc.stderr else ""
        return self.proc.returncode, stderr

    def cleanup(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=5)
        if self.proc.stdout:
            self.proc.stdout.close()
        if self.proc.stderr:
            self.proc.stderr.close()


@pytest.fixture()
def fleet(artifact_dir):
    fleet = FleetProcess(artifact_dir, workers=2)
    yield fleet
    fleet.cleanup()


@pytest.fixture()
def reference_session(artifact_dir):
    return StatisticsStore.load(artifact_dir).session()


class TestFleetServing:
    def test_topology_and_affinity_routing(self, fleet, reference_session):
        patterns = [parse_pattern(text) for text in QUERIES]
        batch = reference_session.estimate_batch(patterns, specs=ALL_SPECS)
        with FleetClient(fleet.host, fleet.port) as client:
            info = client.fleet()
            assert info["fleet"] is True
            assert len(info["workers"]) == 2
            assert set(info["assignment"]) == {"t1", "t2"}
            # Every estimate, on both tenants, bit-identical in-process.
            for tenant in ("t1", "t2"):
                for index, text in enumerate(QUERIES):
                    served = client.estimate(tenant, text, ALL_SPECS)
                    for spec in ALL_SPECS:
                        cell = batch.item(index, spec)
                        if cell.ok:
                            assert served["estimates"][spec] == cell.estimate
                        else:
                            assert served["errors"][spec] == cell.error
            # stats fans out and aggregates: both workers report, and
            # each tenant's requests were counted on its home worker.
            stats = client.stats()
            assert stats["fleet"] is True
            aggregate = stats["aggregate"]
            assert aggregate["workers_reporting"] == 2
            for tenant in ("t1", "t2"):
                per_tenant = aggregate["tenants"][tenant]
                assert per_tenant["requests"] == len(QUERIES)
                assert per_tenant["ok"] == len(QUERIES)
                assert per_tenant["owner"] == info["assignment"][tenant]

    def test_scope_local_pins_to_one_worker(self, fleet):
        from repro.server import EstimationClient, protocol

        with EstimationClient(fleet.host, fleet.port) as client:
            response = client.request(
                {
                    "v": protocol.PROTOCOL_VERSION,
                    "verb": "stats",
                    "scope": "local",
                }
            )
            assert response["ok"]
            result = response["result"]
            # A local stats answer is one worker's flat snapshot, not
            # the fanned wrapper — the guard that fan-out cannot recurse.
            assert "fleet" not in result
            assert "admission" in result
            assert result["worker"]["index"] in (0, 1)

    def test_apply_deltas_fans_to_every_worker(self, fleet, artifact_dir):
        apply_batch_offline(artifact_dir)
        with FleetClient(fleet.host, fleet.port) as client:
            outcome = client.apply_deltas("t1")
            assert outcome["fleet"] is True
            assert outcome["ok"] is True
            assert len(outcome["workers"]) == 2
            for slot in outcome["workers"].values():
                assert slot["ok"], slot
                assert slot["result"]["applied"] == 1
                assert slot["result"]["artifact_generation"] == 1

    def test_stats_aggregate_key_tree_is_pinned_and_matches_metrics(
        self, fleet
    ):
        from repro.obs import parse_exposition
        from repro.server import EstimationClient

        with FleetClient(fleet.host, fleet.port) as client:
            for tenant in ("t1", "t2"):
                client.estimate(tenant, QUERIES[0], ["max-hop-max", "MOLP"])
        with EstimationClient(fleet.host, fleet.port) as client:
            stats = client.stats()
            merged = parse_exposition(client.metrics()["exposition"])
        aggregate = stats["aggregate"]
        # Key tree and JSON value types as the aggregate has always had
        # them; publishes/attaches stay (always 0) because perfbench
        # reads them.
        tenant_tree = dict.fromkeys(
            ["requests", "ok", "owner", "generation"], "int"
        )
        assert _key_tree(aggregate) == {
            "workers_reporting": "int",
            "by_verb": dict.fromkeys(
                ["estimate", "fleet", "ping", "stats"], "int"
            ),
            "tenants": {"t1": tenant_tree, "t2": tenant_tree},
            "artifact_plane": dict.fromkeys(
                ["disk_parses", "publishes", "attaches"], "int"
            ),
            "memory": dict.fromkeys(
                ["uss_kb_total", "uss_kb_max", "rss_kb_max"], "float"
            ),
            "requests_total": "int",
            "shed_total": "int",
            "deadline_exceeded_total": "int",
            "abandoned": "int",
        }
        assert aggregate["workers_reporting"] == 2
        assert aggregate["artifact_plane"]["publishes"] == 0
        assert aggregate["artifact_plane"]["attaches"] == 0
        # One source of truth across processes: the summed stats agree
        # with the merged exposition.
        assert aggregate["by_verb"]["estimate"] == 2 == merged.value(
            "repro_requests_total", verb="estimate"
        )
        for tenant in ("t1", "t2"):
            assert aggregate["tenants"][tenant]["ok"] == 1 == merged.value(
                "repro_tenant_ok_total", tenant=tenant
            )
        assert aggregate["requests_total"] == sum(
            aggregate["by_verb"].values()
        )


def _key_tree(value):
    """A JSON value's keys, recursively, with each leaf's type name."""
    if isinstance(value, dict):
        return {key: _key_tree(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_key_tree(item) for item in value[:1]]
    return type(value).__name__


class TestFleetChaos:
    def test_sigkill_under_load_restarts_and_loses_nothing(
        self, fleet, reference_session
    ):
        """The chaos satellite: kill -9 one worker mid-traffic."""
        outcomes: list[tuple[str, object]] = []
        outcomes_lock = threading.Lock()
        stop = threading.Event()

        def hammer(tenant: str) -> None:
            with FleetClient(fleet.host, fleet.port, timeout=10.0) as client:
                while not stop.is_set():
                    try:
                        result = client.estimate(tenant, QUERIES[0])
                        record = ("ok", result["estimates"]["max-hop-max"])
                    except ServerError as error:
                        record = ("server_error", error)
                    except ServerUnavailable as error:
                        record = ("unavailable", error)
                    with outcomes_lock:
                        outcomes.append(record)

        threads = [
            threading.Thread(target=hammer, args=(tenant,))
            for tenant in ("t1", "t2")
            for _ in range(2)
        ]
        for thread in threads:
            thread.start()
        try:
            time.sleep(0.5)  # load is flowing
            victim = fleet.worker_pids()[0]
            os.kill(victim, signal.SIGKILL)
            restarted = fleet.wait_event(
                lambda e: e["event"] == "worker-started" and e["index"] == 0,
                30.0,
            )
            assert restarted["pid"] != victim
            time.sleep(1.0)  # traffic over the restarted worker too
        finally:
            stop.set()
            for thread in threads:
                thread.join(30.0)
        exited = fleet.wait_event(
            lambda e: e["event"] == "worker-exited" and e["index"] == 0, 5.0
        )
        assert exited["exitcode"] not in (0, None)
        # No request silently lost: every outcome is a success or a
        # typed transient (exit-code-3 taxonomy) — never a wrong float,
        # an untyped error, or a hang.
        assert outcomes, "load generators recorded nothing"
        reference = reference_session.estimate_one(
            parse_pattern(QUERIES[0]),
            EstimatorSpec.from_name("max-hop-max"),
        ).estimate
        failures = []
        for kind, value in outcomes:
            if kind == "ok":
                if value != reference:
                    failures.append(f"wrong float {value!r}")
            elif kind == "server_error":
                if value.exit_code != 3:
                    failures.append(f"non-transient error {value}")
            # "unavailable" is the typed transient transport failure.
        assert not failures, failures[:5]
        ok_count = sum(1 for kind, _ in outcomes if kind == "ok")
        assert ok_count > 0, "no request succeeded under chaos"
        # Post-restart, the full fleet reports again and the restarted
        # worker serves bit-identical floats (asserted via `reference`
        # above for every post-kill success).
        with FleetClient(fleet.host, fleet.port) as client:
            stats = client.stats()
            assert stats["aggregate"]["workers_reporting"] == 2

    def test_sigterm_drains_fleet_cleanly(self, fleet):
        with FleetClient(fleet.host, fleet.port) as client:
            assert client.estimate("t1", QUERIES[0])["estimates"]
        fleet.proc.send_signal(signal.SIGTERM)
        fleet.wait_event(lambda e: e["event"] == "stopped", 30.0)
        returncode, stderr = fleet.finish()
        assert returncode == 0
        assert stderr == ""

    def test_shutdown_verb_stops_every_worker(self, fleet):
        with FleetClient(fleet.host, fleet.port) as client:
            outcome = client.shutdown()
            assert outcome["fleet"] is True
            assert outcome["ok"] is True
        fleet.wait_event(lambda e: e["event"] == "stopped", 30.0)
        returncode, stderr = fleet.finish()
        assert returncode == 0
        assert stderr == ""


# ----------------------------------------------------------------------
# Fleet observability: metrics fan-out + trace-id propagation
# ----------------------------------------------------------------------
@pytest.fixture()
def traced_fleet(artifact_dir, tmp_path):
    trace_log = tmp_path / "fleet-trace.ndjson"
    fleet = FleetProcess(
        artifact_dir, workers=2, extra_args=["--trace-log", str(trace_log)]
    )
    yield fleet, trace_log
    fleet.cleanup()


class TestFleetObservability:
    def test_metrics_fan_out_merges_worker_counters(self, traced_fleet):
        from repro.obs import parse_exposition
        from repro.server import EstimationClient

        fleet, _trace_log = traced_fleet
        with FleetClient(fleet.host, fleet.port) as client:
            for tenant in ("t1", "t2"):
                for text in QUERIES:
                    client.estimate(tenant, text, ALL_SPECS)
        with EstimationClient(fleet.host, fleet.port) as client:
            result = client.metrics()
        assert result["fleet"] is True
        assert result["format"] == "prometheus-text-0.0.4"
        assert len(result["workers"]) == 2
        merged = parse_exposition(result["exposition"])
        slots = [
            parse_exposition(slot["result"]["exposition"])
            for slot in result["workers"].values()
            if slot.get("ok")
        ]
        assert len(slots) == 2
        # Fleet-wide counters are exactly the sum of per-worker scrapes.
        for tenant in ("t1", "t2"):
            per_worker = sum(
                slot.value("repro_tenant_requests_total", tenant=tenant)
                for slot in slots
            )
            assert per_worker == len(QUERIES)
            assert (
                merged.value("repro_tenant_requests_total", tenant=tenant)
                == per_worker
            )
            assert (
                merged.value(
                    "repro_request_latency_ms_count", tenant=tenant
                )
                == per_worker
            )
        assert merged.value(
            "repro_requests_total", verb="estimate"
        ) == sum(
            slot.value("repro_requests_total", verb="estimate")
            for slot in slots
        )
        # Gauges have no meaningful fleet-wide sum and stay per-worker.
        assert merged.family("repro_admission_queue_depth") == {}
        assert all(
            ("repro_admission_queue_depth", ()) in slot.samples
            for slot in slots
        )

    def test_one_trace_id_spans_routing_and_fanned_workers(
        self, traced_fleet
    ):
        from repro.server import EstimationClient, protocol

        fleet, trace_log = traced_fleet
        trace_id = "fleet-fanout-trace-1"
        with EstimationClient(fleet.host, fleet.port) as client:
            response = client.request(
                {
                    "v": protocol.PROTOCOL_VERSION,
                    "verb": "stats",
                    "trace_id": trace_id,
                }
            )
        assert response["ok"]
        assert response["result"]["trace_id"] == trace_id
        deadline = time.monotonic() + 15.0
        pids: set[int] = set()
        while time.monotonic() < deadline and len(pids) < 2:
            if trace_log.exists():
                pids = {
                    record["pid"]
                    for record in (
                        json.loads(line)
                        for line in trace_log.read_text().splitlines()
                    )
                    if record["trace_id"] == trace_id
                }
            time.sleep(0.05)
        # The routing worker and the fanned-out peer each logged the
        # same trace id from their own process.
        assert len(pids) == 2, (
            f"expected trace {trace_id!r} from 2 worker pids, got {pids}"
        )

    def test_estimate_traces_carry_worker_identity(self, traced_fleet):
        fleet, trace_log = traced_fleet
        with FleetClient(fleet.host, fleet.port) as client:
            result = client.estimate("t1", QUERIES[0], ALL_SPECS)
        assert result["trace_id"]
        deadline = time.monotonic() + 15.0
        record = None
        while time.monotonic() < deadline and record is None:
            if trace_log.exists():
                for line in trace_log.read_text().splitlines():
                    candidate = json.loads(line)
                    if candidate["trace_id"] == result["trace_id"]:
                        record = candidate
                        break
            time.sleep(0.05)
        assert record is not None, "estimate trace never reached the log"
        assert record["worker"] in (0, 1)
        assert record["tenant"] == "t1"
        names = {span["name"] for span in record["spans"]}
        assert {"store_lookup", "cache_probe", "queue", "exec"} <= names
