"""Open-loop load generator for the multi-tenant estimation server.

Three phases against an in-process :class:`repro.server.ThreadedServer`
serving the ``example`` artifact (the serving tier's overhead — wire
protocol, admission, coalescing — is what's measured; estimator cost is
covered by the engine/service benches):

1. **Identity sweep** — every shape in the pool is served once per
   estimator (all nine §4.2 heuristics + MOLP) and must be bit-identical
   to in-process ``EstimationSession.estimate_batch`` on the same
   artifact.  This is an acceptance gate, asserted on every run.
2. **Coalesce probe** — the tenant is hot-reloaded (fresh caches) and N
   concurrent identical requests race onto a cold shape: the session's
   skeleton-cache counters must show exactly **one** CEG build, with the
   other N-1 callers either coalesced in flight or served from the LRU.
3. **Open-loop load** — requests arrive on a fixed schedule (arrival
   times independent of completions, so client-side queueing counts
   against latency like a real overloaded service), shapes drawn from a
   Zipf-skewed popularity distribution with fresh variable names per
   arrival, estimators from a weighted mix.  Every response is verified
   bit-identical; throughput and latency percentiles land in
   ``BENCH_server.json``.

Runs standalone: ``python benchmarks/bench_server_load.py [--quick]
[--json PATH]``.

**Fleet mode** (``--workers N``) re-runs the acceptance surface against
a real ``repro serve --workers N`` subprocess fleet: the bit-identity
sweep is asserted against *every worker's* direct port, the open-loop
phase routes tenant-affine traffic through :class:`FleetClient` at 4×
the committed single-process target (`BENCH_server.json`), and a
``/proc/<pid>/smaps_rollup`` probe verifies the copy-on-write artifact
sharing: per-worker unique RSS for N workers must stay ≤ 1.5× a single
worker's.  Two phases exercise post-fork generations, which every
worker memory-maps from the same immutable image file:

* **Reload storm** — while open-loop traffic runs, new generation
  images are published into the served artifact directory and every
  tenant is swapped onto each one.  p99 during the storm stays bounded,
  and every response remains bit-identical across the swaps.
* **Post-reload USS probe** — per-worker unique memory after a reload
  fan-out at N workers must stay ≤ 1.2× the single-worker figure:
  a reload that re-parsed privately per worker would multiply it by N.

After the last drain a leaked-files check requires every artifact
directory to hold at most two ``gen-*`` images and no staging
directories, and nothing new under ``/dev/shm``.  Results land in
``BENCH_fleet.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import queue
import random
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from repro.datasets.presets import running_example_graph  # noqa: E402
from repro.query.parser import parse_pattern  # noqa: E402
from repro.server import (  # noqa: E402
    EstimationClient,
    FleetClient,
    ServerConfig,
    StoreRegistry,
    ThreadedServer,
    wait_until_ready,
)
from repro.stats import (  # noqa: E402
    StatisticsStore,
    StatsBuildConfig,
    build_statistics,
)

ALL_SPECS = [
    f"{hop}-{agg}"
    for hop in ("max-hop", "min-hop", "all-hops")
    for agg in ("max", "min", "avg")
] + ["MOLP"]

#: (weight, estimator) mix for the load phase: mostly the paper's
#: recommended point, some pessimistic bounds, a slower heuristic tail.
ESTIMATOR_MIX = [(0.7, "max-hop-max"), (0.2, "MOLP"), (0.1, "all-hops-avg")]

SHAPE_TEMPLATES = [
    "{0} -[A]-> {1}",
    "{0} -[B]-> {1}",
    "{0} -[C]-> {1}",
    "{0} -[D]-> {1}",
    "{0} -[E]-> {1}",
    "{0} -[A]-> {1} -[B]-> {2}",
    "{0} -[B]-> {1} -[C]-> {2}",
    "{0} -[B]-> {1} -[D]-> {2}",
    "{0} -[B]-> {1} -[E]-> {2}",
    "{0} -[A]-> {1} -[B]-> {2} -[C]-> {3}",
    "{0} -[A]-> {1} -[B]-> {2} -[D]-> {3}",
    "{0} -[A]-> {1} -[B]-> {2} -[E]-> {3}",
    "{0} -[B]-> {1}, {0} -[B]-> {2}",
    "{0} -[A]-> {1}, {2} -[A]-> {1}",
    "{0} -[C]-> {1}, {0} -[D]-> {2}",
    "{0} -[A]-> {1} -[B]-> {2}, {1} -[B]-> {3}",
]


def shape_text(template: str, salt: int) -> str:
    """Instantiate a template with salted variable names (same shape)."""
    return template.format(
        f"u{salt}", f"v{salt}", f"w{salt}", f"x{salt}"
    )


def zipf_ranks(rng: random.Random, count: int, size: int, s: float = 1.1):
    """``count`` Zipf(s)-distributed ranks in [0, size)."""
    weights = [1.0 / (rank + 1) ** s for rank in range(size)]
    total = sum(weights)
    cumulative = []
    acc = 0.0
    for weight in weights:
        acc += weight / total
        cumulative.append(acc)
    ranks = []
    for _ in range(count):
        point = rng.random()
        for rank, bound in enumerate(cumulative):
            if point <= bound:
                ranks.append(rank)
                break
        else:  # pragma: no cover - float edge
            ranks.append(size - 1)
    return ranks


def pick_estimator(rng: random.Random) -> str:
    point = rng.random()
    acc = 0.0
    for weight, name in ESTIMATOR_MIX:
        acc += weight
        if point <= acc:
            return name
    return ESTIMATOR_MIX[-1][1]


def percentile(sorted_values: list[float], fraction: float) -> float:
    if not sorted_values:
        return float("nan")
    index = min(
        int(fraction * len(sorted_values)), len(sorted_values) - 1
    )
    return sorted_values[index]


def build_artifacts(base: Path) -> tuple[Path, Path]:
    store = build_statistics(
        running_example_graph(),
        StatsBuildConfig(h=2, molp_h=2),
        dataset_name="example",
    )
    return store.save(base / "v1"), store.save(base / "v2")


def expected_estimates(artifact: Path) -> dict[str, dict[str, float | None]]:
    """In-process reference values per (template, spec) — the truth."""
    session = StatisticsStore.load(artifact).session()
    patterns = [
        parse_pattern(shape_text(template, 0)) for template in SHAPE_TEMPLATES
    ]
    batch = session.estimate_batch(patterns, specs=ALL_SPECS, max_workers=1)
    return {
        template: {
            spec: batch.item(index, spec).estimate for spec in ALL_SPECS
        }
        for index, template in enumerate(SHAPE_TEMPLATES)
    }


def identity_sweep(host, port, expected) -> int:
    """Phase 1: every (shape, spec) served once, asserted bit-identical."""
    checked = 0
    with EstimationClient(host, port) as client:
        for template, per_spec in expected.items():
            result = client.estimate(
                "example", shape_text(template, 1), ALL_SPECS
            )
            for spec, value in per_spec.items():
                if value is None:
                    assert spec in result["errors"], (template, spec)
                else:
                    served = result["estimates"][spec]
                    assert served == value, (
                        f"served {served!r} != in-process {value!r} "
                        f"for {template!r} under {spec}"
                    )
                checked += 1
    return checked


def coalesce_probe(threaded: ThreadedServer, v2: Path, fan_out: int) -> dict:
    """Phase 2: N concurrent identical cold requests -> one CEG build."""
    with EstimationClient(threaded.host, threaded.port) as client:
        client.reload("example", str(v2))  # fresh session, cold caches
    server = threaded.server
    before = server.stats_result()
    cache_before = before["tenants"]["example"]["cache"]
    barrier = threading.Barrier(fan_out)
    results = []
    results_lock = threading.Lock()

    def fire():
        with EstimationClient(threaded.host, threaded.port) as client:
            barrier.wait(10)
            result = client.estimate(
                "example",
                shape_text(SHAPE_TEMPLATES[-1], 9),
                ["all-hops-avg"],
            )
            with results_lock:
                results.append(result["estimates"]["all-hops-avg"])

    threads = [threading.Thread(target=fire) for _ in range(fan_out)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(60)
    after = server.stats_result()
    cache_after = after["tenants"]["example"]["cache"]
    skeleton_builds = (
        cache_after["skeletons"]["misses"] - cache_before["skeletons"]["misses"]
    )
    followers = (
        after["coalescer"]["followers"] - before["coalescer"]["followers"]
    )
    lru_hits = (
        cache_after["estimates"]["hits"] - cache_before["estimates"]["hits"]
    )
    assert len(results) == fan_out and len(set(results)) == 1, (
        "every concurrent caller must receive the identical estimate"
    )
    assert skeleton_builds == 1, (
        f"{fan_out} concurrent identical cold requests must collapse into "
        f"one CEG build; session counters saw {skeleton_builds}"
    )
    assert followers + lru_hits == fan_out - 1
    return {
        "fan_out": fan_out,
        "skeleton_builds": skeleton_builds,
        "coalesced_followers": followers,
        "estimate_lru_hits": lru_hits,
    }


def open_loop_load(
    host: str,
    port: int,
    expected: dict,
    requests: int,
    rate: float,
    workers: int,
    seed: int,
    tenants: tuple[str, ...] = ("example",),
    make_client=None,
) -> dict:
    """Phase 3: fixed arrival schedule, Zipf shape mix, verified responses.

    ``tenants`` round-robins arrivals across tenant names (the fleet
    mode's scale-out axis — affinity routing spreads them over
    workers); ``make_client`` swaps the per-thread client factory
    (:class:`FleetClient` in fleet mode).
    """
    rng = random.Random(seed)
    ranks = zipf_ranks(rng, requests, len(SHAPE_TEMPLATES))
    schedule = [
        (
            arrival / rate,
            SHAPE_TEMPLATES[rank],
            pick_estimator(rng),
            arrival,
        )
        for arrival, rank in enumerate(ranks)
    ]
    work: queue.Queue = queue.Queue()
    for item in schedule:
        work.put(item)
    if make_client is None:
        def make_client():
            return EstimationClient(host, port)
    latencies: list[float] = []
    mismatches: list[str] = []
    errors: list[str] = []
    lock = threading.Lock()
    start_gate = threading.Event()
    epoch: list[float] = []

    def worker():
        with make_client() as client:
            start_gate.wait(10)
            while True:
                try:
                    offset, template, estimator, salt = work.get_nowait()
                except queue.Empty:
                    return
                now = time.perf_counter()
                wake = epoch[0] + offset
                if wake > now:
                    time.sleep(wake - now)
                try:
                    result = client.estimate(
                        tenants[salt % len(tenants)],
                        shape_text(template, salt),
                        [estimator],
                    )
                except Exception as error:
                    with lock:
                        errors.append(f"{template!r}: {error}")
                    continue
                done = time.perf_counter()
                value = result["estimates"].get(estimator)
                reference = expected[template][estimator]
                if value != reference:
                    with lock:
                        mismatches.append(
                            f"{template!r} {estimator}: {value!r} != "
                            f"{reference!r}"
                        )
                with lock:
                    # Open-loop latency: measured from the *scheduled*
                    # arrival, so backlog waits count against us.
                    latencies.append(done - (epoch[0] + offset))

    threads = [threading.Thread(target=worker) for _ in range(workers)]
    for thread in threads:
        thread.start()
    epoch.append(time.perf_counter())
    start_gate.set()
    for thread in threads:
        thread.join(300)
    elapsed = time.perf_counter() - epoch[0]
    assert not errors, f"load phase hit request errors: {errors[:3]}"
    assert not mismatches, (
        f"served estimates diverged from in-process: {mismatches[:3]}"
    )
    assert len(latencies) == requests
    latencies.sort()
    return {
        "requests": requests,
        "target_rate_rps": rate,
        "workers": workers,
        "duration_seconds": elapsed,
        "throughput_rps": requests / elapsed,
        "latency_ms": {
            "p50": percentile(latencies, 0.50) * 1000,
            "p90": percentile(latencies, 0.90) * 1000,
            "p99": percentile(latencies, 0.99) * 1000,
            "max": latencies[-1] * 1000,
        },
        "zipf_s": 1.1,
        "estimator_mix": {name: weight for weight, name in ESTIMATOR_MIX},
    }


def run(quick: bool = False) -> dict:
    requests = 400 if quick else 4000
    rate = 400.0 if quick else 800.0
    workers = 8 if quick else 16
    fan_out = 8 if quick else 16
    with tempfile.TemporaryDirectory(prefix="bench-server-") as tmp:
        v1, v2 = build_artifacts(Path(tmp))
        expected = expected_estimates(v1)
        registry = StoreRegistry()
        registry.load("example", v1)
        config = ServerConfig(
            port=0, max_inflight=8, queue_limit=max(requests, 128)
        )
        with ThreadedServer(registry, config) as threaded:
            host, port = threaded.host, threaded.port
            cells = identity_sweep(host, port, expected)
            coalesce = coalesce_probe(threaded, v2, fan_out)
            load = open_loop_load(
                host, port, expected, requests, rate, workers, seed=7
            )
            stats = threaded.server.stats_result()
    ok = (
        coalesce["skeleton_builds"] == 1
        and stats["admission"]["shed_total"] == 0
        and load["throughput_rps"] > 0
    )
    return {
        "benchmark": "server_load",
        "mode": "quick" if quick else "full",
        "identity_cells_verified": cells,
        "all_bit_identical": True,  # asserted above, every run
        "coalesce": coalesce,
        "load": load,
        "admission": stats["admission"],
        "coalescer_totals": stats["coalescer"],
        "ok": ok,
    }


# ----------------------------------------------------------------------
# Fleet mode (--workers N): subprocess fleet, COW memory, 4x target
# ----------------------------------------------------------------------

#: Tenants registered in fleet mode (all serving the same artifact, so
#: one in-process reference covers them all).  Multiple names matter:
#: the consistent-hash router spreads *tenants*, not connections, so a
#: single tenant would pin the whole load on one worker.
FLEET_TENANTS = ("example", "tenant-b", "tenant-c", "tenant-d")


class FleetUnderTest:
    """A ``repro serve --workers N`` subprocess and its ready map."""

    def __init__(
        self,
        artifact: Path,
        workers: int,
        queue_limit: int = 128,
    ):
        command = [
            sys.executable, "-m", "repro", "serve",
            "--port", "0",
            "--workers", str(workers),
            "--queue-limit", str(queue_limit),
        ]
        for tenant in FLEET_TENANTS:
            command += ["--tenant", f"{tenant}={artifact}"]
        self.proc = subprocess.Popen(
            command,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": str(SRC)},
            text=True,
        )
        ready_line = self.proc.stdout.readline()
        if not ready_line:
            raise RuntimeError(
                f"fleet failed to start: {self.proc.stderr.read()}"
            )
        self.ready = json.loads(ready_line)
        self.host = self.ready["host"]
        self.port = self.ready["port"]
        wait_until_ready(self.host, self.port, timeout=30.0)

    def shutdown(self) -> tuple[int, str]:
        """Drain the fleet via the shutdown verb; returns (rc, stderr)."""
        with FleetClient(self.host, self.port) as client:
            client.shutdown()
        self.proc.wait(timeout=60)
        stderr = self.proc.stderr.read()
        self.proc.stdout.close()
        self.proc.stderr.close()
        return self.proc.returncode, stderr

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait(timeout=10)


def memory_of(pid: int) -> dict[str, float]:
    """RSS/PSS/USS of one process in kB (Linux ``smaps_rollup``)."""
    fields = {}
    for line in Path(f"/proc/{pid}/smaps_rollup").read_text().splitlines():
        parts = line.split()
        if len(parts) >= 2 and parts[0].rstrip(":") in (
            "Rss", "Pss", "Private_Clean", "Private_Dirty"
        ):
            fields[parts[0].rstrip(":")] = float(parts[1])
    return {
        "rss_kb": fields.get("Rss", 0.0),
        "pss_kb": fields.get("Pss", 0.0),
        "uss_kb": fields.get("Private_Clean", 0.0)
        + fields.get("Private_Dirty", 0.0),
    }


def fleet_identity_sweep(fleet: FleetUnderTest, expected: dict) -> int:
    """The bit-identity sweep, against **every worker's** direct port."""
    checked = 0
    for worker in fleet.ready["workers"]:
        checked += identity_sweep(
            fleet.host, worker["direct_port"], expected
        )
    return checked


def fleet_memory_probe(
    artifact: Path, workers: int, reload_to: Path | None = None
) -> dict:
    """Measure per-worker memory with every worker warmed.

    Loaded-once-shared-copy-on-write is the claim: the supervisor loads
    the registry pre-fork, so N workers' artifact pages are one
    physical copy.  USS (private pages only) is the honest per-worker
    marginal cost; PSS totals show the fleet-wide footprint with shared
    pages divided fairly.

    With ``reload_to`` the probe measures the *post-reload* footprint:
    every tenant is hot-reloaded onto that artifact copy first, so the
    fork-time pages no longer cover the served generation.  A private
    re-parse per worker would make USS scale with N; every worker maps
    the same image file instead, so the arrays stay in one page-cache
    copy.
    """
    fleet = FleetUnderTest(artifact, workers)
    try:
        if reload_to is not None:
            with FleetClient(fleet.host, fleet.port) as client:
                for tenant in FLEET_TENANTS:
                    client.reload(tenant, path=str(reload_to))
        for worker in fleet.ready["workers"]:
            with EstimationClient(
                fleet.host, worker["direct_port"]
            ) as client:
                for tenant in FLEET_TENANTS:
                    for template in SHAPE_TEMPLATES[:4]:
                        client.estimate(
                            tenant, shape_text(template, 3), ["max-hop-max"]
                        )
        per_worker = {
            str(worker["index"]): memory_of(worker["pid"])
            for worker in fleet.ready["workers"]
        }
        supervisor = memory_of(fleet.proc.pid)
    finally:
        returncode, stderr = fleet.shutdown()
    assert returncode == 0 and stderr == "", (
        f"memory-probe fleet did not drain cleanly: rc={returncode}, "
        f"stderr={stderr!r}"
    )
    worker_uss = [m["uss_kb"] for m in per_worker.values()]
    return {
        "workers": workers,
        "per_worker": per_worker,
        "supervisor": supervisor,
        "worker_uss_max_kb": max(worker_uss),
        "worker_uss_mean_kb": sum(worker_uss) / len(worker_uss),
        "total_pss_kb": supervisor["pss_kb"]
        + sum(m["pss_kb"] for m in per_worker.values()),
    }


#: The storm's writer: publishes one new generation image of the same
#: statistics per "publish" line on stdin.
PUBLISHER = """
import sys
from repro.stats import StatisticsStore
store = StatisticsStore.load(sys.argv[1])
print("ready", flush=True)
for _ in sys.stdin:
    store.save(sys.argv[1])
    print("published", flush=True)
"""


def fleet_reload_storm(
    fleet: FleetUnderTest, artifact: Path, expected: dict, quick: bool
) -> dict:
    """Publish generations and swap every tenant while load runs.

    Each storm generation publishes a new image of the same statistics
    into the served artifact directory (``StatisticsStore.save`` — the
    write ``repro updates apply`` ends with, run by a writer process of
    its own as in a deployment) and reloads all tenants onto it through
    the shared port's fleet-wide fan-out, so every worker maps the new
    ``catalogs.npz`` while the writer prunes the images two generations
    back.  The acceptance claims, recorded in the returned dict:

    * the concurrent load's responses stay bit-identical across every
      swap (asserted inside :func:`open_loop_load`);
    * p99 during the storm stays bounded — swaps must not stall the
      serving path.

    ``disk_parses_delta`` (fleet-wide generation loads) is reported
    for reference: one per worker, tenant and generation.
    """
    generations = 2 if quick else 4
    rate = 200.0 if quick else 400.0
    requests = int(rate * (2 if quick else 5))
    load_threads = 8 if quick else 16
    writer = subprocess.Popen(
        [sys.executable, "-c", PUBLISHER, str(artifact)],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        text=True,
    )
    assert writer.stdout.readline().strip() == "ready"
    with FleetClient(fleet.host, fleet.port) as client:
        before = client.stats()["aggregate"]["artifact_plane"]
    box: dict = {}

    def run_load():
        box["load"] = open_loop_load(
            fleet.host, fleet.port, expected,
            requests, rate, load_threads, seed=23,
            tenants=FLEET_TENANTS,
            make_client=lambda: FleetClient(fleet.host, fleet.port),
        )

    loader = threading.Thread(target=run_load)
    loader.start()
    interval = (requests / rate) / (generations + 1)
    with FleetClient(fleet.host, fleet.port) as client:
        for _ in range(generations):
            time.sleep(interval)
            writer.stdin.write("publish\n")
            writer.stdin.flush()
            assert writer.stdout.readline().strip() == "published"
            for tenant in FLEET_TENANTS:
                client.reload(tenant)
    writer.stdin.close()
    writer.wait(timeout=60)
    loader.join(600)
    if "load" not in box:
        raise RuntimeError("reload-storm load phase did not finish")
    with FleetClient(fleet.host, fleet.port) as client:
        after = client.stats()["aggregate"]["artifact_plane"]
    return {
        "generations": generations,
        "tenant_reloads": generations * len(FLEET_TENANTS),
        "load": box["load"],
        "disk_parses_delta": after["disk_parses"] - before["disk_parses"],
        "p99_bar_ms": 50.0,
        # The storm p99 committed with the retired /dev/shm plane.
        "p99_shared_plane_ms": 18.57,
    }


def leaked_files(root: Path, shm_before: set) -> list[str]:
    """Files a drained fleet and its writer should not have left behind.

    Every artifact directory under ``root`` keeps at most its current
    and previous ``gen-*`` image and no staging directory, and no new
    ``repro-*`` entry appeared under ``/dev/shm``.
    """
    leaked = sorted(set(shm_snapshot()) - shm_before)
    for manifest in root.glob("*/manifest.json"):
        directory = manifest.parent
        images = sorted(p.name for p in directory.glob("gen-*"))
        if len(images) > 2:
            leaked += [f"{directory.name}/{name}" for name in images[:-2]]
        leaked += [
            f"{directory.name}/{p.name}"
            for p in directory.iterdir() if ".tmp-" in p.name
        ]
    return leaked


def shm_snapshot() -> set:
    """Names of ``repro-*`` entries under ``/dev/shm``."""
    root = Path("/dev/shm")
    return {p.name for p in root.glob("repro-*")} if root.is_dir() else set()


def run_fleet(workers: int = 4, quick: bool = False) -> dict:
    """Fleet acceptance run: identity x workers, 4x load, COW memory."""
    base_rate = 400.0 if quick else 800.0  # the single-process target
    scale = 4  # the acceptance multiple over BENCH_server.json
    # The 10 ms p99 bar on the 4x phase assumes the fleet fits the
    # machine.  With N worker processes on fewer cores, open-loop p99
    # measures the scheduler queueing the load generator and workers
    # against each other — noise, not serving cost — so on such hosts
    # the 4x phase gates on throughput only and the latency gate moves
    # to the reload-storm phase, which runs at a sustainable rate.
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        cores = os.cpu_count() or 1
    scaled_p99_gated = workers <= cores
    p99_bar_ms = 10.0
    scaled_rate = base_rate * scale
    baseline_requests = int(base_rate * 1)
    scaled_requests = int(scaled_rate * (2 if quick else 5))
    load_threads = 8 if quick else 16
    shm_before = shm_snapshot()
    with tempfile.TemporaryDirectory(prefix="bench-fleet-") as tmp:
        v1, _v2 = build_artifacts(Path(tmp))
        expected = expected_estimates(v1)
        # Memory first, on quiet fleets: request backlogs would blur
        # the per-worker footprint.
        memory_single = fleet_memory_probe(v1, 1)
        memory_fleet = fleet_memory_probe(v1, workers)
        # Post-reload footprint: after a hot reload the fork-time COW
        # pages no longer cover the served generation — only the shared
        # image keeps per-worker USS flat in N.
        reload_target = Path(tmp) / "v1-reloaded"
        shutil.copytree(v1, reload_target)
        reload_single = fleet_memory_probe(v1, 1, reload_to=reload_target)
        reload_fleet = fleet_memory_probe(
            v1, workers, reload_to=reload_target
        )
        fleet = FleetUnderTest(
            v1, workers, queue_limit=max(scaled_requests, 128)
        )
        try:
            cells = fleet_identity_sweep(fleet, expected)
            make_client = lambda: FleetClient(fleet.host, fleet.port)  # noqa: E731
            # Old single-process target load: must be comfortable (0 shed).
            baseline = open_loop_load(
                fleet.host, fleet.port, expected,
                baseline_requests, base_rate, load_threads, seed=7,
                tenants=FLEET_TENANTS, make_client=make_client,
            )
            with FleetClient(fleet.host, fleet.port) as client:
                baseline_aggregate = client.stats()["aggregate"]
            # The acceptance load: 4x the committed target.
            scaled = open_loop_load(
                fleet.host, fleet.port, expected,
                scaled_requests, scaled_rate, load_threads, seed=11,
                tenants=FLEET_TENANTS, make_client=make_client,
            )
            storm = fleet_reload_storm(fleet, v1, expected, quick)
            with FleetClient(fleet.host, fleet.port) as client:
                stats = client.stats()
        except BaseException:
            fleet.kill()
            raise
        returncode, stderr = fleet.shutdown()
        leaked = leaked_files(Path(tmp), shm_before)
    assert returncode == 0 and stderr == "", (
        f"fleet did not drain cleanly: rc={returncode}, stderr={stderr!r}"
    )
    aggregate = stats["aggregate"]
    uss_ratio = (
        memory_fleet["worker_uss_max_kb"] / memory_single["worker_uss_max_kb"]
    )
    reload_uss_ratio = (
        reload_fleet["worker_uss_max_kb"]
        / reload_single["worker_uss_max_kb"]
    )
    ok = (
        aggregate["workers_reporting"] == workers
        and baseline_aggregate["shed_total"] == 0
        and scaled["throughput_rps"] >= scaled_rate * 0.95
        and (
            not scaled_p99_gated
            or scaled["latency_ms"]["p99"] <= p99_bar_ms
        )
        and uss_ratio <= 1.5
        and storm["load"]["latency_ms"]["p99"] <= storm["p99_bar_ms"]
        and reload_uss_ratio <= 1.2
        and not leaked
    )
    return {
        "benchmark": "server_fleet_load",
        "mode": "quick" if quick else "full",
        "workers": workers,
        "tenants": list(FLEET_TENANTS),
        "identity_cells_verified": cells,
        "all_bit_identical": True,  # asserted per worker, every run
        "single_process_target_rps": base_rate,
        "scale_over_committed_target": scale,
        "baseline_load": baseline,
        "baseline_shed_total": baseline_aggregate["shed_total"],
        "scaled_load": scaled,
        "scaled_p99_bar_ms": p99_bar_ms,
        "scaled_p99_gated": scaled_p99_gated,
        "aggregate": {
            "workers_reporting": aggregate["workers_reporting"],
            "requests_total": aggregate["requests_total"],
            "shed_total": aggregate["shed_total"],
            "deadline_exceeded_total": aggregate["deadline_exceeded_total"],
        },
        "memory": {
            "single_worker": memory_single,
            "fleet": memory_fleet,
            "worker_uss_ratio": uss_ratio,
            "uss_ratio_bar": 1.5,
        },
        "reload_storm": storm,
        "reload_memory": {
            "single_worker": reload_single,
            "fleet": reload_fleet,
            "worker_uss_ratio": reload_uss_ratio,
            "uss_ratio_bar": 1.2,
        },
        "leaked_files": leaked,
        "ok": ok,
    }


def render_fleet(report: dict) -> str:
    scaled = report["scaled_load"]
    latency = scaled["latency_ms"]
    memory = report["memory"]
    storm = report["reload_storm"]
    reload_memory = report["reload_memory"]
    return "\n".join(
        [
            f"Fleet load ({report['workers']} workers, "
            f"mode={report['mode']})",
            f"  identity sweep       : {report['identity_cells_verified']} "
            "(shape, estimator) cells bit-identical on every worker",
            f"  baseline load        : "
            f"{report['baseline_load']['target_rate_rps']:.0f}/s (the "
            f"committed single-process target), "
            f"{report['baseline_shed_total']} shed",
            f"  scaled load          : {scaled['requests']} requests @ "
            f"{scaled['target_rate_rps']:.0f}/s target "
            f"({report['scale_over_committed_target']}x), "
            f"{scaled['throughput_rps']:.1f}/s achieved",
            f"  latency (open loop)  : p50 {latency['p50']:.2f} ms, "
            f"p90 {latency['p90']:.2f} ms, p99 {latency['p99']:.2f} ms",
            f"  shed / deadline      : "
            f"{report['aggregate']['shed_total']} / "
            f"{report['aggregate']['deadline_exceeded_total']}",
            f"  worker USS           : "
            f"{memory['fleet']['worker_uss_max_kb'] / 1024:.1f} MiB max "
            f"(N={report['workers']}) vs "
            f"{memory['single_worker']['worker_uss_max_kb'] / 1024:.1f} MiB "
            f"(N=1) -> ratio {memory['worker_uss_ratio']:.2f} "
            f"(bar {memory['uss_ratio_bar']})",
            f"  fleet PSS total      : "
            f"{memory['fleet']['total_pss_kb'] / 1024:.1f} MiB "
            f"(supervisor + {report['workers']} workers, shared pages "
            "counted once)",
            f"  reload storm         : {storm['generations']} generations "
            f"x {len(report['tenants'])} tenants under load -> "
            f"{storm['disk_parses_delta']} mapped generation loads, "
            f"p99 {storm['load']['latency_ms']['p99']:.2f} ms "
            f"(bar {storm['p99_bar_ms']:.0f}; shared-memory plane "
            f"{storm['p99_shared_plane_ms']:.1f})",
            f"  post-reload USS      : "
            f"{reload_memory['fleet']['worker_uss_max_kb'] / 1024:.1f} MiB "
            f"max (N={report['workers']}) vs "
            f"{reload_memory['single_worker']['worker_uss_max_kb'] / 1024:.1f}"
            f" MiB (N=1) -> ratio {reload_memory['worker_uss_ratio']:.2f} "
            f"(bar {reload_memory['uss_ratio_bar']})",
            f"  leaked-files check   : "
            f"{len(report['leaked_files'])} files left behind",
        ]
    )


def render(report: dict) -> str:
    load = report["load"]
    latency = load["latency_ms"]
    coalesce = report["coalesce"]
    return "\n".join(
        [
            f"Server load (open loop, mode={report['mode']})",
            f"  identity sweep       : {report['identity_cells_verified']} "
            "(shape, estimator) cells bit-identical to in-process",
            f"  coalesce probe       : {coalesce['fan_out']} concurrent "
            f"identical cold requests -> {coalesce['skeleton_builds']} CEG "
            f"build ({coalesce['coalesced_followers']} coalesced, "
            f"{coalesce['estimate_lru_hits']} LRU hits)",
            f"  load                 : {load['requests']} requests @ "
            f"{load['target_rate_rps']:.0f}/s target, "
            f"{load['throughput_rps']:.1f}/s achieved",
            f"  latency (open loop)  : p50 {latency['p50']:.2f} ms, "
            f"p90 {latency['p90']:.2f} ms, p99 {latency['p99']:.2f} ms, "
            f"max {latency['max']:.2f} ms",
            f"  shed / deadline      : "
            f"{report['admission']['shed_total']} / "
            f"{report['admission']['deadline_exceeded_total']}",
        ]
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="CI smoke mode")
    parser.add_argument("--json", type=Path, default=None)
    parser.add_argument(
        "--workers", type=int, default=0, metavar="N",
        help="fleet mode: benchmark a subprocess `repro serve --workers N` "
             "fleet instead of the in-process single server (default 0)",
    )
    args = parser.parse_args(argv)
    if args.workers:
        report = run_fleet(workers=args.workers, quick=args.quick)
        print(render_fleet(report))
    else:
        report = run(quick=args.quick)
        print(render(report))
    if args.json is not None:
        args.json.parent.mkdir(parents=True, exist_ok=True)
        args.json.write_text(json.dumps(report, indent=2), encoding="utf-8")
        print(f"wrote {args.json}")
    if not report["ok"]:
        print("FAIL: server load benchmark gates not met", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
