"""The three workloads, the passes that run them and the checks on them.

Every run of every workload goes through the same steps:

1. write the seeded data graph as an edge-list file and build the base
   artifact from it with ``repro stats build``;
2. start ``repro serve --workers 1`` on a copy of the artifact and warm
   the workload's cells, :data:`SETUPS` times; the last server stays up.
   ``setup_s`` is the build's time plus the median start;
3. the timed phase: a closed loop (warm-zipf, cold-shapes) or an open
   loop beside a writer process applying update batches (delta-churn);
4. on the closed-loop workloads, a short *swap probe* after the timed
   phase: the same churn, lighter, so every workload measures how fresh
   a generation swap makes the served statistics (``freshness_ms``);
5. every served float is compared bit for bit with an in-process
   :class:`~repro.service.session.EstimationSession` on the same
   artifact (on a churn: on the store maintained to that generation),
   and the workload's validity checks run.

A failed validity check raises :class:`Invalid`; the run then reports
no numbers.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro.delta.maintain import apply_updates
from repro.graph.digraph import LabeledDiGraph
from repro.query.canonical import canonical_key
from repro.service.session import EstimationSession
from repro.stats.store import StatisticsStore

import inputs
from common import float_digest, highest_percentile, median, percentile, same_bits
from serving import Record, Server, closed_loop, open_loop, payload

HERE = Path(__file__).resolve().parent
#: Server start-ups per run; ``setup_s`` is their median.
SETUPS = 3
#: Load connections of an open loop (a closed loop sets its own).
CONNECTIONS = 2
#: Requests the closed loops have ready; a run stops early if it uses all.
WARM_REQUESTS = 150_000
COLD_REQUESTS = 4_000
#: The digest covers the references of the first this many requests.
DIGEST_REQUESTS = 200
#: delta-churn reads per second (warm capacity is ~4k/s).
DELTA_RATE = 400.0
#: Churn schedule: first apply, spacing, the last apply's distance from
#: the end, and how long reads go on after the last swap.  An apply and
#: its swap take 1.5-2 s beside 400 reads/s; a late writer just starts
#: its next batch late, and the reads wait for its last swap.
CHURN_FIRST_S = 1.0
CHURN_INTERVAL_S = 1.6
CHURN_LAST_S = 2.5
CHURN_TAIL_S = 1.0
#: Sequence length of a churn, in seconds of reads at its rate.
CHURN_READS_S = 60.0
#: The swap probe after a closed loop: reads per second and apply times.
PROBE_RATE = 200.0
PROBE_OFFSETS = (0.2, 1.5, 2.8)
PROBE_TAIL_S = 0.5
#: A delta-churn run is invalid if the generator sent its p99 request
#: later than this behind schedule.
LATE_BOUND_MS = 50.0
#: latency_p99_ms is the median p99 of consecutive windows of this many
#: requests when there are at least P99_WINDOWS (at most MAX_P99_WINDOWS).
P99_WINDOW_SAMPLES = 1000
P99_WINDOWS = 3
MAX_P99_WINDOWS = 10
#: warm-zipf is invalid below this estimate-cache hit ratio.
WARM_HIT_FLOOR = 0.999
DIGESTS = HERE / "digests.json"


class Invalid(Exception):
    """A validity check failed; the run's numbers must not be reported."""


@dataclass
class Bench:
    """What one run shares: paths, environment, seed and the graph."""

    work: Path
    env: dict[str, str]
    seed: int
    seconds: float
    graph: LabeledDiGraph
    edges: Path
    base: Path
    copies: int = 0

    def fresh_artifact(self) -> Path:
        """A private copy of the base artifact (a churn appends to it)."""
        self.copies += 1
        copy = self.work / f"artifact-{self.copies}"
        shutil.copytree(self.base, copy)
        return copy


def build_artifact(edges: Path, out: Path, env: dict[str, str]) -> float:
    """``repro stats build`` from the edge-list file; returns its seconds."""
    began = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "repro", "stats", "build",
         "--graph", str(edges), "--out", str(out)],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    )
    took = time.perf_counter() - began
    if done.returncode != 0:
        raise RuntimeError(f"repro stats build failed: {done.stderr.strip()}")
    return took


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Workload:
    name: str
    sequence: Callable[[LabeledDiGraph, int, float], inputs.Sequence]
    #: Sequence indices whose cells are warmed during set-up.
    warm: Callable[[inputs.Sequence], list[int]]
    #: None for a closed loop; reads per second for a churn.
    rate: float | None
    #: Closed loop: connections, each a client thread.
    connections: int = CONNECTIONS


def _pool_cells(seq: inputs.Sequence) -> list[int]:
    """One sequence index per (shape, estimator) cell the sequence uses."""
    first: dict[tuple[int, str], int] = {}
    for index in range(len(seq)):
        first.setdefault(seq.key(index), index)
    return sorted(first.values())


WORKLOADS = {
    "warm-zipf": Workload(
        "warm-zipf",
        lambda graph, seed, seconds: inputs.warm_sequence(
            graph, seed, WARM_REQUESTS
        ),
        _pool_cells,
        None,
    ),
    "cold-shapes": Workload(
        "cold-shapes",
        lambda graph, seed, seconds: inputs.cold_sequence(
            graph, seed, COLD_REQUESTS
        ),
        lambda seq: [],
        None,
        # One at a time: a full garbage collection in the server stalls
        # the request it interrupts for 0.1-0.3 s, about 0.5% of cold
        # requests.  A second connection would stall its request too,
        # putting ~1% of requests on the edge of the p99 and the p99 on
        # the length of whichever pause it lands in.
        connections=1,
    ),
    "delta-churn": Workload(
        "delta-churn",
        lambda graph, seed, seconds: inputs.delta_sequence(
            graph, seed, int(DELTA_RATE * CHURN_READS_S)
        ),
        _pool_cells,
        DELTA_RATE,
    ),
}


def churn_offsets(seconds: float) -> list[float]:
    """Apply times of a delta-churn run of ``seconds``."""
    offsets = []
    offset = CHURN_FIRST_S
    while offset <= seconds - CHURN_LAST_S:
        offsets.append(offset)
        offset += CHURN_INTERVAL_S
    if not offsets:
        raise Invalid(f"a churn needs at least {CHURN_FIRST_S + CHURN_LAST_S} s")
    return offsets


# ----------------------------------------------------------------------
# Passes
# ----------------------------------------------------------------------
@dataclass
class Churn:
    """Reads served beside a writer, and what each generation cost."""

    seq: inputs.Sequence
    batches: list
    records: list[Record]
    generations: list[dict]
    boot_generation: int
    stats_before: dict
    stats_after: dict


@dataclass
class Pass:
    """One server's timed phase (and swap probe)."""

    seq: inputs.Sequence
    records: list[Record]
    began: float
    stats_before: dict
    stats_after: dict
    pss_mb: float
    churn: Churn
    setup_s: list[float] = field(default_factory=list)

    @property
    def elapsed(self) -> float:
        return max(r.done for r in self.records) - self.began


def start_server(
    bench: Bench,
    artifact: Path,
    seq: inputs.Sequence,
    warm: list[int],
    trace_log: Path | None = None,
) -> tuple[Server, float]:
    """Start a server and warm ``warm``; returns it and the seconds taken."""
    began = time.perf_counter()
    server = Server(artifact, bench.work, bench.env, trace_log)
    try:
        for index in warm:
            response = server.control.request(payload(seq, index))
            if not response.get("ok"):
                raise RuntimeError(f"warm-up request failed: {response}")
    except BaseException:
        server.kill()
        raise
    return server, time.perf_counter() - began


def churn(
    bench: Bench,
    server: Server,
    artifact: Path,
    seq: inputs.Sequence,
    rate: float,
    batches: list,
    offsets: list[float],
    least_s: float,
    tail_s: float,
) -> Churn:
    """Open-loop reads of ``seq`` beside the writer process.

    Batch ``k`` is applied at ``offsets[k]`` (or when the previous swap
    is done, if later).  Reads go on for at least ``least_s`` seconds
    and until ``tail_s`` after the writer's last swap, so every
    generation gets read.
    """
    job = bench.work / "writer-job.json"
    job.write_text(json.dumps({
        "artifact": str(artifact),
        "graph": str(bench.edges),
        "host": server.host,
        "port": server.port,
        "tenant": inputs.TENANT,
        "batches": [batch.to_payload() for batch in batches],
        "offsets": list(offsets),
    }))
    before = server.stats()
    lines: list[dict] = []
    finished: list[float] = []

    def follow(stream) -> None:
        for line in stream:
            lines.append(json.loads(line))
        finished.append(time.perf_counter())

    with open(bench.work / "writer.stderr", "ab") as stderr:
        writer = subprocess.Popen(
            [sys.executable, str(HERE / "writer.py"), str(job)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=stderr,
            env=bench.env, text=True,
        )
        follower = None
        try:
            ready = writer.stdout.readline()
            if not ready.strip() or json.loads(ready).get("event") != "ready":
                raise RuntimeError(f"writer failed to start: {ready!r}")
            follower = threading.Thread(
                target=follow, args=(writer.stdout,), daemon=True
            )
            follower.start()
            began = time.perf_counter() + 0.05
            writer.stdin.write(f"{began!r}\n")
            writer.stdin.flush()
            records = open_loop(
                server.host, server.port, seq, range(len(seq)), rate, began,
                CONNECTIONS,
                lambda: bool(finished) and time.perf_counter() >= max(
                    began + least_s, finished[0] + tail_s
                ),
            )
            follower.join(timeout=120)
            if writer.wait(timeout=120) != 0:
                tail = (bench.work / "writer.stderr").read_text()[-2000:]
                raise RuntimeError(
                    f"writer exited {writer.returncode}: {tail}"
                )
        finally:
            if writer.poll() is None:
                writer.kill()
            writer.wait()
            if follower is not None:
                follower.join(timeout=10)
    generations = [line for line in lines if line["event"] == "generation"]
    if len(generations) != len(batches):
        raise Invalid(
            f"writer applied {len(generations)} of {len(batches)} batches"
        )
    return Churn(
        seq, batches, records, generations,
        before["tenants"][inputs.TENANT]["generation"], before, server.stats(),
    )


def run_pass(
    bench: Bench,
    workload: Workload,
    seq: inputs.Sequence,
    setups: int = 1,
    trace_log: Path | None = None,
    indices: list[int] | None = None,
) -> Pass:
    """Set up ``setups`` times, then run the timed phase on the last server.

    ``indices`` replays exactly those requests of a closed loop (the
    traced pass) instead of running it for ``bench.seconds``.
    """
    artifact = bench.fresh_artifact()
    setup_s = []
    for attempt in range(setups):
        server, took = start_server(
            bench, artifact, seq, workload.warm(seq), trace_log
        )
        setup_s.append(took)
        if attempt < setups - 1:
            server.stop()
    try:
        before = server.stats()
        if workload.rate is None:
            records, began = closed_loop(
                server.host, server.port, seq,
                indices if indices is not None else range(len(seq)),
                bench.seconds if indices is None else None,
                workload.connections,
            )
            after = server.stats()
            pss = server.pss_mb()
            probe_seq = inputs.delta_sequence(
                bench.graph, bench.seed, int(PROBE_RATE * CHURN_READS_S)
            )
            swaps = churn(
                bench, server, artifact, probe_seq, PROBE_RATE,
                inputs.update_batches(bench.graph, len(PROBE_OFFSETS)),
                list(PROBE_OFFSETS), 0.0, PROBE_TAIL_S,
            )
        else:
            offsets = churn_offsets(bench.seconds)
            swaps = churn(
                bench, server, artifact, seq, workload.rate,
                inputs.update_batches(bench.graph, len(offsets)),
                offsets, bench.seconds, CHURN_TAIL_S,
            )
            records = swaps.records
            began = min(r.sent for r in records)
            after = swaps.stats_after
            pss = server.pss_mb()
    finally:
        server.stop()
    return Pass(seq, records, began, before, after, pss, swaps, setup_s)


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------
def base_session(bench: Bench) -> EstimationSession:
    """A graph-free session on the base artifact, as the server loads it."""
    return EstimationSession(None, store=StatisticsStore.load(bench.base))


def value_of(session: EstimationSession, seq: inputs.Sequence, index: int):
    shape, estimator = seq.key(index)
    return session.estimate(seq.shapes[shape], estimator)


def check_static(
    session: EstimationSession, seq: inputs.Sequence, records: list[Record]
) -> int:
    """Bit-for-bit mismatches of answered requests against ``session``."""
    return sum(
        1 for r in records
        if r.ok and not same_bits(r.estimate, value_of(session, seq, r.index))
    )


def check_churn(bench: Bench, swaps: Churn) -> int:
    """Mismatches of churn reads against the store maintained in-process.

    A read served at the server's generation after ``k`` swaps is
    compared with the base store after ``apply_updates`` of the first
    ``k`` batches.  A read at a generation the writer did not produce
    counts as a mismatch.
    """
    applied_of = {swaps.boot_generation: 0}
    for k, generation in enumerate(swaps.generations, start=1):
        applied_of[generation["generation"]] = k
    groups: dict[int, list[Record]] = {}
    mismatches = 0
    for r in swaps.records:
        if not r.ok:
            continue
        if r.generation not in applied_of:
            mismatches += 1
            continue
        groups.setdefault(applied_of[r.generation], []).append(r)
    store = StatisticsStore.load(bench.base, graph=bench.graph)
    applied = 0
    for k in sorted(groups):
        while applied < k:
            apply_updates(store, swaps.batches[applied])
            applied += 1
        mismatches += check_static(
            EstimationSession(None, store=store), swaps.seq, groups[k]
        )
    return mismatches


def freshness_ms(swaps: Churn) -> list[float]:
    """Per generation: apply-job start to the first read served on it."""
    out = []
    for generation in swaps.generations:
        served = [
            r.done for r in swaps.records
            if r.ok and r.generation is not None
            and r.generation >= generation["generation"]
        ]
        if not served:
            last = max(r.done for r in swaps.records)
            raise Invalid(
                f"no read was served at generation {generation}; the last "
                f"answer came {last - generation['start']:.3f} s after its "
                "apply job started"
            )
        out.append((min(served) - generation["start"]) * 1000.0)
    return out


def _cache(stats: dict, name: str) -> dict:
    return stats["tenants"][inputs.TENANT]["cache"][name]


def cache_hits(before: dict, after: dict, name: str) -> tuple[int, int]:
    """(hits, lookups) of one session cache between two ``stats`` snapshots.

    A generation swap gives the tenant a new session whose counters
    start at zero; across one, the counters since the last swap count.
    """
    generation = before["tenants"][inputs.TENANT]["generation"]
    same = after["tenants"][inputs.TENANT]["generation"] == generation
    start = _cache(before, name) if same else {"hits": 0, "misses": 0}
    hits = _cache(after, name)["hits"] - start["hits"]
    misses = _cache(after, name)["misses"] - start["misses"]
    return hits, hits + misses


def validate(workload: Workload, run: Pass) -> dict:
    """The workload's validity checks; returns what they measured."""
    found: dict = {}
    if workload.rate is None:
        shed = (
            run.stats_after["admission"]["shed_total"]
            - run.stats_before["admission"]["shed_total"]
        )
        if shed:
            raise Invalid(f"{shed} requests shed on a closed loop")
    if workload.name == "warm-zipf":
        hits, lookups = cache_hits(
            run.stats_before, run.stats_after, "estimates"
        )
        if not lookups or hits / lookups < WARM_HIT_FLOOR:
            raise Invalid(f"warm-zipf estimate cache: {hits} of {lookups} hit")
        found["estimate_hit_ratio"] = hits / lookups
    if workload.name == "cold-shapes":
        keys = [run.seq.shapes[run.seq.shape_of[r.index]] for r in run.records]
        if len({canonical_key(shape) for shape in keys}) != len(keys):
            raise Invalid("cold-shapes repeated a canonical shape")
        skeleton = _cache(run.stats_after, "skeletons")["hits"] - _cache(
            run.stats_before, "skeletons"
        )["hits"]
        found["skeleton_hits"] = skeleton
        if skeleton:
            raise Invalid(f"cold-shapes hit the skeleton cache {skeleton} times")
    if workload.rate is not None:
        late = sorted(r.late * 1000.0 for r in run.records)
        found["late_p99_ms"] = percentile(late, 99)
        if found["late_p99_ms"] > LATE_BOUND_MS:
            raise Invalid(
                f"generator p99 lateness {found['late_p99_ms']:.1f} ms "
                f"exceeds {LATE_BOUND_MS} ms"
            )
    return found


def recorded_digest(workload: str) -> str | None:
    if not DIGESTS.is_file():
        return None
    return json.loads(DIGESTS.read_text()).get(workload)


def digest(session: EstimationSession, seq: inputs.Sequence) -> str:
    """Digest of the reference floats of the first requests."""
    return float_digest(
        ((index, seq.estimator_of[index]), value_of(session, seq, index))
        for index in range(min(DIGEST_REQUESTS, len(seq)))
    )


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------
@dataclass
class Result:
    """A checked run: its numbers and the failures behind ``correct``."""

    metrics: dict[str, tuple[float, str]]
    attempted: int
    failed: int
    notes: dict
    run: Pass


def p99_ms(records: list[Record]) -> tuple[float, int]:
    """The p99 latency, and over how many windows it was taken.

    When the records fill at least :data:`P99_WINDOWS` consecutive
    windows of :data:`P99_WINDOW_SAMPLES` (each supporting a p99), the
    p99 is the median of the windows' p99s: a few seconds of a stalled
    host then move one window, not the run's figure.  Otherwise it is
    the p99 of all records.
    """
    windows = min(len(records) // P99_WINDOW_SAMPLES, MAX_P99_WINDOWS)
    if windows < P99_WINDOWS:
        return percentile(sorted(r.latency_ms for r in records), 99), 1
    ordered = sorted(records, key=lambda r: r.sent)
    size = len(ordered) // windows
    return median(
        percentile(sorted(r.latency_ms for r in ordered[k * size:(k + 1) * size]), 99)
        for k in range(windows)
    ), windows


def latency_metrics(records: list[Record], elapsed: float) -> tuple[dict, dict]:
    """Throughput and the p50/p99 latency of ``records`` (all attempted)."""
    latencies = sorted(r.latency_ms for r in records)
    ok = sum(1 for r in records if r.ok)
    p99, windows = p99_ms(records)
    metrics = {
        "throughput_rps": (ok / elapsed, "1/s"),
        "latency_p50_ms": (percentile(latencies, 50), "ms"),
    }
    # The p99 is reported beside the metrics, not as one: on a shared
    # 2-vCPU host its run-to-run spread (0.35 of the median on
    # warm-zipf) is wider than any bound a regression gate could use.
    notes = {
        "samples": len(latencies),
        "highest_supported_percentile": highest_percentile(len(latencies)),
        "latency_p99_ms": p99,
        "p99_windows": windows,
    }
    return metrics, notes


def run_workload(bench: Bench, workload: Workload, build_s: float) -> Result:
    """The untraced run: set-up, timed phase, checks and metrics."""
    seq = workload.sequence(bench.graph, bench.seed, bench.seconds)
    run = run_pass(bench, workload, seq, setups=SETUPS)
    notes = validate(workload, run)
    session = base_session(bench)
    failed = sum(1 for r in run.records if not r.ok)
    attempted = len(run.records)
    mismatches = check_churn(bench, run.churn)
    if workload.rate is None:
        mismatches += check_static(session, seq, run.records)
        attempted += len(run.churn.records)
        failed += sum(1 for r in run.churn.records if not r.ok)
    failed += mismatches
    notes["mismatches"] = mismatches
    notes["digest"] = digest(session, seq)
    if bench.seed == inputs.DEFAULT_SEED:
        recorded = recorded_digest(workload.name)
        notes["digest_recorded"] = recorded
        if recorded != notes["digest"]:
            failed += min(DIGEST_REQUESTS, len(seq))
    metrics, latency_notes = latency_metrics(run.records, run.elapsed)
    notes.update(latency_notes)
    notes["error_rate"] = failed / attempted
    fresh = freshness_ms(run.churn)
    notes["freshness_per_generation_ms"] = [round(x, 3) for x in fresh]
    notes["build_s"] = build_s
    notes["server_start_s"] = run.setup_s
    metrics.update({
        "setup_s": (build_s + median(run.setup_s), "s"),
        "server_pss_mb": (run.pss_mb, "MB"),
        "freshness_ms": (median(fresh), "ms"),
    })
    return Result(metrics, attempted, failed, notes, run)
