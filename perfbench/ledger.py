"""The traced pass: a per-layer ledger of one workload.

After the untraced run, the same requests are replayed against a server
started with ``--trace-log``, which echoes each request's stage
``timings`` (``store_lookup``, ``cache_probe``, then ``queue`` and
``exec`` when the answer was not cached).  The layers' public functions
are also timed in-process, from outside, on the same inputs and the same
artifact.  Together they give:

* the per-layer metrics named in ``BENCHMARK.json`` (``per_layer``);
* a reconciliation table, "where a request spends its time": the median
  of each layer, their sum against the traced p50 with the residual,
  the in-process costs beside the stages they explain, and the tracing
  overhead that separates the traced p50 from the untraced
  ``latency_p50_ms``.

The layer sum reconciles when the residual is within
:data:`RESIDUAL_SHARE` of the traced p50.
"""

from __future__ import annotations

import time
from pathlib import Path

from repro.core.ceg_m import molp_bound
from repro.core.ceg_o import build_ceg_o
from repro.core.compiled import compile_ceg
from repro.core.paths import hop_statistics_compiled
from repro.errors import ReproError
from repro.graph.io import load_edge_list
from repro.query.canonical import canonical_key, canonical_pattern
from repro.query.parser import parse_pattern
from repro.server.protocol import encode_line, ok_response, parse_request
from repro.service.session import EstimationSession, EstimatorSpec
from repro.stats.artifact import StoreManifest
from repro.stats.store import StatisticsStore

import inputs
from common import median, percentile
from serving import Record, payload
from workloads import (
    Bench, Pass, Result, Workload, base_session, cache_hits, check_churn,
    check_static, run_pass,
)

#: In-process timings use the first this many answered requests ...
LAYER_SAMPLE = 300
#: ... and at most this many distinct shapes for the estimator core.
CORE_SHAPES = 60
#: Store and edge-list loads timed per run (median reported).
LOADS = 5
#: Reads after a swap whose cache hits ``estimate_hit_ratio_after_swap``
#: counts.
SWAP_WINDOW = 100
#: The layer sum reconciles with the p50 within this share of it.
RESIDUAL_SHARE = 0.25


def ratio(part: float, whole: float) -> float:
    """``part / whole``, or 0.0 when nothing happened (``whole`` is 0)."""
    return part / whole if whole else 0.0


def timed(fn, *args) -> float:
    """Seconds one call of ``fn(*args)`` takes."""
    began = time.perf_counter()
    fn(*args)
    return time.perf_counter() - began


def stage_ms(record: Record, stage: str) -> float:
    """An echoed stage time; a stage the request skipped took 0 ms."""
    return (record.timings or {}).get(f"{stage}_ms", 0.0)


def rtt_ms(record: Record) -> float:
    """Actual send to answer (an open loop's lateness taken out)."""
    return (record.done - record.sent - record.late) * 1000.0


# ----------------------------------------------------------------------
# In-process layer timings
# ----------------------------------------------------------------------
def protocol_layers(
    seq: inputs.Sequence, sample: list[Record], warm: bool, store
) -> dict:
    """Request decode, response encode, query parse, canonical key, peek."""
    session = EstimationSession(None, store=store)
    if warm:
        for r in sample:
            shape, estimator = seq.key(r.index)
            session.estimate(seq.shapes[shape], estimator)
    parse_req, encode, parse, canon, peek = [], [], [], [], []
    for r in sample:
        text = seq.text(r.index)
        estimator = seq.estimator_of[r.index]
        line = encode_line(payload(seq, r.index))
        parse_req.append(timed(parse_request, line))
        response = ok_response(r.index, {
            "tenant": inputs.TENANT, "generation": r.generation,
            "query": text, "estimates": {estimator: r.estimate},
            "errors": {}, "seconds": r.seconds,
        })
        encode.append(timed(encode_line, response))
        parse.append(timed(parse_pattern, text))
        fresh = parse_pattern(text)  # canonical_key memoizes per object
        canon.append(timed(canonical_key, fresh))
        spec = [EstimatorSpec.coerce(estimator)]
        peek.append(timed(session.peek_estimates, parse_pattern(text), spec))
    return {
        "server.protocol.parse_request_us": (median(parse_req) * 1e6, "us"),
        "server.protocol.encode_line_us": (median(encode) * 1e6, "us"),
        "query.parse_pattern_us": (median(parse) * 1e6, "us"),
        "query.canonical_key_us": (median(canon) * 1e6, "us"),
        "service.session.peek_us": (median(peek) * 1e6, "us"),
    }


def core_layers(seq: inputs.Sequence, sample: list[Record], store) -> dict:
    """CEG_O build, compile, DP and MOLP, and a cold session estimate."""
    shapes = []
    seen: set = set()
    for r in sample:
        shape = seq.shapes[seq.shape_of[r.index]]
        key = canonical_key(shape)
        if key not in seen and len(shapes) < CORE_SHAPES:
            seen.add(key)
            shapes.append(shape)
    build, compile_, dp, molp, nodes, edges = [], [], [], [], [], []
    cold = {name: [] for name in inputs.ESTIMATORS}
    session = EstimationSession(None, store=store)
    for shape in shapes:
        canonical = canonical_pattern(shape)
        began = time.perf_counter()
        ceg = build_ceg_o(canonical, store.markov)
        built = time.perf_counter()
        compiled = compile_ceg(ceg)
        done = time.perf_counter()
        build.append(built - began)
        compile_.append(done - built)
        nodes.append(len(ceg.nodes))
        edges.append(ceg.num_edges)
        dp.append(timed(hop_statistics_compiled, compiled))
        molp.append(timed(molp_bound, canonical, store.degrees))
        for name in inputs.ESTIMATORS:
            session.clear_caches()
            try:
                cold[name].append(timed(session.estimate, shape, name))
            except ReproError:  # no formula for this shape: not a cost
                pass
    metrics = {
        "core.ceg_o.build_ms": (median(build) * 1e3, "ms"),
        "core.ceg_o.nodes": (median(nodes), "count"),
        "core.ceg_o.edges": (median(edges), "count"),
        "core.compiled.compile_ms": (median(compile_) * 1e3, "ms"),
        "core.paths.dp_ms": (median(dp) * 1e3, "ms"),
        "core.ceg_m.molp_ms": (median(molp) * 1e3, "ms"),
    }
    for name, values in cold.items():
        metrics[f"service.session.cold_ms.{name}"] = (median(values) * 1e3, "ms")
    return metrics


def offline_layers(bench: Bench) -> dict:
    """Edge-list ingest, the build's levels, and artifact loads."""
    levels = StoreManifest.load(bench.base).build_config["levels"]
    by_level = {level["level"]: level for level in levels}
    return {
        "graph.io.load_edge_list_s": (median(
            timed(load_edge_list, bench.edges) for _ in range(LOADS)
        ), "s"),
        "stats.build.level1_s": (by_level[1]["seconds"], "s"),
        "stats.build.level2_s": (by_level[2]["seconds"], "s"),
        "stats.build.examined": (
            sum(level["examined"] for level in levels), "count"
        ),
        "stats.store.load_ms.eager": (median(
            timed(StatisticsStore.load, bench.base) for _ in range(LOADS)
        ) * 1e3, "ms"),
        "stats.store.load_ms.mmap": (median(
            timed(lambda: StatisticsStore.load(bench.base, mmap=True))
            for _ in range(LOADS)
        ) * 1e3, "ms"),
        "stats.store.artifact_bytes": (sum(
            path.stat().st_size for path in Path(bench.base).rglob("*")
            if path.is_file()
        ), "bytes"),
    }


# ----------------------------------------------------------------------
# Layers seen through the server
# ----------------------------------------------------------------------
def server_layers(untraced: Pass, traced: Pass) -> dict:
    """Echoed stage times and the churn's costs from the traced pass;
    cache and coalescer ratios from the untraced run's ``stats``."""
    ok = [r for r in traced.records if r.ok]
    churn = traced.churn
    swaps = len(churn.generations)
    plane_before = churn.stats_before["artifact_plane"]
    plane_after = churn.stats_after["artifact_plane"]
    coalescer_before = untraced.stats_before["coalescer"]
    coalescer_after = untraced.stats_after["coalescer"]
    after_swap = []
    for generation in churn.generations:
        window = [
            r for r in churn.records
            if r.ok and r.generation == generation["generation"]
        ][:SWAP_WINDOW]
        if window:
            after_swap.append(ratio(
                sum(1 for r in window if stage_ms(r, "exec") == 0.0),
                len(window),
            ))
    return {
        "server.client.rtt_us": (median(rtt_ms(r) for r in ok) * 1e3, "us"),
        "server.wire_us": (median(
            rtt_ms(r) - r.seconds * 1e3 for r in ok
        ) * 1e3, "us"),
        "server.server.store_lookup_us": (median(
            stage_ms(r, "store_lookup") for r in ok
        ) * 1e3, "us"),
        "server.server.cache_probe_us": (median(
            stage_ms(r, "cache_probe") for r in ok
        ) * 1e3, "us"),
        "server.server.queue_ms": (median(stage_ms(r, "queue") for r in ok), "ms"),
        "server.server.exec_ms": (median(stage_ms(r, "exec") for r in ok), "ms"),
        "server.fast_path_ratio": (ratio(
            sum(1 for r in ok if "exec_ms" not in (r.timings or {})), len(ok)
        ), "ratio"),
        "service.session.estimate_hit_ratio": (ratio(*cache_hits(
            untraced.stats_before, untraced.stats_after, "estimates"
        )), "ratio"),
        "service.session.skeleton_hit_ratio": (ratio(*cache_hits(
            untraced.stats_before, untraced.stats_after, "skeletons"
        )), "ratio"),
        "server.coalescer.follower_ratio": (ratio(
            coalescer_after["followers"] - coalescer_before["followers"],
            coalescer_after["calls"] - coalescer_before["calls"],
        ), "ratio"),
        "delta.maintain.apply_s": (median(
            g["apply_s"] for g in churn.generations
        ), "s"),
        "delta.maintain.incremental_ratio": (ratio(
            sum(1 for g in churn.generations if g["mode"] == "incremental"),
            swaps,
        ), "ratio"),
        "server.registry.apply_deltas_ms": (median(
            g["apply_deltas_ms"] for g in churn.generations
        ), "ms"),
        "stats.shm.disk_parses": (ratio(
            plane_after["disk_parses"] - plane_before["disk_parses"], swaps
        ), "count"),
        "stats.shm.publishes": (ratio(
            plane_after["publishes"] - plane_before["publishes"], swaps
        ), "count"),
        "stats.shm.attaches": (ratio(
            plane_after["attaches"] - plane_before["attaches"], swaps
        ), "count"),
        "service.session.estimate_hit_ratio_after_swap": (
            median(after_swap), "ratio"
        ),
    }


# ----------------------------------------------------------------------
# The pass and its table
# ----------------------------------------------------------------------
def reconcile(
    workload: Workload, metrics: dict, p50_ms: float, traced_p50: float
) -> tuple[dict, str]:
    """The reconciliation table and the shares it derives.

    The rows tile a traced request: the client's round trip minus the
    server's own ``seconds``, then the server's echoed stages.  Their
    sum is compared with the traced p50; the untraced
    ``latency_p50_ms`` differs from that by the tracing overhead, which
    is its own row.
    """
    value = {name: v for name, (v, _) in metrics.items()}
    weights = {
        name: inputs.ESTIMATOR_BLOCK.count(name) / len(inputs.ESTIMATOR_BLOCK)
        for name in inputs.ESTIMATORS
    }
    core_ms = (1.0 - value["server.fast_path_ratio"]) * sum(
        weights[name] * value[f"service.session.cold_ms.{name}"]
        for name in inputs.ESTIMATORS
    )
    rows = [
        ("client, kernel, framing (rtt - server seconds)",
         value["server.wire_us"] / 1e3,
         "parse_request + encode_line",
         (value["server.protocol.parse_request_us"]
          + value["server.protocol.encode_line_us"]) / 1e3),
        ("server store_lookup (echoed)",
         value["server.server.store_lookup_us"] / 1e3, "", None),
        ("server cache_probe (echoed)",
         value["server.server.cache_probe_us"] / 1e3,
         "parse_pattern + canonical_key + peek",
         (value["query.parse_pattern_us"] + value["query.canonical_key_us"]
          + value["service.session.peek_us"]) / 1e3),
        ("server queue (echoed)", value["server.server.queue_ms"], "", None),
        ("server exec: core.* on a worker (echoed)",
         value["server.server.exec_ms"],
         "one cold estimate, mix-weighted x misses", core_ms),
    ]
    layer_sum = sum(row[1] for row in rows)
    residual = traced_p50 - layer_sum
    protocol_share = ratio(rows[0][1] + rows[1][1] + rows[2][1], traced_p50)
    core_share = ratio(rows[4][1], traced_p50)
    reconciles = abs(residual) <= RESIDUAL_SHARE * traced_p50
    lines = [
        f"# where a {workload.name} request spends its time (medians, ms)",
        f"#   {'layer':48s} {'ms':>9s}   {'in-process, beside it':42s} "
        f"{'ms':>9s}",
    ]
    for name, ms, beside, beside_ms in rows:
        extra = f"{beside:42s} {beside_ms:9.4f}" if beside_ms is not None else ""
        lines.append(f"#   {name:48s} {ms:9.4f}   {extra}")
    lines += [
        f"#   {'sum of layers':48s} {layer_sum:9.4f}",
        f"#   {'traced p50':48s} {traced_p50:9.4f}",
        f"#   {'residual (traced p50 - sum)':48s} {residual:9.4f}   "
        f"reconciles within {RESIDUAL_SHARE:.0%}: "
        f"{'yes' if reconciles else 'NO'}",
        f"#   {'tracing overhead (traced - untraced p50)':48s} "
        f"{traced_p50 - p50_ms:9.4f}",
        f"#   {'latency_p50_ms (untraced)':48s} {p50_ms:9.4f}",
        f"#   share of the traced p50: protocol, client and query "
        f"{protocol_share:.1%}; core.* (exec) {core_share:.1%}",
    ]
    shares = {
        "ledger.residual_ms": (residual, "ms"),
        "ledger.protocol_share": (protocol_share, "ratio"),
        "ledger.core_share": (core_share, "ratio"),
        "obs.tracing_overhead_ms": (traced_p50 - p50_ms, "ms"),
    }
    return shares, "\n".join(lines)


def traced(bench: Bench, workload: Workload, result: Result) -> tuple[dict, str]:
    """Replay ``result``'s run traced; returns per-layer metrics and table.

    The traced answers are checked like the untraced ones, and their
    failures are added to ``result``.
    """
    untraced = result.run
    seq = untraced.seq
    closed = workload.rate is None
    run = run_pass(
        bench, workload, seq,
        trace_log=bench.work / "trace.ndjson",
        indices=[r.index for r in untraced.records] if closed else None,
    )
    mismatches = check_churn(bench, run.churn)
    replayed = list(run.churn.records)
    if closed:
        mismatches += check_static(base_session(bench), seq, run.records)
        replayed += run.records
    result.attempted += len(replayed)
    result.failed += mismatches + sum(1 for r in replayed if not r.ok)

    store = StatisticsStore.load(bench.base)
    sample = [r for r in run.records if r.ok][:LAYER_SAMPLE]
    metrics = {}
    metrics.update(protocol_layers(seq, sample, bool(workload.warm(seq)), store))
    metrics.update(core_layers(seq, sample, store))
    metrics.update(offline_layers(bench))
    metrics["stats.build.total_s"] = (result.notes["build_s"], "s")
    metrics.update(server_layers(untraced, run))
    p50 = percentile(sorted(r.latency_ms for r in untraced.records), 50)
    traced_p50 = percentile(sorted(r.latency_ms for r in run.records), 50)
    shares, table = reconcile(workload, metrics, p50, traced_p50)
    metrics.update(shares)
    return metrics, table
