"""Command-line entry point: regenerate figures, build stats, serve batches.

Usage::

    python -m repro list
    python -m repro table2
    python -m repro fig9  --scale 0.08 --per-template 2
    python -m repro all   --scale 0.05 --per-template 1 --out results/
    python -m repro stats build --dataset example --out stats/example
    python -m repro stats inspect stats/example
    python -m repro batch -q "a -[A]-> b -[B]-> c" -e max-hop-max -e MOLP
    python -m repro batch --stats-dir stats/example -q "a -[A]-> b -[B]-> c"
    python -m repro batch --file queries.txt --dataset hetionet --repeat 3
    python -m repro updates apply --stats-dir stats/example --updates ops.json
    python -m repro updates replay --stats-dir stats/example --verify
    python -m repro serve --tenant example=stats/example --port 7421
    python -m repro query --port 7421 --tenant example -q "a -[A]-> b"
    python -m repro query --port 7421 --tenant example --apply-deltas
    python -m repro query --port 7421 --stats
    python -m repro obs summarize traces.ndjson
    python -m repro obs spans traces.ndjson --top 5
    python -m repro obs grep traces.ndjson --trace-id 4f2c...

Each experiment prints its table; ``--out DIR`` additionally writes one
``.txt`` per experiment.  ``stats build`` bulk-builds every summary for
a dataset and writes one versioned artifact directory; ``stats inspect``
prints its manifest and per-catalog sizes.  ``batch`` estimates a set of
ad-hoc queries through the cached
:class:`~repro.service.EstimationSession` and prints a JSON report
(estimates, per-query errors, cache statistics) — with ``--stats-dir``
it serves from a prebuilt artifact and never loads the base graph.

``batch`` exit codes: 0 — every estimate succeeded; 1 — at least one
query failed to estimate (its error is in the report); 2 — the request
itself is invalid (malformed query text, unknown estimator/dataset,
artifact/spec mismatch).  ``stats`` uses 0/2 the same way.

``serve`` runs the long-lived multi-tenant estimation server
(:mod:`repro.server`) over one or more prebuilt artifacts; ``query`` is
its blocking network client.  ``query`` extends the ``batch`` taxonomy
with exit code 3 for transient serving conditions — the server shed the
request (``overloaded``), the deadline expired (``--timeout`` maps to
the per-request deadline), the server is shutting down, or it cannot be
reached at all — where a retry may succeed.

``updates`` is the dynamic-graph plane: ``apply`` maintains an
artifact's catalogs incrementally under an edge-update batch and
publishes the result as a new generation image (a live server swaps to
it via ``query --apply-deltas``), and ``replay`` verifies the delta
lineage (and, with ``--verify``, bit-compares against a cold rebuild).

The batch verbs (``stats build``, ``updates apply``/``replay``) share
the offline observability flags
``--trace-log`` / ``--trace-log-keep`` / ``--metrics-out``: job traces
land in the same NDJSON shape the server writes and metrics land as a
Prometheus textfile-collector exposition.  ``obs`` analyses those logs
(either plane's): ``summarize`` / ``spans`` / ``audit`` / ``grep``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.catalog.cycle_rates import CycleClosingRates
from repro.datasets.presets import (
    DATASETS,
    EXAMPLE_DATASET,
    SYNTHETIC_DATASETS,
    load_dataset,
)
from repro.errors import BuildInterrupted, ReproError
from repro.graph.io import load_edge_list, load_npz, load_ntriples
from repro.experiments import (
    ExperimentConfig,
    figure9_acyclic_space,
    figure10_cyclic_triangles,
    figure11_large_cycles,
    figure12_bound_sketch,
    figure13_summary_comparison,
    figure14_wanderjoin,
    figure15_plan_quality,
    table1_markov_example,
    table2_datasets,
)
from repro.query.parser import parse_pattern
from repro.service.session import (
    OPTIMISTIC_NAMES,
    EstimationSession,
    EstimatorSpec,
)
from repro.stats import (
    StatisticsStore,
    StatsBuildConfig,
    build_statistics,
    inspect_artifact,
)

DATASET_CHOICES = sorted(DATASETS) + [EXAMPLE_DATASET]

#: ``stats build`` additionally accepts the large synthetic presets.
STATS_DATASET_CHOICES = (
    sorted(DATASETS) + sorted(SYNTHETIC_DATASETS) + [EXAMPLE_DATASET]
)

EXPERIMENTS = {
    "table1": lambda config: table1_markov_example(),
    "table2": table2_datasets,
    "fig9": figure9_acyclic_space,
    "fig10": figure10_cyclic_triangles,
    "fig11": figure11_large_cycles,
    "fig12": figure12_bound_sketch,
    "fig13": figure13_summary_comparison,
    "fig14": figure14_wanderjoin,
    "fig15": figure15_plan_quality,
}


def build_parser() -> argparse.ArgumentParser:
    """The experiment-runner argument parser (everything except ``batch``)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(EXPERIMENTS) + ["all", "list"],
        help="which experiment to run ('list' to enumerate)",
    )
    parser.add_argument("--scale", type=float, default=0.08,
                        help="dataset scale factor (default 0.08)")
    parser.add_argument("--per-template", type=int, default=2,
                        help="workload instances per template (default 2)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--h", type=int, default=3,
                        help="Markov table size for the estimator space")
    parser.add_argument("--out", type=Path, default=None,
                        help="directory to write result tables into")
    return parser


def build_batch_parser() -> argparse.ArgumentParser:
    """The ``repro batch`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro batch",
        description=(
            "Estimate a batch of queries through the cached estimation "
            "service and print a JSON report."
        ),
    )
    parser.add_argument(
        "-q", "--query", action="append", default=[], metavar="PATTERN",
        help="a query in arrow syntax, e.g. 'a -[A]-> b -[B]-> c' (repeatable)",
    )
    parser.add_argument(
        "--file", type=str, default=None, metavar="PATH",
        help="file with one query per line ('-' for stdin; '#' comments ok)",
    )
    parser.add_argument(
        "-e", "--estimator", action="append", default=[], metavar="NAME",
        help=(
            "estimator name: one of the nine max/min/all-hop heuristics "
            "(e.g. max-hop-max), 'all9' for the full space, 'MOLP', or "
            "'MOLP-sketch<K>'; repeatable (default: max-hop-max)"
        ),
    )
    parser.add_argument("--dataset", choices=DATASET_CHOICES,
                        default="hetionet",
                        help="preset dataset to estimate against")
    parser.add_argument("--stats-dir", type=Path, default=None, metavar="DIR",
                        help="serve from a prebuilt statistics artifact "
                             "(see 'repro stats build'); the base graph is "
                             "never loaded, --dataset/--scale/--h are taken "
                             "from its manifest, and --cycle-rates/--seed do "
                             "not apply (rates come from the artifact)")
    parser.add_argument("--scale", type=float, default=0.05,
                        help="dataset scale factor (default 0.05)")
    parser.add_argument("--h", type=int, default=3,
                        help="Markov table size (default 3)")
    parser.add_argument("--molp-h", type=int, default=2,
                        help="MOLP join-statistics size (default 2)")
    parser.add_argument("--cycle-rates", action="store_true",
                        help="sample cycle-closing rates (enables '+ocr' specs)")
    parser.add_argument("--seed", type=int, default=7,
                        help="seed for cycle-rate sampling")
    parser.add_argument("--workers", type=int, default=None,
                        help="thread-pool size for the batch (default: auto)")
    parser.add_argument("--repeat", type=int, default=1, metavar="N",
                        help="run the batch N times against one session "
                             "(later passes exercise the caches)")
    parser.add_argument("--indent", action="store_true",
                        help="pretty-print the JSON report")
    return parser


def _read_queries(args: argparse.Namespace) -> list[str]:
    texts = list(args.query)
    if args.file is not None:
        if args.file == "-":
            lines = sys.stdin.read().splitlines()
        else:
            lines = Path(args.file).read_text(encoding="utf-8").splitlines()
        for line in lines:
            stripped = line.strip()
            if stripped and not stripped.startswith("#"):
                texts.append(stripped)
    return texts


def _resolve_specs(names: list[str]) -> list[EstimatorSpec]:
    expanded: list[str] = []
    for name in names or ["max-hop-max"]:
        if name == "all9":
            expanded.extend(OPTIMISTIC_NAMES)
        else:
            expanded.append(name)
    specs: list[EstimatorSpec] = []
    seen: set[str] = set()
    for name in expanded:
        spec = EstimatorSpec.from_name(name)
        if spec.name not in seen:
            seen.add(spec.name)
            specs.append(spec)
    return specs


def run_batch(argv: list[str]) -> int:
    """The ``repro batch`` subcommand; returns a process exit code."""
    args = build_batch_parser().parse_args(argv)
    try:
        specs = _resolve_specs(args.estimator)
    except ValueError as error:
        print(f"repro batch: {error}", file=sys.stderr)
        return 2
    if args.stats_dir is not None and args.cycle_rates:
        print(
            "repro batch: --cycle-rates conflicts with --stats-dir — served "
            "rates come from the artifact (rebuild it with "
            "'repro stats build --cycle-rates --workload ...')",
            file=sys.stderr,
        )
        return 2
    if (
        any(spec.use_cycle_rates for spec in specs)
        and not args.cycle_rates
        and args.stats_dir is None
    ):
        print(
            "repro batch: '+ocr' estimators need --cycle-rates "
            "(or a --stats-dir artifact holding sampled rates)",
            file=sys.stderr,
        )
        return 2
    try:
        texts = _read_queries(args)
    except OSError as error:
        print(f"repro batch: cannot read query file: {error}", file=sys.stderr)
        return 2
    if not texts:
        print("repro batch: no queries given (use -q or --file)",
              file=sys.stderr)
        return 2
    try:
        patterns = [parse_pattern(text) for text in texts]
    except ReproError as error:
        print(f"repro batch: malformed query: {error}", file=sys.stderr)
        return 2
    started = time.perf_counter()
    if args.stats_dir is not None:
        # Serve-without-graph mode: every statistic comes from the
        # artifact; the base graph is never loaded or scanned.
        try:
            store = StatisticsStore.load(args.stats_dir)
        except ReproError as error:
            print(f"repro batch: {error}", file=sys.stderr)
            return 2
        for spec in specs:
            if spec.kind == "molp" and spec.sketch_budget > 1:
                print(
                    f"repro batch: {spec.name!r} partitions base relations "
                    "and cannot run from --stats-dir (use plain MOLP)",
                    file=sys.stderr,
                )
                return 2
            # A query whose cyclic shape the artifact's rates don't cover
            # fails per-query with MissingStatisticError (exit 1); only
            # an artifact with no rate table at all is a request error.
            if spec.use_cycle_rates and store.cycle_rates is None:
                print(
                    f"repro batch: {spec.name!r} needs cycle rates but the "
                    "artifact holds none (rebuild with --cycle-rates and a "
                    "--workload)",
                    file=sys.stderr,
                )
                return 2
        session = store.session(max_workers=args.workers)
        # Provenance comes from the manifest alone: an artifact built
        # outside `repro stats build` may not record a dataset name or
        # scale, and the --dataset/--scale defaults describe a different
        # graph entirely.
        dataset_name = store.manifest.dataset_name or None
        graph_summary = store.manifest.graph_summary
        scale = store.manifest.build_config.get("scale")
    else:
        try:
            graph = load_dataset(args.dataset, args.scale)
        except ReproError as error:
            print(f"repro batch: {error}", file=sys.stderr)
            return 2
        rates = (
            CycleClosingRates(graph, seed=args.seed)
            if args.cycle_rates else None
        )
        session = EstimationSession(
            graph,
            h=args.h,
            molp_h=args.molp_h,
            cycle_rates=rates,
            max_workers=args.workers,
        )
        dataset_name = args.dataset
        graph_summary = {
            "num_vertices": graph.num_vertices,
            "num_edges": graph.num_edges,
        }
        scale = args.scale
    repeats = max(args.repeat, 1)
    for _ in range(repeats):
        batch = session.estimate_batch(patterns, specs=specs)
    report = {
        "dataset": dataset_name,
        "scale": scale,
        "stats_dir": str(args.stats_dir) if args.stats_dir else None,
        "graph": {
            "vertices": graph_summary.get("num_vertices"),
            "edges": graph_summary.get("num_edges"),
        },
        "estimators": batch.specs,
        "num_queries": len(patterns),
        "repeat": repeats,
        "results": [
            {
                "index": index,
                "query": text,
                "estimates": {
                    name: batch.item(index, name).estimate
                    for name in batch.specs
                    if batch.item(index, name).ok
                },
                "errors": {
                    name: batch.item(index, name).error
                    for name in batch.specs
                    if not batch.item(index, name).ok
                },
            }
            for index, text in enumerate(texts)
        ],
        "cache": session.stats().as_dict(),
        "elapsed_seconds": time.perf_counter() - started,
    }
    print(json.dumps(report, indent=2 if args.indent else None))
    return 0 if batch.ok else 1


def _add_job_telemetry_flags(parser: argparse.ArgumentParser) -> None:
    """The offline-plane observability flags shared by the batch verbs.

    ``repro stats build`` and ``repro updates apply``/``replay`` all
    take the same three switches so one
    ``repro obs`` toolkit (and one Prometheus textfile collector) reads
    every plane's output.
    """
    parser.add_argument("--trace-log", default=None, metavar="PATH",
                        help="append this job's trace record (per-level / "
                             "per-generation spans) as NDJSON to PATH — the "
                             "same record shape the server writes, readable "
                             "by 'repro obs'")
    parser.add_argument("--trace-log-keep", type=int, default=1, metavar="N",
                        help="rotated trace-log generations to keep "
                             "(PATH.1 .. PATH.N; default 1)")
    parser.add_argument("--metrics-out", default=None, metavar="PATH",
                        help="write the job's metrics as a Prometheus "
                             "textfile-collector exposition to PATH "
                             "(atomic tmp+rename)")


def _job_telemetry(args: argparse.Namespace, verb: str):
    """A JobTelemetry when any observability flag is set, else None.

    None keeps the un-instrumented path literally free — the builders
    skip every telemetry hook on a None bundle.
    """
    from repro.obs.offline import JobTelemetry

    if not args.trace_log and not args.metrics_out:
        return None
    return JobTelemetry(
        verb,
        trace_log=args.trace_log,
        metrics_out=args.metrics_out,
        trace_log_keep=args.trace_log_keep,
    )


def build_stats_parser() -> argparse.ArgumentParser:
    """The ``repro stats build`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro stats build",
        description=(
            "Bulk-build every estimator summary for a dataset and write "
            "one versioned statistics artifact directory."
        ),
    )
    parser.add_argument("--dataset", choices=STATS_DATASET_CHOICES,
                        default=EXAMPLE_DATASET,
                        help="preset dataset to build statistics for")
    parser.add_argument("--scale", type=float, default=0.05,
                        help="dataset scale factor (default 0.05)")
    parser.add_argument("--graph", type=Path, default=None, metavar="FILE",
                        help="build from a graph file instead of a preset: "
                             ".npz (numpy artifact), .nt[.gz] (N-Triples), "
                             "or a [gzipped] edge list")
    parser.add_argument("--mmap", action="store_true",
                        help="memory-map the relation arrays of an "
                             "uncompressed --graph .npz instead of copying "
                             "them into memory")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes for the enumeration levels "
                             "(default 1; the artifact is byte-identical "
                             "for every N)")
    parser.add_argument("--resume", action="store_true",
                        help="continue from the checkpoint a killed build "
                             "left under OUT/build_state/")
    parser.add_argument("--stop-after-level", type=int, default=None,
                        metavar="K",
                        help="checkpoint and stop once level K completes "
                             "(exit 3); rerun with --resume to finish — "
                             "used by the resume smoke tests")
    parser.add_argument("--h", type=int, default=2,
                        help="Markov table size (default 2)")
    parser.add_argument("--molp-h", type=int, default=2,
                        help="MOLP join-statistics size (default 2)")
    parser.add_argument(
        "--workload", choices=["full", "acyclic", "cyclic", "both"],
        default="full",
        help="'full' enumerates every connected pattern over the label "
             "set; the others build workload-directed statistics for the "
             "named template family (default full)",
    )
    parser.add_argument("--per-template", type=int, default=2,
                        help="instances per template for workload-directed "
                             "builds (default 2)")
    parser.add_argument("--seed", type=int, default=7,
                        help="workload / cycle-rate sampling seed")
    parser.add_argument("--cycle-rates", action="store_true",
                        help="sample cycle-closing rates (workload-directed "
                             "builds only)")
    parser.add_argument("--out", type=Path, required=True, metavar="DIR",
                        help="artifact directory to write")
    parser.add_argument("--indent", action="store_true",
                        help="pretty-print the JSON summary")
    _add_job_telemetry_flags(parser)
    return parser


def _load_graph_file(path: Path, mmap: bool = False):
    """Load a graph file for ``stats build --graph`` by suffix."""
    suffixes = [s.lower() for s in path.suffixes]
    if suffixes[-1:] == [".npz"]:
        return load_npz(path, mmap=mmap)
    if ".nt" in suffixes:
        return load_ntriples(path)
    return load_edge_list(path)


def _build_workload(args: argparse.Namespace, graph) -> list | None:
    from repro.datasets.workloads import acyclic_workload, cyclic_workload

    if args.workload == "full":
        return None
    queries = []
    if args.workload in ("acyclic", "both"):
        queries += acyclic_workload(
            graph, per_template=args.per_template, seed=args.seed
        )
    if args.workload in ("cyclic", "both"):
        queries += cyclic_workload(
            graph, per_template=args.per_template, seed=args.seed
        )
    return [query.pattern for query in queries]


def run_stats(argv: list[str]) -> int:
    """The ``repro stats`` subcommand; returns a process exit code."""
    if not argv or argv[0] not in ("build", "inspect"):
        print(
            "repro stats: expected a subcommand: build | inspect DIR",
            file=sys.stderr,
        )
        return 2
    if argv[0] == "inspect":
        if len(argv) != 2:
            print("repro stats inspect: expected one DIR", file=sys.stderr)
            return 2
        try:
            report = inspect_artifact(argv[1])
        except ReproError as error:
            print(f"repro stats inspect: {error}", file=sys.stderr)
            return 2
        print(json.dumps(report, indent=2))
        return 0
    args = build_stats_parser().parse_args(argv[1:])
    if args.cycle_rates and args.workload == "full":
        print(
            "repro stats build: --cycle-rates is workload-directed (rates "
            "are sampled for the cycles the queries close); pass "
            "--workload acyclic|cyclic|both",
            file=sys.stderr,
        )
        return 2
    try:
        if args.graph is not None:
            graph = _load_graph_file(args.graph, mmap=args.mmap)
            dataset_name = args.graph.name
        else:
            graph = load_dataset(args.dataset, args.scale)
            dataset_name = args.dataset
    except ReproError as error:
        print(f"repro stats build: {error}", file=sys.stderr)
        return 2
    config = StatsBuildConfig(
        h=args.h,
        molp_h=args.molp_h,
        cycle_rates=args.cycle_rates,
        cycle_seed=args.seed,
    )
    workload = _build_workload(args, graph)
    telemetry = _job_telemetry(args, "stats.build")
    try:
        store = build_statistics(
            graph,
            config,
            workload=workload,
            dataset_name=dataset_name,
            jobs=args.jobs,
            checkpoint_dir=args.out,
            resume=args.resume,
            stop_after_level=args.stop_after_level,
            telemetry=telemetry,
        )
    except BuildInterrupted as event:
        # The partial build's spans (completed levels, the checkpoint
        # write) are still worth a record: finish the trace as not-ok so
        # 'repro obs' can see what the interrupted run paid for.
        if telemetry is not None:
            telemetry.finish(
                ok=False, event="build_interrupted", out=str(args.out)
            )
        print(json.dumps({
            "event": "build_interrupted",
            "out": str(args.out),
            "detail": str(event),
            "resume_with": "--resume",
        }, indent=2 if args.indent else None))
        return 3
    except ReproError as error:
        if telemetry is not None:
            telemetry.finish(ok=False, error=str(error))
        print(f"repro stats build: {error}", file=sys.stderr)
        return 2
    store.manifest.build_config["scale"] = args.scale
    store.save(args.out)
    if telemetry is not None:
        telemetry.finish(ok=True, dataset=dataset_name, out=str(args.out))
    summary = {
        "out": str(args.out),
        "dataset": dataset_name,
        "mode": store.manifest.build_config.get("mode"),
        "complete": store.manifest.complete,
        "markov_entries": store.markov.num_entries,
        "degree_relations": store.degrees.num_entries,
        "cycle_rate_entries": (
            store.cycle_rates.num_entries
            if store.cycle_rates is not None else 0
        ),
        "build_seconds": store.manifest.build_config.get("build_seconds"),
        "jobs": store.manifest.build_config.get("jobs"),
        "levels": store.manifest.build_config.get("levels"),
        "peak_level_width": store.manifest.build_config.get(
            "peak_level_width"
        ),
        "total_bytes": inspect_artifact(args.out)["total_bytes"],
    }
    print(json.dumps(summary, indent=2 if args.indent else None))
    return 0


def build_updates_apply_parser() -> argparse.ArgumentParser:
    """The ``repro updates apply`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro updates apply",
        description=(
            "Apply one edge-update batch to a statistics artifact: the "
            "catalogs are maintained incrementally (bit-identical to a "
            "cold rebuild on the mutated graph), a versioned "
            "deltas/NNNN.json update log is appended, and the result is "
            "published as the artifact's next generation image."
        ),
    )
    parser.add_argument("--stats-dir", type=Path, required=True, metavar="DIR",
                        help="statistics artifact directory to update")
    parser.add_argument("--updates", type=Path, required=True, metavar="FILE",
                        help="JSON update file: {'updates': [[op, src, dst, "
                             "label], ...]} with op '+'/'-'")
    parser.add_argument("--dataset", choices=DATASET_CHOICES, default=None,
                        help="base dataset preset (default: the artifact "
                             "manifest's dataset_name)")
    parser.add_argument("--scale", type=float, default=None,
                        help="base dataset scale (default: from the manifest)")
    parser.add_argument("--compact-threshold", type=float, default=0.2,
                        metavar="FRACTION",
                        help="fall back to a cold rebuild when the "
                             "effective update volume "
                             "exceeds this fraction of the graph's edges "
                             "(default 0.2; artifacts with workload-primed "
                             "cycle rates/entropy stay incremental — the "
                             "report's ledger says so)")
    parser.add_argument("--indent", action="store_true",
                        help="pretty-print the JSON report")
    _add_job_telemetry_flags(parser)
    return parser


def build_updates_replay_parser() -> argparse.ArgumentParser:
    """The ``repro updates replay`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro updates replay",
        description=(
            "Replay an artifact's delta lineage: re-derive the mutated "
            "graph from the base dataset plus the recorded update logs, "
            "verifying every fingerprint in the chain.  With --verify, "
            "additionally rebuild the statistics cold from the replayed "
            "graph and diff them against the artifact (the differential "
            "gate as a CLI)."
        ),
    )
    parser.add_argument("--stats-dir", type=Path, required=True, metavar="DIR")
    parser.add_argument("--dataset", choices=DATASET_CHOICES, default=None,
                        help="base dataset preset (default: from the manifest)")
    parser.add_argument("--scale", type=float, default=None,
                        help="base dataset scale (default: from the manifest)")
    parser.add_argument("--verify", action="store_true",
                        help="cold-rebuild the replayed graph and require "
                             "bit-identical catalogs (exit 1 on mismatch)")
    parser.add_argument("--indent", action="store_true")
    _add_job_telemetry_flags(parser)
    return parser


def _updates_base_graph(args: argparse.Namespace, manifest):
    """Resolve and load the base dataset an artifact was built from."""
    dataset = args.dataset or manifest.dataset_name
    if not dataset:
        raise ReproError(
            "the artifact manifest records no dataset_name; pass --dataset"
        )
    scale = args.scale
    if scale is None:
        scale = float(manifest.build_config.get("scale", 1.0))
    return dataset, scale, load_dataset(dataset, scale)


def run_updates(argv: list[str]) -> int:
    """The ``repro updates`` subcommand; returns a process exit code."""
    from repro.delta import apply_updates, replay_graph
    from repro.delta.maintain import config_from_manifest
    from repro.delta.updates import UpdateBatch
    from repro.stats.artifact import StoreManifest

    if not argv or argv[0] not in ("apply", "replay"):
        print(
            "repro updates: expected a subcommand: apply | replay",
            file=sys.stderr,
        )
        return 2
    if argv[0] == "apply":
        args = build_updates_apply_parser().parse_args(argv[1:])
        telemetry = _job_telemetry(args, "updates.apply")
        try:
            manifest = StoreManifest.load(args.stats_dir)
            _, _, base_graph = _updates_base_graph(args, manifest)
            graph = replay_graph(
                base_graph, args.stats_dir, telemetry=telemetry
            )
            store = StatisticsStore.load(args.stats_dir, graph=graph)
            batch = UpdateBatch.load(args.updates)
            outcome = apply_updates(
                store,
                batch,
                directory=args.stats_dir,
                compact_threshold=args.compact_threshold,
                telemetry=telemetry,
            )
        except ReproError as error:
            if telemetry is not None:
                telemetry.finish(ok=False, error=str(error))
            print(f"repro updates apply: {error}", file=sys.stderr)
            return 2
        if telemetry is not None:
            telemetry.finish(ok=True, stats_dir=str(args.stats_dir))
        print(
            json.dumps(
                outcome.as_dict(), indent=2 if args.indent else None
            )
        )
        return 0
    args = build_updates_replay_parser().parse_args(argv[1:])
    telemetry = _job_telemetry(args, "updates.replay")
    try:
        manifest = StoreManifest.load(args.stats_dir)
        dataset, scale, base_graph = _updates_base_graph(args, manifest)
        graph = replay_graph(base_graph, args.stats_dir, telemetry=telemetry)
    except ReproError as error:
        if telemetry is not None:
            telemetry.finish(ok=False, error=str(error))
        print(f"repro updates replay: {error}", file=sys.stderr)
        return 2
    report = {
        "stats_dir": str(args.stats_dir),
        "dataset": dataset,
        "scale": scale,
        "base_fingerprint": manifest.base_fingerprint,
        "fingerprint": manifest.dataset_fingerprint,
        "generation": manifest.generation,
        "image": manifest.image,
        "deltas": [
            {
                "generation": entry.get("generation"),
                "file": entry.get("file"),
                "inserts": entry.get("inserts"),
                "deletes": entry.get("deletes"),
                "applied_at": entry.get("applied_at"),
                "compacted": entry.get("compacted", False),
            }
            for entry in manifest.deltas
        ],
        "graph": {"vertices": graph.num_vertices, "edges": graph.num_edges},
    }
    exit_code = 0
    if args.verify:
        from repro.stats import build_statistics

        if manifest.build_config.get("mode") not in (None, "full"):
            if telemetry is not None:
                telemetry.finish(ok=False, error="workload-directed artifact")
            print(
                "repro updates replay: --verify needs a full-enumeration "
                "artifact (workload-directed builds have no recorded "
                "workload to rebuild from)",
                file=sys.stderr,
            )
            return 2
        try:
            loaded = StatisticsStore.load(args.stats_dir)
            cold = build_statistics(
                graph,
                config_from_manifest(manifest),
                dataset_name=manifest.dataset_name,
            )
        except ReproError as error:
            if telemetry is not None:
                telemetry.finish(ok=False, error=str(error))
            print(f"repro updates replay: {error}", file=sys.stderr)
            return 2
        checks = {
            "markov": loaded.markov.to_artifact()
            == cold.markov.to_artifact(),
            "degrees": loaded.degrees.to_artifact()
            == cold.degrees.to_artifact(),
        }
        if loaded.characteristic_sets is not None:
            fresh = cold.characteristic_sets
            checks["characteristic_sets"] = (
                fresh is not None
                and loaded.characteristic_sets.to_artifact()
                == fresh.to_artifact()
            )
        report["verified"] = checks
        # Catalogs present in the artifact that a cross-process cold
        # rebuild cannot reproduce byte-for-byte are listed explicitly,
        # never silently passed: SumRDF buckets by the per-process
        # hash; cycle rates are a resampled statistic; entropy entries
        # are primed in workload order the artifact does not record.
        skipped = []
        if loaded.sumrdf is not None:
            skipped.append("sumrdf")
        if loaded.cycle_rates is not None:
            skipped.append("cycle_rates")
        if loaded.entropy is not None:
            skipped.append("entropy")
        report["skipped"] = skipped
        if not all(checks.values()):
            exit_code = 1
    if telemetry is not None:
        telemetry.finish(
            ok=exit_code == 0,
            stats_dir=str(args.stats_dir),
            generation=manifest.generation,
            verified=args.verify,
        )
    print(json.dumps(report, indent=2 if args.indent else None))
    return exit_code


def build_serve_parser() -> argparse.ArgumentParser:
    """The ``repro serve`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description=(
            "Run the multi-tenant estimation server over prebuilt "
            "statistics artifacts (NDJSON over TCP; see repro.server)."
        ),
    )
    parser.add_argument(
        "--tenant", action="append", default=[], metavar="NAME=DIR",
        help="register one tenant serving the artifact in DIR "
             "(repeatable; at least one required)",
    )
    parser.add_argument("--host", default="127.0.0.1",
                        help="interface to bind (default 127.0.0.1)")
    parser.add_argument("--port", type=int, default=7421,
                        help="TCP port (default 7421; 0 picks a free port, "
                             "printed in the ready line)")
    parser.add_argument("--max-inflight", type=int, default=8,
                        help="estimation requests computed concurrently "
                             "(default 8)")
    parser.add_argument("--queue-limit", type=int, default=64,
                        help="admitted requests allowed to wait beyond "
                             "--max-inflight before shedding (default 64)")
    parser.add_argument("--deadline-ms", type=float, default=30_000.0,
                        help="default per-request deadline, queue time "
                             "included (default 30000)")
    parser.add_argument("--workers", type=int, default=0, metavar="N",
                        help="run a supervised fleet of N worker processes "
                             "sharing the port (SO_REUSEPORT), artifacts "
                             "loaded once pre-fork; 0 (default) serves "
                             "single-process in this process")
    parser.add_argument("--trace-log", default=None, metavar="PATH",
                        help="write per-request trace + slow-query records "
                             "as NDJSON to PATH (size-rotated at 32 MiB; "
                             "append-safe across fleet workers; default: no "
                             "trace log)")
    parser.add_argument("--trace-log-keep", type=int, default=1, metavar="N",
                        help="rotated trace-log generations to keep "
                             "(PATH.1 .. PATH.N, oldest discarded; "
                             "default 1)")
    parser.add_argument("--slow-query-ms", type=float, default=500.0,
                        help="capture requests slower than this in the "
                             "slow-query log (default 500; 0 disables "
                             "slow-query capture entirely)")
    parser.add_argument("--audit-rate", type=float, default=0.0,
                        help="fraction of served estimates the background "
                             "audit probe re-runs against WanderJoin ground "
                             "truth, publishing per-estimator q-error "
                             "histograms (default 0 = off)")
    parser.add_argument("--audit-tenant", default=None, metavar="NAME",
                        help="restrict the audit probe to one reference "
                             "tenant (default: any tenant whose manifest "
                             "names a loadable dataset)")
    parser.add_argument("--no-telemetry", action="store_true",
                        help="disable request tracing, the trace log, "
                             "slow-query capture and the audit probe "
                             "(metrics counters stay on; the overhead "
                             "benchmark's baseline)")
    return parser


def run_serve(argv: list[str]) -> int:
    """The ``repro serve`` subcommand; returns a process exit code."""
    import asyncio
    import signal

    from repro.server import EstimationServer, ServerConfig, StoreRegistry

    args = build_serve_parser().parse_args(argv)
    if not args.tenant:
        print(
            "repro serve: at least one --tenant NAME=DIR is required",
            file=sys.stderr,
        )
        return 2
    registry = StoreRegistry()
    for item in args.tenant:
        name, separator, path = item.partition("=")
        if not separator or not name or not path:
            print(
                f"repro serve: bad --tenant {item!r}; expected NAME=DIR",
                file=sys.stderr,
            )
            return 2
        try:
            registry.load(name, path)
        except ReproError as error:
            print(f"repro serve: tenant {name!r}: {error}", file=sys.stderr)
            return 2
    try:
        config = ServerConfig(
            host=args.host,
            port=args.port,
            max_inflight=args.max_inflight,
            queue_limit=args.queue_limit,
            default_deadline_ms=args.deadline_ms,
            telemetry=not args.no_telemetry,
            trace_log=args.trace_log,
            trace_log_keep=args.trace_log_keep,
            slow_query_ms=args.slow_query_ms,
            audit_rate=args.audit_rate,
            audit_tenant=args.audit_tenant,
        )
    except ValueError as error:
        print(f"repro serve: {error}", file=sys.stderr)
        return 2
    if args.workers < 0:
        print("repro serve: --workers must be >= 0", file=sys.stderr)
        return 2
    if args.workers:
        # Fleet mode: the registry above was loaded pre-fork on purpose —
        # workers inherit the mapped generation images.
        from repro.server import FleetSupervisor

        supervisor = FleetSupervisor(registry, config, workers=args.workers)
        try:
            supervisor.start()
        except (ReproError, OSError, RuntimeError) as error:
            print(f"repro serve: {error}", file=sys.stderr)
            return 1
        return supervisor.run()

    # Single-process serving: the loaded artifacts are immortal, so
    # freezing them keeps gen-2 collections from traversing the whole
    # statistics heap mid-request (the fleet supervisor does the same
    # pre-fork; see repro.server.fleet).
    import gc

    gc.collect()
    gc.freeze()

    async def serve() -> int:
        server = EstimationServer(registry, config)
        host, port = await server.start()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, server.request_shutdown)
            except NotImplementedError:  # pragma: no cover - non-POSIX
                pass
        # One machine-readable ready line so wrappers (CI, the load
        # benchmark) can wait for startup and discover a --port 0 bind.
        print(
            json.dumps(
                {
                    "event": "ready",
                    "host": host,
                    "port": port,
                    "tenants": registry.names(),
                }
            ),
            flush=True,
        )
        await server.run_until_shutdown()
        print(json.dumps({"event": "stopped"}), flush=True)
        return 0

    return asyncio.run(serve())


def build_query_parser() -> argparse.ArgumentParser:
    """The ``repro query`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro query",
        description=(
            "Query a running estimation server (the blocking client of "
            "'repro serve') and print a JSON report."
        ),
    )
    parser.add_argument("--host", default="127.0.0.1",
                        help="server host (default 127.0.0.1)")
    parser.add_argument("--port", type=int, default=7421,
                        help="server port (default 7421)")
    parser.add_argument("--tenant", default=None, metavar="NAME",
                        help="tenant to estimate against (required for "
                             "queries and --reload)")
    parser.add_argument(
        "-q", "--query", action="append", default=[], metavar="PATTERN",
        help="a query in arrow syntax (repeatable)",
    )
    parser.add_argument(
        "--file", type=str, default=None, metavar="PATH",
        help="file with one query per line ('-' for stdin; '#' comments ok)",
    )
    parser.add_argument(
        "-e", "--estimator", action="append", default=[], metavar="NAME",
        help="estimator name ('all9' expands to the nine heuristics); "
             "repeatable (default: max-hop-max)",
    )
    parser.add_argument("--deadline-ms", type=float, default=None,
                        help="per-request deadline sent to the server "
                             "(overrides --timeout)")
    parser.add_argument("--timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="client-side deadline in seconds: sent to the "
                             "server as the per-request deadline (unless "
                             "--deadline-ms overrides it) and enforced on "
                             "the socket with a small grace; expiry exits 3 "
                             "(default: 60s socket timeout, server-default "
                             "deadline)")
    parser.add_argument("--stats", action="store_true",
                        help="print the server's stats snapshot instead of "
                             "estimating")
    parser.add_argument("--metrics", action="store_true",
                        help="print the server's metrics as Prometheus text "
                             "exposition (fleet-merged when the server runs "
                             "workers) instead of estimating")
    parser.add_argument("--reload", metavar="DIR", default=None,
                        dest="reload_path", nargs="?", const="",
                        help="hot-reload --tenant from DIR (or its current "
                             "directory when DIR is omitted)")
    parser.add_argument("--apply-deltas", action="store_true",
                        help="refresh --tenant live from the delta chain "
                             "appended to its artifact by "
                             "'repro updates apply'")
    parser.add_argument("--allow-fingerprint-change", action="store_true",
                        help="let --reload repoint the tenant at an artifact "
                             "of a different dataset")
    parser.add_argument("--shutdown", action="store_true",
                        help="ask the server to drain and exit")
    parser.add_argument("--indent", action="store_true",
                        help="pretty-print the JSON report")
    return parser


def run_query(argv: list[str]) -> int:
    """The ``repro query`` subcommand; returns a process exit code."""
    from repro.server import (
        EstimationClient,
        ServerError,
        ServerUnavailable,
    )

    args = build_query_parser().parse_args(argv)
    indent = 2 if args.indent else None
    modes = [
        bool(args.stats),
        bool(args.metrics),
        args.reload_path is not None,
        bool(args.apply_deltas),
        bool(args.shutdown),
        bool(args.query or args.file),
    ]
    if sum(modes) != 1:
        print(
            "repro query: choose exactly one of --stats, --metrics, "
            "--reload, --apply-deltas, --shutdown, or queries (-q/--file)",
            file=sys.stderr,
        )
        return 2
    if args.timeout is not None and args.timeout <= 0:
        print("repro query: --timeout must be positive", file=sys.stderr)
        return 2
    # --timeout is the client-side deadline: it rides to the server as
    # the per-request deadline (so expiry comes back as a typed
    # deadline_exceeded, exit 3) while the socket timeout gets a small
    # grace on top so the server's answer can still arrive; a socket
    # that stays silent past the grace is ServerUnavailable — exit 3 too.
    deadline_ms = args.deadline_ms
    if deadline_ms is None and args.timeout is not None:
        deadline_ms = args.timeout * 1000.0
    socket_timeout = 60.0 if args.timeout is None else args.timeout + 2.0
    try:
        with EstimationClient(
            args.host, args.port, timeout=socket_timeout
        ) as client:
            if args.stats:
                print(json.dumps(client.stats(), indent=indent))
                return 0
            if args.metrics:
                # Raw Prometheus text, scrapeable as-is: pipe it to a
                # file and point a Prometheus textfile collector at it.
                print(client.metrics().get("exposition", ""), end="")
                return 0
            if args.shutdown:
                print(json.dumps(client.shutdown(), indent=indent))
                return 0
            if args.apply_deltas:
                if args.tenant is None:
                    print(
                        "repro query: --apply-deltas needs --tenant",
                        file=sys.stderr,
                    )
                    return 2
                result = client.apply_deltas(args.tenant)
                print(json.dumps(result, indent=indent))
                return 0
            if args.reload_path is not None:
                if args.tenant is None:
                    print(
                        "repro query: --reload needs --tenant",
                        file=sys.stderr,
                    )
                    return 2
                result = client.reload(
                    args.tenant,
                    path=args.reload_path or None,
                    allow_fingerprint_change=args.allow_fingerprint_change,
                )
                print(json.dumps(result, indent=indent))
                return 0
            if args.tenant is None:
                print("repro query: queries need --tenant", file=sys.stderr)
                return 2
            try:
                specs = _resolve_specs(args.estimator)
            except ValueError as error:
                print(f"repro query: {error}", file=sys.stderr)
                return 2
            try:
                texts = _read_queries(args)
            except OSError as error:
                print(
                    f"repro query: cannot read query file: {error}",
                    file=sys.stderr,
                )
                return 2
            if not texts:
                print(
                    "repro query: no queries given (use -q or --file)",
                    file=sys.stderr,
                )
                return 2
            estimators = [spec.name for spec in specs]
            results = []
            failed_cells = False
            for text in texts:
                result = client.estimate(
                    args.tenant,
                    text,
                    estimators=estimators,
                    deadline_ms=deadline_ms,
                )
                failed_cells = failed_cells or bool(result.get("errors"))
                results.append(result)
            report = {
                "server": f"{args.host}:{args.port}",
                "tenant": args.tenant,
                "estimators": estimators,
                "num_queries": len(results),
                "results": results,
            }
            print(json.dumps(report, indent=indent))
            return 1 if failed_cells else 0
    except ServerError as error:
        print(f"repro query: {error}", file=sys.stderr)
        return error.exit_code
    except ServerUnavailable as error:
        print(f"repro query: {error}", file=sys.stderr)
        return 3


def build_obs_parser() -> argparse.ArgumentParser:
    """The ``repro obs`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro obs",
        description=(
            "Analyse the observability plane's NDJSON logs (server "
            "--trace-log output and the batch verbs' job traces): "
            "'summarize' rolls up request counts and p50/p95/p99 "
            "latency with the slow-query table, 'spans' profiles self "
            "time per stage with coalesce fan-in and the top offenders, "
            "'audit' reports the q-error distribution per estimator and "
            "shape class, 'grep' reassembles one trace id across fleet "
            "workers."
        ),
    )
    parser.add_argument(
        "command", choices=["summarize", "spans", "audit", "grep"],
        help="which analysis to run",
    )
    parser.add_argument("logs", nargs="+", type=Path, metavar="LOG",
                        help="NDJSON trace-log path(s); each path's "
                             "rotated backups (LOG.1 .. LOG.N) are read "
                             "too, oldest first")
    parser.add_argument("--top", type=int, default=10, metavar="K",
                        help="rows in the top-K tables (slow queries, "
                             "span offenders, worst audits; default 10)")
    parser.add_argument("--trace-id", default=None, metavar="ID",
                        help="the trace to reassemble (grep only)")
    parser.add_argument("--no-rotated", action="store_true",
                        help="read only the named files, not their "
                             "rotated backups")
    parser.add_argument("--indent", action="store_true",
                        help="pretty-print the JSON report")
    return parser


def run_obs(argv: list[str]) -> int:
    """The ``repro obs`` subcommand; returns a process exit code."""
    from repro.obs.analyze import (
        audit_report,
        grep_trace,
        load_records,
        span_profile,
        summarize,
    )

    args = build_obs_parser().parse_args(argv)
    if args.command == "grep" and not args.trace_id:
        print("repro obs grep: --trace-id is required", file=sys.stderr)
        return 2
    missing = [
        str(path) for path in args.logs
        if not path.exists()
        and not path.with_name(f"{path.name}.1").exists()
    ]
    if missing:
        print(
            f"repro obs: no such trace log: {', '.join(missing)}",
            file=sys.stderr,
        )
        return 2
    records = load_records(args.logs, include_rotated=not args.no_rotated)
    if args.command == "summarize":
        report = summarize(records, top=args.top)
    elif args.command == "spans":
        report = span_profile(records, top=args.top)
    elif args.command == "audit":
        report = audit_report(records, top=args.top)
    else:
        report = grep_trace(records, args.trace_id)
    print(json.dumps(report, indent=2 if args.indent else None))
    return 0


def main(argv: list[str] | None = None) -> int:
    """Run the selected experiment(s), stats/serve/query command, or batch."""
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] == "batch":
        return run_batch(argv[1:])
    if argv and argv[0] == "stats":
        return run_stats(argv[1:])
    if argv and argv[0] == "updates":
        return run_updates(argv[1:])
    if argv and argv[0] == "serve":
        return run_serve(argv[1:])
    if argv and argv[0] == "query":
        return run_query(argv[1:])
    if argv and argv[0] == "obs":
        return run_obs(argv[1:])
    args = build_parser().parse_args(argv)
    if args.experiment == "list":
        for name in sorted(EXPERIMENTS):
            print(name)
        return 0
    config = ExperimentConfig(
        scale=args.scale,
        per_template=args.per_template,
        seed=args.seed,
        h=args.h,
    )
    chosen = (
        sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    )
    for name in chosen:
        started = time.perf_counter()
        _, rendered = EXPERIMENTS[name](config)
        elapsed = time.perf_counter() - started
        print(rendered)
        print(f"[{name} done in {elapsed:.1f}s]\n")
        if args.out is not None:
            args.out.mkdir(parents=True, exist_ok=True)
            (args.out / f"{name}.txt").write_text(rendered, encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
