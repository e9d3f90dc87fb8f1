"""Incremental statistics maintenance vs full rebuild under small updates.

The dynamic-graph proposition: a sub-MB summary should track graph
mutations at a cost proportional to the *update batch*, not to the
graph.  This benchmark builds full-enumeration statistics for a
mid-size preset, applies a sequence of small randomized insert/delete
batches through :func:`repro.delta.maintain.apply_updates`, and compares
against rebuilding the statistics cold after every batch.

Correctness is asserted on every round before timing is even reported:
the incrementally maintained Markov table and degree catalog must be
**bit-identical** (as artifact payloads) to the cold rebuild on the
mutated graph.  Acceptance bar: >= 5x cheaper than rebuild per batch
(>= 1x in ``--quick`` mode).

Runs standalone: ``python benchmarks/bench_delta_maintenance.py
[--quick] [--json PATH]``.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.datasets import load_dataset  # noqa: E402
from repro.delta import apply_updates, random_update_batch  # noqa: E402
from repro.stats import StatsBuildConfig, build_statistics  # noqa: E402
from repro.stats.flatpack import degree_images_equal  # noqa: E402


def run(quick: bool = False) -> dict:
    scale = 0.02 if quick else 0.05
    rounds = 2 if quick else 4
    # "Small" means small relative to the label set too: 4 ops touch at
    # most 4 of hetionet's 24 labels, so most catalog keys are provably
    # unaffected and skipped — the regime incremental maintenance is for.
    batch_ops = 4
    graph = load_dataset("hetionet", scale)
    config = StatsBuildConfig(h=2, molp_h=2)

    started = time.perf_counter()
    store = build_statistics(graph, config, dataset_name="hetionet")
    initial_build_seconds = time.perf_counter() - started

    rng = random.Random(20260730)
    delta_seconds = 0.0
    rebuild_seconds = 0.0
    modes: list[str] = []
    for round_index in range(rounds):
        batch = random_update_batch(
            store.graph, rng, num_inserts=batch_ops // 2,
            num_deletes=batch_ops // 2,
        )
        started = time.perf_counter()
        outcome = apply_updates(store, batch, compact_threshold=0.5)
        delta_seconds += time.perf_counter() - started
        modes.append(outcome.mode)

        started = time.perf_counter()
        cold = build_statistics(store.graph, config, dataset_name="hetionet")
        rebuild_seconds += time.perf_counter() - started

        assert store.markov.to_artifact() == cold.markov.to_artifact(), (
            f"round {round_index}: maintained Markov table diverged from "
            "the cold rebuild"
        )
        assert degree_images_equal(store.degrees, cold.degrees), (
            f"round {round_index}: maintained degree catalog diverged from "
            "the cold rebuild"
        )

    speedup = rebuild_seconds / delta_seconds
    bar = 1.0 if quick else 5.0
    return {
        "benchmark": "delta_maintenance",
        "mode": "quick" if quick else "full",
        "dataset": "hetionet",
        "scale": scale,
        "graph_edges": store.graph.num_edges,
        "rounds": rounds,
        "ops_per_batch": batch_ops,
        "maintenance_modes": modes,
        "initial_build_seconds": initial_build_seconds,
        "delta_seconds_total": delta_seconds,
        "rebuild_seconds_total": rebuild_seconds,
        "delta_seconds_per_batch": delta_seconds / rounds,
        "rebuild_seconds_per_batch": rebuild_seconds / rounds,
        "speedup": speedup,
        "speedup_bar": bar,
        "ok": speedup >= bar,
    }


def render(report: dict) -> str:
    return "\n".join(
        [
            "Incremental delta maintenance vs full rebuild "
            f"(hetionet@{report['scale']}, mode={report['mode']})",
            f"  graph edges          : {report['graph_edges']}",
            f"  update batches       : {report['rounds']} x "
            f"{report['ops_per_batch']} ops "
            f"({'/'.join(report['maintenance_modes'])})",
            f"  full rebuild / batch : "
            f"{report['rebuild_seconds_per_batch'] * 1000:10.1f} ms",
            f"  delta apply / batch  : "
            f"{report['delta_seconds_per_batch'] * 1000:10.1f} ms",
            f"  speedup              : {report['speedup']:10.2f}x "
            f"(bar: >= {report['speedup_bar']:.0f}x)",
            "  maintained catalogs bit-identical to cold rebuilds every "
            "round",
        ]
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="CI smoke mode")
    parser.add_argument("--json", type=Path, default=None)
    args = parser.parse_args(argv)
    report = run(quick=args.quick)
    print(render(report))
    if args.json is not None:
        args.json.parent.mkdir(parents=True, exist_ok=True)
        args.json.write_text(json.dumps(report, indent=2), encoding="utf-8")
        print(f"wrote {args.json}")
    if not report["ok"]:
        print(
            f"FAIL: delta-maintenance speedup {report['speedup']:.2f}x "
            f"below the {report['speedup_bar']:.0f}x bar",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
