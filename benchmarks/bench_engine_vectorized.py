"""Vectorized vs legacy cyclic counting on fig10/11-style patterns.

Times exact homomorphism counting of triangles through 6-cycles (the
Figure 10/11 cyclic shapes) on the synthetic Table-2 presets, comparing
the match-frame join counter (:func:`repro.engine.count_pattern`, the
library's only exact counter) against the per-candidate Python
backtracker it replaced (``count_general_backtracking`` in
``tests/oracles/engine.py``).  Counts must agree exactly; the acceptance
bar is a >= 5x geometric-mean speedup (>= 1x in ``--quick`` CI-smoke
mode, which only guards against the vectorized path regressing below
the legacy one).

Runs standalone (no pytest): ``python benchmarks/bench_engine_vectorized.py
[--quick] [--json PATH]``.  Exit code 0 iff every scenario matched
exactly and the speedup bar held.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(_ROOT / "src"))
sys.path.insert(0, str(_ROOT / "tests"))

from oracles.engine import count_general_backtracking  # noqa: E402
from repro.datasets import load_dataset  # noqa: E402
from repro.engine import count_pattern  # noqa: E402
from repro.query import templates  # noqa: E402


def _cycle_scenarios(graph, dataset: str):
    """Triangle..6-cycle patterns labeled by the preset's top relations."""
    labels = sorted(
        graph.labels, key=lambda lab: (-graph.cardinality(lab), lab)
    )
    for k in (3, 4, 5, 6):
        pattern = templates.cycle(k).with_labels(
            [labels[i % 3] for i in range(k)]
        )
        yield f"{dataset}/cycle{k}", pattern


def _time_count(graph, pattern, counter, repeats: int) -> tuple[float, float]:
    best = float("inf")
    value = None
    for _ in range(repeats):
        started = time.perf_counter()
        value = counter(graph, pattern)
        best = min(best, time.perf_counter() - started)
    return value, best


def run(quick: bool = False) -> dict:
    """Run every scenario; returns the machine-readable report."""
    scale = 0.06 if quick else 0.12
    repeats = 1 if quick else 2
    datasets = ("hetionet",) if quick else ("hetionet", "epinions")
    rows = []
    for dataset in datasets:
        graph = load_dataset(dataset, scale)
        for name, pattern in _cycle_scenarios(graph, dataset):
            legacy_count, legacy_s = _time_count(
                graph, pattern, count_general_backtracking, repeats
            )
            vector_count, vector_s = _time_count(
                graph, pattern, count_pattern, repeats
            )
            assert vector_count == legacy_count, (
                f"{name}: vectorized {vector_count} != legacy {legacy_count}"
            )
            rows.append(
                {
                    "scenario": name,
                    "count": legacy_count,
                    "legacy_seconds": legacy_s,
                    "vectorized_seconds": vector_s,
                    "speedup": legacy_s / vector_s,
                }
            )
    geomean = math.exp(
        sum(math.log(row["speedup"]) for row in rows) / len(rows)
    )
    bar = 1.0 if quick else 5.0
    return {
        "benchmark": "engine_vectorized",
        "mode": "quick" if quick else "full",
        "scale": scale,
        "speedup_bar": bar,
        "geomean_speedup": geomean,
        "ok": geomean >= bar,
        "scenarios": rows,
    }


def render(report: dict) -> str:
    lines = [
        "Vectorized cyclic counting vs legacy backtracking "
        f"(mode={report['mode']}, scale={report['scale']})",
    ]
    for row in report["scenarios"]:
        lines.append(
            f"  {row['scenario']:<22} count={row['count']:>12g}  "
            f"legacy={row['legacy_seconds'] * 1000:9.1f}ms  "
            f"vectorized={row['vectorized_seconds'] * 1000:8.1f}ms  "
            f"speedup={row['speedup']:7.1f}x"
        )
    lines.append(
        f"  geomean speedup      : {report['geomean_speedup']:.1f}x "
        f"(bar: >= {report['speedup_bar']:.0f}x)"
    )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke mode: smaller scale, bar is only 'not slower'",
    )
    parser.add_argument(
        "--json", type=Path, default=None, help="write the report as JSON"
    )
    args = parser.parse_args(argv)
    report = run(quick=args.quick)
    print(render(report))
    if args.json is not None:
        args.json.parent.mkdir(parents=True, exist_ok=True)
        args.json.write_text(json.dumps(report, indent=2), encoding="utf-8")
        print(f"wrote {args.json}")
    if not report["ok"]:
        print(
            f"FAIL: geomean speedup {report['geomean_speedup']:.2f}x "
            f"below the {report['speedup_bar']:.0f}x bar",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
