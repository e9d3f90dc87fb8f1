"""Run the perf-trajectory benchmarks and persist machine-readable results.

``python benchmarks/run_all.py --json`` runs the execution-engine
benchmark (vectorized vs legacy cyclic counting), the server load
benchmark (open-loop traffic against the network serving tier) and the
delta-maintenance benchmark (incremental statistics updates vs full
rebuild) and the build benchmark (parallel, resumable statistics
construction on the million-edge ``synth1m`` preset) and writes
``BENCH_engine.json`` / ``BENCH_server.json`` / ``BENCH_delta.json`` /
``BENCH_build.json`` next to this script — the perf baseline future PRs
diff against.  Cold estimation is measured by ``perfbench/run.py
--workload cold-shapes``.
Re-run with ``--json`` after perf-relevant changes and commit the
updated files so the trajectory stays in history.

``--quick`` switches every benchmark to its CI-smoke configuration
(smaller scale, "not slower" bars).
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import bench_build  # noqa: E402
import bench_delta_maintenance  # noqa: E402
import bench_engine_vectorized  # noqa: E402
import bench_server_load  # noqa: E402

# The fleet acceptance run shares bench_server_load's machinery but is
# its own benchmark artifact: 2 workers in --quick (CI), 4 in full.
_fleet_bench = SimpleNamespace(
    run=lambda quick=False: bench_server_load.run_fleet(
        workers=2 if quick else 4, quick=quick
    ),
    render=bench_server_load.render_fleet,
)

BENCHES = (
    ("BENCH_engine.json", bench_engine_vectorized),
    ("BENCH_server.json", bench_server_load),
    ("BENCH_fleet.json", _fleet_bench),
    ("BENCH_delta.json", bench_delta_maintenance),
    ("BENCH_build.json", bench_build),
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--json",
        action="store_true",
        help="write BENCH_engine.json / BENCH_server.json / ...",
    )
    parser.add_argument(
        "--out-dir",
        type=Path,
        default=HERE,
        help="directory for the JSON artifacts (default: benchmarks/)",
    )
    parser.add_argument("--quick", action="store_true", help="CI smoke mode")
    args = parser.parse_args(argv)

    failed = False
    for filename, module in BENCHES:
        report = module.run(quick=args.quick)
        report["python"] = platform.python_version()
        report["machine"] = platform.machine()
        print(module.render(report))
        print()
        if not report["ok"]:
            failed = True
        if args.json:
            args.out_dir.mkdir(parents=True, exist_ok=True)
            path = args.out_dir / filename
            path.write_text(
                json.dumps(report, indent=2) + "\n", encoding="utf-8"
            )
            print(f"wrote {path}")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
