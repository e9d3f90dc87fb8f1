"""The repository benchmark: one command, three workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload warm-zipf --seed 1 --seconds 10 --trace 0

Workloads (see ``workloads.py``): ``warm-zipf``, ``cold-shapes`` and
``delta-churn``.  With ``--trace 0`` the run reports the end-to-end
metrics; with ``--trace 1`` it also replays the run against a traced
server and reports the per-layer ledger (``ledger.py``) instead.  The
report goes to standard output; its last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 0 for a correct run, 1 when an answer was wrong or a validity check
failed, and 2 when the program's sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument(
        "--workload", required=True,
        choices=("warm-zipf", "cold-shapes", "delta-churn"),
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def show(title: str, payload) -> None:
    print(f"# {title}: {json.dumps(payload, sort_keys=True)}")


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no program sources under {ROOT / 'src'}; run from "
            "the root of a full checkout",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import common
    import inputs
    import ledger
    import workloads

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    for sub in ("shm", "tmp"):
        (work / sub).mkdir(parents=True)
    os.environ["REPRO_SHM_DIR"] = str(work / "shm")
    show("environment", common.environment(ROOT, args.seed))
    try:
        edges = work / "graph.tsv"
        graph = inputs.write_edge_list(edges)
        env = common.bench_env(ROOT, work)
        base = work / "base"
        build_s = workloads.build_artifact(edges, base, env)
        bench = workloads.Bench(
            work, env, args.seed, args.seconds, graph, edges, base
        )
        workload = workloads.WORKLOADS[args.workload]
        try:
            result = workloads.run_workload(bench, workload, build_s)
            metrics = result.metrics
            if args.trace:
                metrics, table = ledger.traced(bench, workload, result)
                print(table)
        except workloads.Invalid as error:
            # A validity failure reports no numbers, only that it failed.
            print(f"perfbench: invalid run: {error}", file=sys.stderr)
            print(json.dumps({
                "correct": False, "attempted": 1, "failed": 1, "metrics": {},
            }))
            return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()  # only when no other run is using it
        except OSError:
            pass
    show("notes", result.notes)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:12s} {name:48s} {value:14.4f} {unit}")
    correct = result.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    began = time.perf_counter()
    code = main()
    print(f"perfbench: {time.perf_counter() - began:.1f} s", file=sys.stderr)
    sys.exit(code)
