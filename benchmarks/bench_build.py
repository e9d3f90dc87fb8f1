"""Parallel, resumable statistics build on a million-edge graph.

The paper builds its summaries offline on graphs up to 65M edges; the
build plane must therefore saturate the hardware, not one core.  This
benchmark takes the ``synth1m`` preset (1.2M edges, 24 labels), runs
the full h=2 enumeration serially and with a worker pool, and checks
three things before reporting throughput:

* **byte-identity** — the parallel artifact's catalog files are
  byte-for-byte the serial ones;
* **resumability** — a build killed after level 1 (via
  ``stop_after_level``, the deterministic stand-in for ``kill -9``)
  resumes from its checkpoint without recounting the completed level
  and still lands on identical bytes;
* **speedup** — parallel vs serial wall-clock, gated only when the
  machine actually has the cores: the bar (>= 3x at ``--jobs 8``;
  >= 1.5x at ``--jobs 2`` in ``--quick``) is recorded as *skipped*,
  not passed, on boxes with fewer cores than the job count.

Runs standalone: ``python benchmarks/bench_build.py [--quick]
[--json PATH]``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.datasets import load_dataset  # noqa: E402
from repro.errors import BuildInterrupted  # noqa: E402
from repro.stats import StatsBuildConfig, build_statistics  # noqa: E402

#: Catalog files whose bytes must not depend on jobs/resume.  The
#: manifest is excluded (it records timings and resume provenance);
#: a generation image packs every catalog into one deterministic NPZ
#: plus its metadata sidecar, so these two cover markov/degrees/sumrdf.
COMPARED_FILES = ["catalogs.npz", "catalogs.meta.json"]


def _available_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def _catalog_bytes(store, directory: Path) -> dict[str, bytes]:
    directory.mkdir(parents=True, exist_ok=True)
    image = store.save(directory) / store.manifest.image
    return {name: (image / name).read_bytes() for name in COMPARED_FILES}


def run(quick: bool = False) -> dict:
    import tempfile

    scale = 0.02 if quick else 1.0
    jobs = 2 if quick else 8
    graph = load_dataset("synth1m", scale)
    config = StatsBuildConfig(h=2, molp_h=2, baselines=False)
    cores = _available_cores()

    started = time.perf_counter()
    serial = build_statistics(graph, config, dataset_name="synth1m")
    serial_seconds = time.perf_counter() - started

    started = time.perf_counter()
    parallel = build_statistics(
        graph, config, dataset_name="synth1m", jobs=jobs
    )
    parallel_seconds = time.perf_counter() - started

    work = Path(tempfile.mkdtemp(prefix="bench_build_"))
    serial_bytes = _catalog_bytes(serial, work / "serial")
    assert _catalog_bytes(parallel, work / "parallel") == serial_bytes, (
        f"--jobs {jobs} artifact diverged from the serial build"
    )

    # Kill after level 1, resume, and verify nothing was recounted.
    resume_dir = work / "resumable"
    try:
        build_statistics(
            graph, config, dataset_name="synth1m",
            jobs=jobs, checkpoint_dir=resume_dir, stop_after_level=1,
        )
        raise AssertionError("stop_after_level did not interrupt the build")
    except BuildInterrupted:
        pass
    resumed = build_statistics(
        graph, config, dataset_name="synth1m",
        jobs=jobs, checkpoint_dir=resume_dir, resume=True,
    )
    levels = resumed.manifest.build_config["levels"]
    resumed_flags = {entry["level"]: entry["resumed"] for entry in levels}
    assert resumed_flags[1] is True, (
        "level 1 was recounted instead of loaded from the checkpoint"
    )
    assert _catalog_bytes(resumed, resume_dir) == serial_bytes, (
        "resumed artifact diverged from the serial build"
    )

    speedup = serial_seconds / parallel_seconds
    bar = 1.5 if quick else 3.0
    # The speedup bar only means something when the machine can actually
    # run the workers concurrently; on smaller boxes the bar is recorded
    # as skipped (correctness above is always enforced).
    gate_applicable = cores >= jobs
    gate_ok = (not gate_applicable) or speedup >= bar
    return {
        "benchmark": "build",
        "mode": "quick" if quick else "full",
        "dataset": "synth1m",
        "scale": scale,
        "graph_vertices": graph.num_vertices,
        "graph_edges": graph.num_edges,
        "graph_labels": len(graph.labels),
        "h": config.h,
        "jobs": jobs,
        "cpu_cores": cores,
        "serial_seconds": serial_seconds,
        "parallel_seconds": parallel_seconds,
        "edges_per_second_serial": graph.num_edges / serial_seconds,
        "edges_per_second_parallel": graph.num_edges / parallel_seconds,
        "markov_entries": serial.markov.num_entries,
        "degree_relations": serial.degrees.num_entries,
        "levels": serial.manifest.build_config["levels"],
        "peak_level_width": serial.manifest.build_config["peak_level_width"],
        "byte_identical": True,
        "resume_no_recount": True,
        "speedup": speedup,
        "speedup_bar": bar,
        "speedup_gate": "enforced" if gate_applicable else (
            f"skipped ({cores} core(s) < {jobs} jobs)"
        ),
        "ok": gate_ok,
    }


def render(report: dict) -> str:
    return "\n".join(
        [
            f"Parallel statistics build (synth1m@{report['scale']}, "
            f"h={report['h']}, mode={report['mode']})",
            f"  graph                : {report['graph_edges']} edges / "
            f"{report['graph_vertices']} vertices / "
            f"{report['graph_labels']} labels",
            f"  serial build         : {report['serial_seconds']:10.1f} s "
            f"({report['edges_per_second_serial']:,.0f} edges/s)",
            f"  --jobs {report['jobs']} build       : "
            f"{report['parallel_seconds']:10.1f} s "
            f"({report['edges_per_second_parallel']:,.0f} edges/s)",
            f"  speedup              : {report['speedup']:10.2f}x "
            f"(bar: >= {report['speedup_bar']:.1f}x, "
            f"{report['speedup_gate']}; {report['cpu_cores']} core(s))",
            f"  stored statistics    : {report['markov_entries']} counts / "
            f"{report['degree_relations']} degree relations "
            f"(peak level width {report['peak_level_width']})",
            "  parallel + resumed artifacts byte-identical to serial; "
            "resume skipped completed levels",
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
            f"FAIL: build speedup {report['speedup']:.2f}x below the "
            f"{report['speedup_bar']:.1f}x bar at --jobs {report['jobs']}",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
