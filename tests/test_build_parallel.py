"""Differential suite for the parallel, checkpointed statistics build.

The contract under test: for every ``jobs`` value, and across a
kill/resume cycle, ``build_statistics`` produces an artifact
byte-identical to the serial build.  Byte comparisons cover the catalog
files; ``manifest.json`` legitimately differs (timings, jobs, resume
provenance).  SumRDF is included too — all builds here run in one
process, where its bucketing is reproducible.
"""

from __future__ import annotations

import json

import pytest

from repro.datasets.presets import load_dataset
from repro.datasets.workloads import acyclic_workload, cyclic_workload
from repro.errors import BuildInterrupted, DatasetError
from repro.stats.artifact import (
    BUILD_STATE_DIR,
    CHECKPOINT_FILE,
    CHECKPOINT_FORMAT_VERSION,
)
from repro.stats.build import StatsBuildConfig, build_statistics

PRESETS = [("hetionet", 0.03), ("epinions", 0.03)]

COMPARED_FILES = ["catalogs.npz", "catalogs.meta.json"]


def _workload(graph):
    queries = acyclic_workload(graph, per_template=2, seed=7)
    queries += cyclic_workload(graph, per_template=1, seed=7)
    return [query.pattern for query in queries]


def _saved(store, directory):
    directory.mkdir(parents=True, exist_ok=True)
    store.save(directory)
    image = directory / "gen-0000"
    assert image.is_dir()
    return {
        name: (image / name).read_bytes()
        for name in COMPARED_FILES
        if (image / name).exists()
    }


def _build_args(graph, mode):
    config = StatsBuildConfig(h=2, molp_h=2)
    workload = _workload(graph) if mode == "workload" else None
    return config, workload


@pytest.mark.parametrize("dataset,scale", PRESETS)
@pytest.mark.parametrize("mode", ["full", "workload"])
@pytest.mark.parametrize("jobs", [2, 4])
def test_parallel_build_byte_identical_to_serial(
    dataset, scale, mode, jobs, tmp_path
):
    graph = load_dataset(dataset, scale)
    config, workload = _build_args(graph, mode)
    serial = build_statistics(graph, config, workload=workload)
    parallel = build_statistics(graph, config, workload=workload, jobs=jobs)
    assert _saved(serial, tmp_path / "serial") == (
        _saved(parallel, tmp_path / f"jobs{jobs}")
    )
    assert parallel.manifest.build_config["jobs"] == jobs
    assert parallel.manifest.complete == serial.manifest.complete


@pytest.mark.parametrize("dataset,scale", PRESETS)
@pytest.mark.parametrize("mode", ["full", "workload"])
def test_resume_after_interrupt_byte_identical(dataset, scale, mode, tmp_path):
    graph = load_dataset(dataset, scale)
    config, workload = _build_args(graph, mode)
    serial = build_statistics(graph, config, workload=workload)

    out = tmp_path / "resumable"
    with pytest.raises(BuildInterrupted):
        build_statistics(
            graph, config, workload=workload,
            checkpoint_dir=out, stop_after_level=1, jobs=2,
        )
    checkpoint = out / "build_state" / "checkpoint.json"
    assert checkpoint.exists()

    resumed = build_statistics(
        graph, config, workload=workload,
        checkpoint_dir=out, resume=True, jobs=2,
    )
    assert not checkpoint.exists(), "checkpoint must be cleared on success"
    assert _saved(serial, tmp_path / "serial") == _saved(resumed, out)

    levels = resumed.manifest.build_config["levels"]
    flags = {entry["level"]: entry["resumed"] for entry in levels}
    assert flags[min(flags)] is True, "level 1 must come from the checkpoint"
    assert flags[max(flags)] is False, "later levels must be rebuilt live"


def test_resume_without_checkpoint_starts_fresh(tmp_path):
    graph = load_dataset("hetionet", 0.02)
    config = StatsBuildConfig(h=2, molp_h=2)
    fresh = build_statistics(
        graph, config, checkpoint_dir=tmp_path / "out", resume=True
    )
    assert fresh.markov.num_entries > 0
    assert all(
        not entry["resumed"]
        for entry in fresh.manifest.build_config["levels"]
    )


def test_checkpoint_refuses_different_dataset(tmp_path):
    config = StatsBuildConfig(h=2, molp_h=2)
    out = tmp_path / "out"
    with pytest.raises(BuildInterrupted):
        build_statistics(
            load_dataset("hetionet", 0.02), config,
            checkpoint_dir=out, stop_after_level=1,
        )
    with pytest.raises(DatasetError, match="mismatch"):
        build_statistics(
            load_dataset("epinions", 0.02), config,
            checkpoint_dir=out, resume=True,
        )


def test_checkpoint_refuses_different_config(tmp_path):
    out = tmp_path / "out"
    graph = load_dataset("hetionet", 0.02)
    with pytest.raises(BuildInterrupted):
        build_statistics(
            graph, StatsBuildConfig(h=2, molp_h=2),
            checkpoint_dir=out, stop_after_level=1,
        )
    with pytest.raises(DatasetError, match="mismatch"):
        build_statistics(
            graph, StatsBuildConfig(h=2, molp_h=1),
            checkpoint_dir=out, resume=True,
        )


def test_checkpoint_refuses_other_format_version(tmp_path):
    out = tmp_path / "out"
    graph = load_dataset("hetionet", 0.02)
    config = StatsBuildConfig(h=2, molp_h=2)
    with pytest.raises(BuildInterrupted):
        build_statistics(
            graph, config, checkpoint_dir=out, stop_after_level=1,
        )
    path = out / BUILD_STATE_DIR / CHECKPOINT_FILE
    payload = json.loads(path.read_text())
    assert payload["format_version"] == CHECKPOINT_FORMAT_VERSION
    payload["format_version"] = CHECKPOINT_FORMAT_VERSION - 1
    path.write_text(json.dumps(payload))
    with pytest.raises(DatasetError, match="unsupported checkpoint format"):
        build_statistics(graph, config, checkpoint_dir=out, resume=True)


def test_stop_after_level_requires_checkpoint_dir():
    graph = load_dataset("hetionet", 0.02)
    with pytest.raises(DatasetError, match="checkpoint_dir"):
        build_statistics(graph, stop_after_level=1)


def test_manifest_records_level_timings():
    graph = load_dataset("hetionet", 0.02)
    store = build_statistics(
        graph, StatsBuildConfig(h=2, molp_h=2), jobs=2
    )
    build = store.manifest.build_config
    levels = build["levels"]
    assert [entry["level"] for entry in levels] == [1, 2]
    assert all(entry["seconds"] >= 0 for entry in levels)
    assert all(entry["jobs"] == 2 for entry in levels)
    assert build["peak_level_width"] == max(e["stored"] for e in levels)
    assert build["jobs"] == 2


def test_estimates_identical_serial_vs_parallel():
    # Beyond artifact bytes: a session served from the parallel build
    # answers every estimator exactly like the serial one.
    from repro.query.parser import parse_pattern
    from repro.service.session import EstimatorSpec

    graph = load_dataset("hetionet", 0.03)
    config = StatsBuildConfig(h=2, molp_h=2)
    serial = build_statistics(graph, config)
    parallel = build_statistics(graph, config, jobs=3)
    label_a, label_b = graph.labels[0], graph.labels[1]
    queries = [
        parse_pattern(f"a -[{label_a}]-> b"),
        parse_pattern(f"a -[{label_a}]-> b -[{label_b}]-> c"),
    ]
    spec = EstimatorSpec.from_name("all-hops-max")
    session_a, session_b = serial.session(), parallel.session()
    for query in queries:
        a = session_a.estimate_one(query, spec)
        b = session_b.estimate_one(query, spec)
        assert a.ok == b.ok
        if a.ok:
            assert a.estimate == b.estimate
