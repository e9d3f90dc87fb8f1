"""What a process loads: serving, building and applying never import
scipy or networkx.

Each case runs in a fresh interpreter, since the test session itself has
long since imported both (the oracles use them).  The first drives every
production plane end to end; the second checks that the LP baselines
still solve, loading scipy only when they are called.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

SERVE_BUILD_APPLY = """
import contextlib, io, json, sys
from pathlib import Path

from repro.cli import main

root = Path(sys.argv[1]) / "example"
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["stats", "build", "--dataset", "example", "--out", str(root)]) == 0

from repro.datasets.presets import running_example_graph
from repro.delta import UpdateBatch, apply_updates
from repro.server import EstimationClient, ServerConfig, StoreRegistry, ThreadedServer
from repro.stats import StatisticsStore

registry = StoreRegistry()
registry.load("example", root)
with ThreadedServer(registry, ServerConfig(port=0)) as server:
    with EstimationClient(server.host, server.port) as client:
        result = client.estimate(
            "example", "a -[A]-> b -[B]-> c",
            ["max-hop-max", "MOLP", "all-hops-avg"],
        )
assert not result["errors"] and len(result["estimates"]) == 3, result

store = StatisticsStore.load(root, graph=running_example_graph())
batch = UpdateBatch.from_payload({"updates": [["+", 7, 3, "A"], ["+", 3, 7, "B"]]})
apply_updates(store, batch, root)
assert StatisticsStore.load(root).manifest.generation == 1

print(json.dumps(sorted({name.split(".")[0] for name in sys.modules})))
"""

LP_BASELINES = """
import json, sys

from repro.catalog.degrees import DegreeCatalog
from repro.core import agm_bound, molp_bound, molp_lp_bound
from repro.datasets.presets import running_example_graph
from repro.query import parse_pattern

before = "scipy" in sys.modules
graph = running_example_graph()
query = parse_pattern("a -[A]-> b -[B]-> c")
catalog = DegreeCatalog(graph, h=2)
print(json.dumps({
    "before": before,
    "agm": agm_bound(query, graph),
    "molp_lp": molp_lp_bound(query, catalog),
    "molp": molp_bound(query, catalog),
    "after": "scipy.optimize" in sys.modules,
}))
"""


def _run(script: str, *args: str) -> str:
    return subprocess.run(
        [sys.executable, "-c", script, *args],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, check=True, timeout=300,
    ).stdout


def test_serve_build_and_apply_never_load_scipy_or_networkx(tmp_path):
    loaded = set(json.loads(_run(SERVE_BUILD_APPLY, str(tmp_path))))
    assert "repro" in loaded and "numpy" in loaded
    assert not loaded & {"scipy", "networkx"}, sorted(loaded)


def test_lp_baselines_load_scipy_when_they_solve():
    report = json.loads(_run(LP_BASELINES))
    assert report["before"] is False
    assert report["after"] is True
    assert report["agm"] > 0.0
    assert abs(report["molp_lp"] - report["molp"]) <= 1e-6 * report["molp"]
