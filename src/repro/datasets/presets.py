"""The six evaluation datasets (Table 2), as seeded synthetic stand-ins.

The paper evaluates on IMDb, YAGO, DBLP, WatDiv, Hetionet and Epinions
(up to 65M edges).  We cannot ship those graphs, so each preset is a
seeded generator configuration that reproduces the qualitative profile
that drives estimator behaviour — label count, degree skew, label
correlation, and cycle density — at a scale where exact ground truth is
computable.  Epinions
mirrors the paper's control: labels assigned independently at random
(``label_correlation = 0``), "guaranteed to not have any correlations
between edge labels".
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import DatasetError
from repro.graph.digraph import LabeledDiGraph
from repro.graph.generators import generate_graph

__all__ = [
    "DatasetSpec",
    "DATASETS",
    "SYNTHETIC_DATASETS",
    "load_dataset",
    "dataset_table",
    "running_example_graph",
    "EXAMPLE_DATASET",
]


@dataclass(frozen=True)
class DatasetSpec:
    """Generator configuration for one named dataset."""

    name: str
    domain: str
    num_vertices: int
    num_edges: int
    num_labels: int
    degree_skew: float
    label_skew: float
    label_correlation: float
    closure: float
    seed: int

    def build(self, scale: float = 1.0) -> LabeledDiGraph:
        """Materialise the graph (``scale`` shrinks it for quick runs)."""
        return generate_graph(
            num_vertices=max(int(self.num_vertices * scale), 10),
            num_edges=max(int(self.num_edges * scale), 20),
            num_labels=self.num_labels,
            seed=self.seed,
            degree_skew=self.degree_skew,
            label_skew=self.label_skew,
            label_correlation=self.label_correlation,
            closure=self.closure,
        )


DATASETS: dict[str, DatasetSpec] = {
    spec.name: spec
    for spec in [
        DatasetSpec(
            name="imdb",
            domain="Movies",
            num_vertices=30_000,
            num_edges=90_000,
            num_labels=127,
            degree_skew=0.9,
            label_skew=0.8,
            label_correlation=0.6,
            closure=0.10,
            seed=101,
        ),
        DatasetSpec(
            name="yago",
            domain="Knowledge Graph",
            num_vertices=26_000,
            num_edges=45_000,
            num_labels=91,
            degree_skew=0.85,
            label_skew=0.9,
            label_correlation=0.5,
            closure=0.15,
            seed=102,
        ),
        # DBLP and WatDiv are the datasets on which the paper reports
        # near-perfect max-hop-max estimates (§6.3): DBLP is regular and
        # WatDiv is itself a synthetic benchmark with near-independent
        # labels, so both get low label correlation here.
        DatasetSpec(
            name="dblp",
            domain="Citations",
            num_vertices=23_000,
            num_edges=80_000,
            num_labels=27,
            degree_skew=0.8,
            label_skew=0.7,
            label_correlation=0.3,
            closure=0.20,
            seed=103,
        ),
        DatasetSpec(
            name="watdiv",
            domain="Products",
            num_vertices=10_000,
            num_edges=60_000,
            num_labels=86,
            degree_skew=0.6,
            label_skew=0.7,
            label_correlation=0.15,
            closure=0.10,
            seed=104,
        ),
        DatasetSpec(
            name="hetionet",
            domain="Biology",
            num_vertices=4_500,
            num_edges=40_000,
            num_labels=24,
            degree_skew=1.0,
            label_skew=0.6,
            label_correlation=0.6,
            closure=0.30,
            seed=105,
        ),
        DatasetSpec(
            name="epinions",
            domain="Consumer Reviews",
            num_vertices=7_600,
            num_edges=35_000,
            num_labels=50,
            degree_skew=0.9,
            label_skew=0.5,
            label_correlation=0.0,  # random labels: the no-correlation control
            closure=0.25,
            seed=106,
        ),
    ]
}

# Scale-exercise presets: not part of Table 2 (dataset_table skips them),
# but loadable through load_dataset for the parallel-build benchmarks.
# synth1m's moderate skews keep two-atom joins well under the default
# 5M-row materialisation cap while the 1.2M edges stress ingest and the
# level-parallel build.
SYNTHETIC_DATASETS: dict[str, DatasetSpec] = {
    spec.name: spec
    for spec in [
        DatasetSpec(
            name="synth1m",
            domain="Synthetic (scale)",
            num_vertices=400_000,
            num_edges=1_200_000,
            num_labels=24,
            degree_skew=0.6,
            label_skew=0.4,
            label_correlation=0.2,
            closure=0.05,
            seed=777,
        ),
    ]
}


def running_example_graph() -> LabeledDiGraph:
    """The paper's Figure-2-shaped running example (13 vertices, 5 labels).

    ``A`` edges chain into a ``B`` layer which forks into ``C``/``D``/``E``
    — the graph behind the fork query ``Q5f`` used throughout §4.  Small
    enough for docs, CI smoke tests and artifact examples.
    """
    triples: list[tuple[int, int, str]] = []
    for u, v in [(0, 3), (1, 3), (2, 4), (0, 4)]:
        triples.append((u, v, "A"))
    for u, v in [(3, 5), (4, 5), (3, 6), (4, 6)]:
        triples.append((u, v, "B"))
    for u, v in [(5, 7), (5, 8), (6, 7)]:
        triples.append((u, v, "C"))
    for u, v in [(5, 9), (6, 9), (6, 10)]:
        triples.append((u, v, "D"))
    for u, v in [(5, 11), (6, 11), (5, 12), (6, 12)]:
        triples.append((u, v, "E"))
    return LabeledDiGraph.from_triples(triples, num_vertices=13)


EXAMPLE_DATASET = "example"

_CACHE: dict[tuple[str, float], LabeledDiGraph] = {}


def load_dataset(name: str, scale: float = 1.0) -> LabeledDiGraph:
    """Build (and cache) a preset dataset.

    ``"example"`` loads the fixed running-example graph (``scale`` is
    ignored); the six Table-2 presets are seeded generators.
    """
    if name == EXAMPLE_DATASET:
        key = (name, 1.0)
        cached = _CACHE.get(key)
        if cached is None:
            cached = running_example_graph()
            _CACHE[key] = cached
        return cached
    spec = DATASETS.get(name) or SYNTHETIC_DATASETS.get(name)
    if spec is None:
        raise DatasetError(
            f"unknown dataset {name!r}; choose from "
            f"{sorted(DATASETS) + sorted(SYNTHETIC_DATASETS) + [EXAMPLE_DATASET]}"
        )
    key = (name, scale)
    cached = _CACHE.get(key)
    if cached is None:
        cached = spec.build(scale)
        _CACHE[key] = cached
    return cached


def dataset_table(scale: float = 1.0) -> list[dict[str, object]]:
    """Rows in the shape of Table 2 (name, domain, |V|, |E|, labels)."""
    rows = []
    for name, spec in DATASETS.items():
        graph = load_dataset(name, scale)
        rows.append(
            {
                "dataset": name,
                "domain": spec.domain,
                "|V|": graph.num_vertices,
                "|E|": graph.num_edges,
                "|E. Labels|": len(graph.labels),
            }
        )
    return rows
