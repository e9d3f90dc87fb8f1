"""Seeded inputs of the three workloads.

Everything the program under test receives is generated here from the
``--seed`` alone: the data graph (the ``hetionet`` preset at scale 0.25,
written as an edge-list file), the shape pools, the request sequences
and the update batches.  The same seed always yields the same inputs,
and every random stream is separate, so a longer sequence extends a
shorter one instead of reshuffling it.

Request sequences are *stratified* so every seed sends the same mix:
estimators come in shuffled blocks of ten (7 ``max-hop-max``, 2
``MOLP``, 1 ``all-hops-avg``) and shapes are drawn from a fixed
round-robin over the templates, so a seed changes the sampled
instances, never the composition.
"""

from __future__ import annotations

import bisect
import hashlib
import random
from dataclasses import dataclass
from pathlib import Path

from repro.datasets.presets import load_dataset
from repro.delta.overlay import MutableGraphOverlay
from repro.delta.updates import UpdateBatch, random_update_batch
from repro.engine.sampler import PatternSampler
from repro.errors import PatternError
from repro.graph.digraph import LabeledDiGraph
from repro.graph.io import save_edge_list
from repro.query import templates as T
from repro.query.canonical import canonical_key
from repro.query.parser import format_pattern
from repro.query.pattern import QueryPattern

DATASET = "hetionet"
SCALE = 0.25
TENANT = "hetionet"
DEFAULT_SEED = 1

#: One block of the stratified estimator mix (0.7 / 0.2 / 0.1).
ESTIMATOR_BLOCK = ("max-hop-max",) * 7 + ("MOLP",) * 2 + ("all-hops-avg",)
ESTIMATORS = ("max-hop-max", "MOLP", "all-hops-avg")
ZIPF_S = 1.1

WARM_POOL = 64
DELTA_POOL = 200
#: Operations per update batch (half deletes, half inserts).
BATCH_SIZE = 8


def write_edge_list(path: Path) -> LabeledDiGraph:
    """The preset graph, saved as the edge-list file the build ingests."""
    graph = load_dataset(DATASET, SCALE)
    save_edge_list(graph, path)
    return graph


def warm_templates() -> dict[str, QueryPattern]:
    """Mid-size shapes: the JOB-derived trees plus a triangle and 4-cycle."""
    return {**T.job_templates(), "triangle": T.triangle(), "cycle4": T.cycle(4)}


def cold_templates() -> dict[str, QueryPattern]:
    """The paper's Acyclic (6-8 atom trees) and Cyclic templates."""
    return {
        **T.acyclic_templates((6, 7, 8)),
        **T.cyclic_templates(),
        "cyc_triangle": T.triangle(),
    }


def delta_templates() -> dict[str, QueryPattern]:
    """Small shapes (2-4 atoms): a post-swap refill is visible but cheap."""
    return {
        "path2": T.path(2),
        "path3": T.path(3),
        "star3": T.star(3),
        "fork22": T.fork(2, 2),
        "triangle": T.triangle(),
        "cycle4": T.cycle(4),
    }


def unique_shapes(
    graph: LabeledDiGraph,
    templates: dict[str, QueryPattern],
    count: int,
    rng: random.Random,
) -> list[QueryPattern]:
    """``count`` sampled instances with pairwise distinct canonical keys.

    Templates are visited in a fixed round-robin, so position ``i`` of
    the result comes from the same template for every seed: a Zipf head
    is always made of the same kinds of shapes, and the seed changes
    only their labels and edge directions.  A template that keeps
    failing (no occurrence, or only repeats) is dropped,
    deterministically.
    """
    sampler = PatternSampler(graph, seed=rng.randrange(2**31))
    names = sorted(templates)
    seen: set = set()
    failures: dict[str, int] = {}
    shapes: list[QueryPattern] = []
    order: list[str] = []
    while len(shapes) < count:
        if not names:
            raise RuntimeError("no template can be instantiated on the graph")
        if not order:
            order = names[::-1]
        name = order.pop()
        if name not in names:
            continue
        shape = T.randomize_directions(templates[name], rng)
        try:
            instance = sampler.sample_instance(shape, max_tries=50)
        except PatternError:  # two atoms landed on one data edge
            instance = None
        key = canonical_key(instance) if instance is not None else None
        if key is None or key in seen:
            failures[name] = failures.get(name, 0) + 1
            if failures[name] > 200:
                names.remove(name)
            continue
        seen.add(key)
        shapes.append(instance)
    return shapes


def estimator_sequence(rng: random.Random, count: int) -> list[str]:
    """``count`` estimator names in shuffled blocks of the fixed mix."""
    out: list[str] = []
    while len(out) < count:
        block = list(ESTIMATOR_BLOCK)
        rng.shuffle(block)
        out.extend(block)
    return out[:count]


def zipf_ranks(rng: random.Random, count: int, size: int) -> list[int]:
    """``count`` Zipf(1.1)-distributed ranks in ``[0, size)``."""
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(size)]
    total = sum(weights)
    cumulative = []
    acc = 0.0
    for weight in weights:
        acc += weight / total
        cumulative.append(acc)
    return [
        min(bisect.bisect_left(cumulative, rng.random()), size - 1)
        for _ in range(count)
    ]


def request_text(pattern: QueryPattern, index: int) -> str:
    """Query text of request ``index``: the shape with renamed variables."""
    mapping = {
        var: f"r{index}v{position}"
        for position, var in enumerate(sorted(pattern.variables))
    }
    return format_pattern(pattern.rename(mapping))


@dataclass
class Sequence:
    """Request ``i`` asks for ``shapes[shape_of[i]]`` under ``estimator_of[i]``."""

    shapes: list[QueryPattern]
    shape_of: list[int]
    estimator_of: list[str]

    def __len__(self) -> int:
        return len(self.shape_of)

    def text(self, index: int) -> str:
        return request_text(self.shapes[self.shape_of[index]], index)

    def key(self, index: int) -> tuple[int, str]:
        """The (shape, estimator) cell request ``index`` asks for."""
        return self.shape_of[index], self.estimator_of[index]

    def digest(self) -> str:
        """sha256 over every (query text, estimator) pair."""
        digest = hashlib.sha256()
        for index in range(len(self)):
            digest.update(self.text(index).encode())
            digest.update(b"\0" + self.estimator_of[index].encode() + b"\n")
        return digest.hexdigest()


def _streams(kind: str, seed: int) -> tuple[random.Random, ...]:
    return tuple(
        random.Random(f"{kind}:{seed}:{stream}")
        for stream in ("shapes", "ranks", "mix")
    )


def warm_sequence(graph: LabeledDiGraph, seed: int, count: int) -> Sequence:
    """warm-zipf: Zipf(1.1) draws over a 64-shape pool."""
    shapes_rng, ranks_rng, mix_rng = _streams("warm", seed)
    pool = unique_shapes(graph, warm_templates(), WARM_POOL, shapes_rng)
    return Sequence(
        pool, zipf_ranks(ranks_rng, count, len(pool)),
        estimator_sequence(mix_rng, count),
    )


def cold_sequence(graph: LabeledDiGraph, seed: int, count: int) -> Sequence:
    """cold-shapes: every request is a canonical shape not seen before."""
    shapes_rng, _, mix_rng = _streams("cold", seed)
    shapes = unique_shapes(graph, cold_templates(), count, shapes_rng)
    return Sequence(
        shapes, list(range(count)), estimator_sequence(mix_rng, count)
    )


def delta_sequence(graph: LabeledDiGraph, seed: int, count: int) -> Sequence:
    """delta-churn reads: Zipf(1.1) draws over a 200-shape pool."""
    shapes_rng, ranks_rng, mix_rng = _streams("delta", seed)
    pool = unique_shapes(graph, delta_templates(), DELTA_POOL, shapes_rng)
    return Sequence(
        pool, zipf_ranks(ranks_rng, count, len(pool)),
        estimator_sequence(mix_rng, count),
    )


def update_batches(graph: LabeledDiGraph, count: int) -> list[UpdateBatch]:
    """``count`` random batches of :data:`BATCH_SIZE` ops.

    The batches come from one fixed stream, not from the seed: what an
    apply costs depends mostly on which edges a batch touches, so
    seeded batches would make ``freshness_ms`` measure the draw rather
    than the code.  The seed varies the reads beside them.  Each batch
    is drawn against the graph the previous ones left, so its deletes
    hit live edges.
    """
    rng = random.Random("updates")
    batches = []
    current = graph
    for _ in range(count):
        batch = random_update_batch(
            current, rng,
            num_inserts=BATCH_SIZE // 2,
            num_deletes=BATCH_SIZE - BATCH_SIZE // 2,
        )
        batches.append(batch)
        overlay = MutableGraphOverlay(current)
        overlay.apply_batch(batch)
        current = overlay.materialize()
    return batches
