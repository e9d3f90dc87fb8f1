"""The array ``CEG_O`` and the lattice MOLP against the verbatim oracles.

``tests/oracles/ceg.py`` keeps the dict-of-lists ``CEG_O`` builder (a
stack BFS over atom subsets), the dict path DP and the MOLP Dijkstra
exactly as the library used to run them.  Every check here is bit for
bit: the in-edge arrays, all nine optimistic estimates with and without
cycle-closing rates and with each §4.2 rule switched off, the distinct
path estimates, and the MOLP bound.  The MOLP *path* may pick
another of several equal-weight paths, so it is checked for what it
must be: an (∅, A) chain whose left-fold product is the bound.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import ceg as oracle
from repro.catalog import CycleClosingRates, DegreeCatalog, MarkovTable
from repro.core import (
    MOLP_MAX_ATTRIBUTES,
    build_ceg_o,
    distinct_estimates,
    estimate_from_ceg,
    molp_bound,
    molp_min_path,
)
from repro.core import build_ceg_ocr, ceg_m, ceg_o
from repro.core.bound_sketch import sketch_attributes
from repro.datasets import load_dataset
from repro.engine.sampler import PatternSampler
from repro.errors import EstimationError, PatternError
from repro.graph import generate_graph
from repro.query import QueryPattern, templates
from repro.query.canonical import canonical_key, canonical_pattern
from repro.query.shape import cycles
from repro.stats import StatsBuildConfig, build_statistics

NINE = [(hop, aggr) for hop in ("max", "min", "all") for aggr in ("max", "min", "avg")]

#: The §4.2 rule ablations ``benchmarks/bench_ablation_rules.py`` runs.
ABLATIONS = [
    {"size_h_rule": False},
    {"early_cycle_closing": False},
    {"size_h_rule": False, "early_cycle_closing": False},
]


class RecordingRates(CycleClosingRates):
    """Graph-backed closing rates that log every ``rate()`` call."""

    def __init__(self, graph):
        super().__init__(graph, seed=3, samples=40)
        self.calls: list[tuple] = []

    def rate(self, pattern, cycle, closing_index):
        self.calls.append((pattern, cycle, closing_index))
        return super().rate(pattern, cycle, closing_index)


def _built(build):
    """A built CEG, or the type of the error building it raised."""
    try:
        return build()
    except EstimationError as error:
        return type(error)


def assert_optimistic_agree(query, markov, graph=None, cap=50_000) -> None:
    """CEG_O under the default rules and each ablation (and CEG_OCR when
    ``graph`` is given) match the oracle.

    ``cap`` bounds :func:`distinct_estimates`; a hit cap makes the
    values depend on the order edges are visited in.
    """
    variants = [(None, None, {})] + [(None, None, rules) for rules in ABLATIONS]
    if graph is not None:
        variants.append((RecordingRates(graph), RecordingRates(graph), {}))
    for rates, reference_rates, rules in variants:
        ceg = _built(
            lambda: build_ceg_o(query, markov, cycle_rates=rates, **rules)
        )
        reference = _built(
            lambda: oracle.build_ceg_o(
                query, markov, cycle_rates=reference_rates, **rules
            )
        )
        if rates is not None:
            # One shared sampler stream: the call order fixes the values.
            assert rates.calls == reference_rates.calls
        if isinstance(reference, type):
            assert ceg is reference
            continue
        oracle.assert_same_ceg(ceg, reference)
        for hop, aggr in NINE:
            try:
                expected = oracle.estimate_from_ceg(reference, hop, aggr)
            except EstimationError:
                with pytest.raises(EstimationError):
                    estimate_from_ceg(ceg, hop, aggr)
                continue
            assert estimate_from_ceg(ceg, hop, aggr) == expected
        try:
            expected_values = distinct_estimates(reference, cap=cap)
        except EstimationError:
            continue
        assert distinct_estimates(ceg, cap=cap) == expected_values


def assert_valid_molp_path(query, bound, path) -> None:
    """An (∅, A) chain of growing moves whose left fold is ``bound``."""
    if bound == 0.0:
        assert path == []
        return
    assert path[0].source_attrs == frozenset()
    assert path[-1].target_attrs == frozenset(query.variables)
    for first, second in zip(path, path[1:]):
        assert first.target_attrs == second.source_attrs
    product = 1.0
    for edge in path:
        assert edge.y <= frozenset(edge.relation.variables)
        assert edge.y - edge.source_attrs
        assert edge.x == edge.source_attrs & edge.y
        assert edge.target_attrs == edge.source_attrs | edge.y
        product *= edge.rate
    assert product == bound


def molp_agrees(query, catalog) -> bool:
    """The lattice bound equals the Dijkstra's; True when the paths match."""
    bound, path = molp_min_path(query, catalog)
    expected, expected_path = oracle.molp_min_path(query, catalog)
    assert bound == expected
    assert molp_bound(query, catalog) == expected
    assert_valid_molp_path(query, bound, path)
    return path == expected_path


@st.composite
def instances(draw):
    """A small random graph and a connected query over its labels.

    Atoms may close cycles, be self-loops or run parallel to an earlier
    atom between the same two variables.
    """
    graph = generate_graph(
        num_vertices=draw(st.integers(min_value=6, max_value=16)),
        num_edges=draw(st.integers(min_value=10, max_value=50)),
        num_labels=draw(st.integers(min_value=1, max_value=3)),
        seed=draw(st.integers(min_value=0, max_value=10_000)),
        closure=0.3,
    )
    labels = list(graph.labels)
    atoms: list[tuple[str, str, str]] = []
    num_vars = 1
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        src = draw(st.integers(min_value=0, max_value=num_vars - 1))
        kind = draw(st.sampled_from(["new", "close", "loop"]))
        if kind == "new":
            dst = num_vars
            num_vars += 1
        elif kind == "loop":
            dst = src
        else:
            dst = draw(st.integers(min_value=0, max_value=num_vars - 1))
        if draw(st.booleans()):
            src, dst = dst, src
        atom = (f"x{src}", f"x{dst}", draw(st.sampled_from(labels)))
        if atom not in atoms:
            atoms.append(atom)
    return graph, QueryPattern(atoms), draw(st.sampled_from([1, 2, 3]))


class TestRandomGraphsAndQueries:
    @given(instances())
    @settings(max_examples=60, deadline=None)
    def test_optimistic_bit_identical(self, case):
        graph, query, h = case
        assert_optimistic_agree(query, MarkovTable(graph, h=h), graph)

    @given(instances())
    @settings(max_examples=60, deadline=None)
    def test_molp_bit_identical(self, case):
        graph, query, h = case
        molp_agrees(query, DegreeCatalog(graph, h=h))


@pytest.fixture(scope="module")
def corpus():
    """Cold shapes as the benchmark draws them: the paper's 6-8 atom
    trees and its cyclic templates, sampled on a preset graph."""
    graph = load_dataset("hetionet", 0.05)
    store = build_statistics(
        graph, StatsBuildConfig(h=2, molp_h=2)
    )
    shapes_templates = {
        **templates.acyclic_templates((6, 7, 8)),
        **templates.cyclic_templates(),
        "cyc_triangle": templates.triangle(),
    }
    rng = random.Random(11)
    sampler = PatternSampler(graph, seed=11)
    names = sorted(shapes_templates)
    shapes: list[QueryPattern] = []
    seen: set = set()
    for attempt in range(2000):
        if len(shapes) == 48:
            break
        shape = templates.randomize_directions(
            shapes_templates[names[attempt % len(names)]], rng
        )
        try:
            instance = sampler.sample_instance(shape, max_tries=50)
        except PatternError:
            continue
        if instance is None or canonical_key(instance) in seen:
            continue
        seen.add(canonical_key(instance))
        shapes.append(canonical_pattern(instance))
    assert len(shapes) == 48
    return graph, store, shapes


class TestColdShapeCorpus:
    def test_optimistic_bit_identical(self, corpus):
        graph, store, shapes = corpus
        for shape in shapes:
            assert_optimistic_agree(shape, store.markov, graph, cap=64)

    def test_molp_bit_identical(self, corpus):
        _, store, shapes = corpus
        for shape in shapes:
            molp_agrees(shape, store.degrees)

    def test_sketch_attributes_match_the_dijkstra_path(self, corpus):
        """MOLP-sketch partitions on attributes read off the path."""
        _, store, shapes = corpus
        for shape in shapes:
            _, path = molp_min_path(shape, store.degrees)
            _, expected = oracle.molp_min_path(shape, store.degrees)
            assert sketch_attributes(shape, path) == sketch_attributes(
                shape, expected
            )


class TestCycleRateCallOrder:
    """``CEG_OCR`` draws every rate from one sampler stream, so the
    order of first ``rate()`` calls decides the sampled values."""

    @pytest.mark.parametrize(
        "template",
        [
            templates.cycle(4),
            templates.cycle(6),
            templates.bowtie(),
            templates.square_with_triangle(),
            templates.square_with_two_triangles(),
        ],
    )
    def test_calls_follow_the_oracle(self, small_random_graph, template):
        labels = list(small_random_graph.labels)
        query = template.with_labels(
            [labels[i % len(labels)] for i in range(len(template))]
        )
        h = 2
        assert any(len(cycle) > h for cycle in cycles(query))
        rates = RecordingRates(small_random_graph)
        reference_rates = RecordingRates(small_random_graph)
        markov = MarkovTable(small_random_graph, h=h)
        ceg = build_ceg_o(query, markov, cycle_rates=rates)
        reference = oracle.build_ceg_o(query, markov, cycle_rates=reference_rates)
        assert rates.calls
        assert rates.calls == reference_rates.calls
        oracle.assert_same_ceg(ceg, reference)


class TestNineToTwelveAtoms:
    """From nine atoms on, a key's ``repr`` depends on the order its
    atoms were inserted, so vertex positions do too."""

    @pytest.mark.parametrize(
        "name",
        [
            "gcare_9path", "gcare_9star", "gcare_9tree", "gcare_12path",
            "gcare_12tree", "gcare_9cycle", "gcare_9petal",
        ],
    )
    @pytest.mark.parametrize("h", [2, 3])
    def test_gcare_templates_with_random_labels(
        self, small_random_graph, name, h
    ):
        template = {
            **templates.gcare_acyclic_templates(),
            **templates.gcare_cyclic_templates(),
        }[name]
        labels = sorted(small_random_graph.labels)
        rng = random.Random(f"{name}-{h}")
        query = template.with_labels([rng.choice(labels) for _ in template])
        markov = MarkovTable(small_random_graph, h=h)
        assert_optimistic_agree(query, markov, small_random_graph, cap=64)
        ceg = build_ceg_o(query, markov)
        reference = oracle.build_ceg_o(query, markov)
        assert [repr(key) for key in ceg.keys] == [
            repr(key) for key in reference.topological_order()
        ]

    def test_twelve_atom_star(self, small_random_graph):
        labels = sorted(small_random_graph.labels)
        query = templates.star(12).with_labels(
            [labels[i % len(labels)] for i in range(12)]
        )
        markov = MarkovTable(small_random_graph, h=2)
        oracle.assert_same_ceg(
            build_ceg_o(query, markov), oracle.build_ceg_o(query, markov)
        )


class TestChunkedLattice:
    def test_chunks_match_one_chunk(self, small_random_graph, monkeypatch):
        """Row chunks of a few cells build the same CEG_O and CEG_OCR."""
        labels = list(small_random_graph.labels)
        query = templates.square_with_two_triangles().with_labels(
            [labels[i % len(labels)] for i in range(8)]
        )
        markov = MarkovTable(small_random_graph, h=2)
        whole = [
            build_ceg_o(query, markov, cycle_rates=RecordingRates(small_random_graph)),
            *(build_ceg_o(query, markov, **rules) for rules in ABLATIONS),
        ]
        monkeypatch.setattr(ceg_m, "_CHUNK_CELLS", 7)
        chunked = [
            build_ceg_o(query, markov, cycle_rates=RecordingRates(small_random_graph)),
            *(build_ceg_o(query, markov, **rules) for rules in ABLATIONS),
        ]
        for ceg, reference in zip(chunked, whole):
            assert ceg.keys == reference.keys
            assert np.array_equal(ceg.in_source, reference.in_source)
            assert np.array_equal(ceg.in_target, reference.in_target)
            assert np.array_equal(ceg.in_emission, reference.in_emission)
            assert ceg.in_rate.tobytes() == reference.in_rate.tobytes()


class TestAttributeBound:
    def test_over_bound_fails_typed_without_the_lattice(
        self, tiny_graph, monkeypatch
    ):
        atoms = MOLP_MAX_ATTRIBUTES  # a path has one attribute more
        query = templates.path(atoms).with_labels((["A", "B", "C"] * atoms)[:atoms])
        assert len(query.variables) == MOLP_MAX_ATTRIBUTES + 1

        def no_lattice(*args):
            raise AssertionError("the 2^n lattice must not be allocated")

        monkeypatch.setattr(ceg_m, "_lattice", no_lattice)
        monkeypatch.setattr(ceg_m, "_popcount_layers", no_lattice)
        with pytest.raises(EstimationError, match="limited to"):
            molp_bound(query, DegreeCatalog(tiny_graph, h=2))
        with pytest.raises(EstimationError, match="limited to"):
            molp_min_path(query, DegreeCatalog(tiny_graph, h=2))

    def test_over_bound_is_a_per_cell_error(self, tiny_graph):
        from repro.service import EstimationSession

        atoms = MOLP_MAX_ATTRIBUTES
        query = templates.path(atoms).with_labels((["A", "B", "C"] * atoms)[:atoms])
        session = EstimationSession(tiny_graph, h=2, molp_h=2)
        result = session.estimate_batch([query], ["MOLP", "max-hop-max"])
        assert result.item(0, "MOLP").error.startswith("EstimationError")
        assert result.item(0, "max-hop-max").ok

    def test_thirteen_attribute_path_matches_the_oracle(self, small_random_graph):
        labels = list(small_random_graph.labels)
        query = templates.path(12).with_labels(
            [labels[i % len(labels)] for i in range(12)]
        )
        assert len(query.variables) == 13
        catalog = DegreeCatalog(small_random_graph, h=2)
        molp_agrees(query, catalog)
        assert molp_bound(query, catalog) > 0.0

    def test_chunked_dp_matches_one_chunk(self, small_random_graph, monkeypatch):
        labels = list(small_random_graph.labels)
        query = templates.star(7).with_labels(
            [labels[i % len(labels)] for i in range(7)]
        )
        catalog = DegreeCatalog(small_random_graph, h=2)
        whole = molp_min_path(query, catalog)
        monkeypatch.setattr(ceg_m, "_CHUNK_CELLS", 7)
        assert molp_min_path(query, catalog) == whole


def _over_bound_query():
    """A 17-atom path: one atom over the lattice bound."""
    atoms = MOLP_MAX_ATTRIBUTES + 1
    return templates.path(atoms).with_labels((["A", "B", "C"] * atoms)[:atoms])


class TestAtomBound:
    """CEG_O's subset lattice has the same bound as MOLP's, on atoms."""

    def test_over_bound_fails_typed_without_the_lattice(
        self, tiny_graph, monkeypatch
    ):
        query = _over_bound_query()
        assert len(query) == MOLP_MAX_ATTRIBUTES + 1

        def no_lattice(*args):
            raise AssertionError("the 2^n lattice must not be allocated")

        for name in ("_Lattice", "_popcount_layers", "_layout_order"):
            monkeypatch.setattr(ceg_o, name, no_lattice)
        markov = MarkovTable(tiny_graph, h=2)
        rates = RecordingRates(tiny_graph)
        with pytest.raises(EstimationError, match="limited to"):
            build_ceg_o(query, markov)
        with pytest.raises(EstimationError, match="limited to"):
            build_ceg_ocr(query, markov, rates)
        assert rates.calls == []

    def test_over_bound_is_a_per_cell_error(self, tiny_graph):
        from repro.service import EstimationSession

        session = EstimationSession(tiny_graph, h=2, molp_h=2)
        result = session.estimate_batch(
            [_over_bound_query(), templates.path(2).with_labels(["A", "B"])],
            ["max-hop-max", "all-hops-avg"],
        )
        for spec in ("max-hop-max", "all-hops-avg"):
            assert result.item(0, spec).error.startswith("EstimationError")
            assert result.item(1, spec).ok

    def test_over_bound_over_the_wire(self, tiny_graph, tmp_path):
        from repro.query.parser import format_pattern
        from repro.server import EstimationClient, StoreRegistry, ThreadedServer
        from repro.server import ServerConfig

        store = build_statistics(
            tiny_graph, StatsBuildConfig(h=2, molp_h=2), dataset_name="tiny"
        )
        store.save(tmp_path / "tiny")
        registry = StoreRegistry()
        registry.load("tiny", tmp_path / "tiny")
        with ThreadedServer(registry, ServerConfig(port=0)) as server:
            with EstimationClient(server.host, server.port) as client:
                result = client.estimate(
                    "tiny", format_pattern(_over_bound_query()), ["max-hop-max"]
                )
                assert result["estimates"] == {}
                assert result["errors"]["max-hop-max"].startswith(
                    "EstimationError"
                )
                after = client.estimate("tiny", "a -[A]-> b -[B]-> c", ["max-hop-max"])
        assert after["errors"] == {}
        assert after["estimates"]["max-hop-max"] > 0

    def test_sixteen_atom_path_matches_the_oracle(self, small_random_graph):
        labels = list(small_random_graph.labels)
        query = templates.path(MOLP_MAX_ATTRIBUTES).with_labels(
            [labels[i % len(labels)] for i in range(MOLP_MAX_ATTRIBUTES)]
        )
        markov = MarkovTable(small_random_graph, h=2)
        ceg = build_ceg_o(query, markov)
        oracle.assert_same_ceg(ceg, oracle.build_ceg_o(query, markov))
        assert estimate_from_ceg(ceg, "max", "max") >= 0.0
