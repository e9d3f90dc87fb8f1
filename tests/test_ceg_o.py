"""Tests for the CEG_O builder (§4.2) and the nine optimistic estimators."""

import pytest

from repro.catalog import CycleClosingRates, MarkovTable
from repro.core import (
    CEG_O_MAX_EDGES,
    OptimisticEstimator,
    PStarOracle,
    all_nine_estimators,
    build_ceg_o,
    build_ceg_ocr,
    ceg_o,
    distinct_estimates,
    estimate_from_ceg,
)
from repro.engine import count_pattern
from repro.errors import EstimationError
from repro.query import QueryPattern, parse_pattern, templates


class TestCegOStructure:
    def test_three_path_h2(self, tiny_graph):
        """h=2 on a 3-path: ∅ -> {01},{12} -> {012}."""
        query = parse_pattern("a -[A]-> b -[B]-> c -[C]-> d")
        ceg = build_ceg_o(query, MarkovTable(tiny_graph, h=2))
        assert len(ceg.nodes) == 4
        assert ceg.num_edges == 4

    def test_markov_formula_reproduced(self, tiny_graph):
        """§4.1: 3-path estimate is |AB| * (|BC| / |B|) on a 2-path CEG.

        For the 2-edge query the CEG is a single hop from ∅, so the
        estimate equals the stored cardinality; for the 3-edge query the
        left path multiplies |AB| by |BC|/|B|.
        """
        markov = MarkovTable(tiny_graph, h=2)
        query = parse_pattern("a -[A]-> b -[B]-> c -[C]-> d")
        ab = markov.cardinality(parse_pattern("a -[A]-> b -[B]-> c"))
        bc = markov.cardinality(parse_pattern("a -[B]-> b -[C]-> c"))
        b = markov.cardinality(parse_pattern("a -[B]-> b"))
        expected = ab * bc / b
        estimates = distinct_estimates(build_ceg_o(query, markov))
        assert any(e == pytest.approx(expected) for e in estimates)

    def test_whole_query_in_table_is_exact(self, tiny_graph):
        """h >= |Q| means the CEG collapses to the true cardinality."""
        query = parse_pattern("a -[A]-> b -[B]-> c")
        markov = MarkovTable(tiny_graph, h=2)
        ceg = build_ceg_o(query, markov)
        truth = count_pattern(tiny_graph, query)
        for heuristic in ("max", "min", "all"):
            assert estimate_from_ceg(ceg, heuristic, "max") == pytest.approx(truth)

    def test_single_atom_query(self, tiny_graph):
        query = parse_pattern("a -[A]-> b")
        ceg = build_ceg_o(query, MarkovTable(tiny_graph, h=2))
        assert estimate_from_ceg(ceg, "max", "max") == 3

    def test_disconnected_query_rejected(self, tiny_graph):
        query = QueryPattern([("a", "b", "A"), ("c", "d", "B")])
        with pytest.raises(EstimationError):
            build_ceg_o(query, MarkovTable(tiny_graph, h=2))

    def test_h3_has_short_and_long_hops(self, small_random_graph):
        """The fork Q5f with h=3 exposes both short- and long-hop paths."""
        labels = list(small_random_graph.labels[:5])
        query = templates.fork(2, 3).with_labels(labels)
        ceg = build_ceg_o(query, MarkovTable(small_random_graph, h=3))
        from repro.core import hop_statistics_compiled

        per_hop = hop_statistics_compiled(ceg)
        assert len(per_hop) >= 2  # at least two distinct path lengths

    def test_zero_cardinality_extension(self, tiny_graph):
        """A query using an absent label estimates 0, not an error."""
        query = parse_pattern("a -[A]-> b -[Z]-> c -[B]-> d")
        ceg = build_ceg_o(query, MarkovTable(tiny_graph, h=2))
        assert estimate_from_ceg(ceg, "max", "max") == 0.0

    def test_early_cycle_closing_rule(self, small_random_graph):
        """With h=3 and a triangle inside the query, successors of any
        vertex that can close the triangle must all close it."""

        labels = list(small_random_graph.labels[:4])
        query = QueryPattern([
            ("a", "b", labels[0]),
            ("b", "c", labels[1]),
            ("c", "a", labels[2]),
            ("c", "d", labels[3]),
        ])
        markov = MarkovTable(small_random_graph, h=3)
        ceg = build_ceg_o(query, markov)
        triangle = frozenset({0, 1, 2})
        for node in ceg.nodes:
            if not isinstance(node, frozenset) or triangle <= node:
                continue
            for edge in ceg.out_edges(node):
                successors_close = triangle <= edge.target
                other_closers = any(
                    triangle <= e.target for e in ceg.out_edges(node)
                )
                if other_closers:
                    assert successors_close


class TestNineEstimators:
    def test_all_nine_names(self, tiny_graph):
        estimators = all_nine_estimators(MarkovTable(tiny_graph, h=2))
        assert len(estimators) == 9
        assert "max-hop-max" in estimators
        assert "min-hop-min" in estimators
        assert "all-hops-avg" in estimators

    def test_estimator_orderings(self, medium_random_graph):
        """min-aggr <= avg-aggr <= max-aggr for any fixed hop class."""
        labels = list(medium_random_graph.labels)
        query = templates.star(4).with_labels(labels[:4])
        markov = MarkovTable(medium_random_graph, h=2)
        estimators = all_nine_estimators(markov)
        for hop in ("max-hop", "min-hop", "all-hops"):
            low = estimators[f"{hop}-min"].estimate(query)
            mid = estimators[f"{hop}-avg"].estimate(query)
            high = estimators[f"{hop}-max"].estimate(query)
            assert low <= mid + 1e-9 <= high + 1e-9

    def test_invalid_choices_rejected(self, tiny_graph):
        markov = MarkovTable(tiny_graph, h=2)
        with pytest.raises(ValueError):
            OptimisticEstimator(markov, path_length="bogus")
        with pytest.raises(ValueError):
            OptimisticEstimator(markov, aggregator="bogus")

    def test_name_property(self, tiny_graph):
        markov = MarkovTable(tiny_graph, h=2)
        assert OptimisticEstimator(markov, "max", "max").name == "max-hop-max"
        assert OptimisticEstimator(markov, "all", "avg").name == "all-hops-avg"

    def test_ceg_cache_reused(self, tiny_graph):
        markov = MarkovTable(tiny_graph, h=2)
        estimator = OptimisticEstimator(markov)
        query = parse_pattern("a -[A]-> b -[B]-> c -[C]-> d")
        first = estimator.build_ceg(query)
        second = estimator.build_ceg(query)
        assert first is second


class TestPStar:
    def test_pstar_at_least_as_good(self, medium_random_graph):
        """P* q-error <= every fixed heuristic's q-error (it is an oracle)."""
        labels = list(medium_random_graph.labels)
        query = templates.path(4).with_labels(labels[:4])
        truth = count_pattern(medium_random_graph, query)
        if truth == 0:
            pytest.skip("empty instance")
        markov = MarkovTable(medium_random_graph, h=2)
        oracle = PStarOracle(markov)
        star = oracle.estimate(query, truth)

        def q_error(estimate):
            return max(estimate / truth, truth / estimate)

        star_q = q_error(star)
        for estimator in all_nine_estimators(markov).values():
            value = estimator.estimate(query)
            if value > 0:
                assert star_q <= q_error(value) + 1e-9


class TestCegOcr:
    def test_ocr_differs_on_large_cycle(self, medium_random_graph):
        """CEG_OCR must not use the broken-open-path weights."""
        from repro.engine import PatternSampler

        sampler = PatternSampler(medium_random_graph, seed=1)
        instance = sampler.sample_instance(templates.cycle(4))
        if instance is None:
            pytest.skip("no 4-cycle in the random graph")
        markov = MarkovTable(medium_random_graph, h=3)
        rates = CycleClosingRates(medium_random_graph, seed=5, samples=300)
        plain = estimate_from_ceg(
            build_ceg_o(instance, markov), "max", "max"
        )
        closed = estimate_from_ceg(
            build_ceg_ocr(instance, markov, rates), "max", "max"
        )
        # Closing rates are probabilities (< 1); estimates must shrink.
        assert closed < plain

    def test_ocr_matches_plain_on_acyclic(self, medium_random_graph):
        labels = list(medium_random_graph.labels)
        query = templates.path(4).with_labels(labels[:4])
        markov = MarkovTable(medium_random_graph, h=3)
        rates = CycleClosingRates(medium_random_graph, seed=5, samples=100)
        plain = estimate_from_ceg(build_ceg_o(query, markov), "max", "max")
        with_rates = estimate_from_ceg(
            build_ceg_ocr(query, markov, rates), "max", "max"
        )
        assert plain == pytest.approx(with_rates)


def _star(atoms: int, labels) -> QueryPattern:
    return templates.star(atoms).with_labels(
        [labels[i % len(labels)] for i in range(atoms)]
    )


class TestEdgeBound:
    """A query inside the atom bound can still keep millions of CEG_O
    edges; the walk stops at ``CEG_O_MAX_EDGES`` with a typed error."""

    def test_twelve_atom_gcare_templates_fit_at_h3(self, tiny_graph):
        markov = MarkovTable(tiny_graph, h=3)
        labels = list(tiny_graph.labels)
        for name in ("gcare_12path", "gcare_12star", "gcare_12tree"):
            base = templates.gcare_acyclic_templates()[name]
            query = base.with_labels(
                [labels[i % len(labels)] for i in range(len(base))]
            )
            assert build_ceg_o(query, markov).num_edges <= CEG_O_MAX_EDGES
        assert build_ceg_o(_star(12, labels), markov).num_edges == 668_800

    def test_sixteen_star_stops_before_the_next_chunk(
        self, tiny_graph, monkeypatch
    ):
        chunks = []
        cells = ceg_o._Lattice._cells

        def counted(self, chunk, size_h_rule):
            chunks.append(len(chunk))
            return cells(self, chunk, size_h_rule)

        monkeypatch.setattr(ceg_o._Lattice, "_cells", counted)
        markov = MarkovTable(tiny_graph, h=2)
        with pytest.raises(EstimationError, match="edges"):
            build_ceg_o(_star(16, list(tiny_graph.labels)), markov)
        # The 2^16 rows were not all evaluated: the walk stopped early.
        assert sum(chunks) < (1 << 16) - 1

    def test_over_bound_is_a_per_cell_error(self, tiny_graph):
        from repro.service import EstimationSession

        session = EstimationSession(tiny_graph, h=2, molp_h=2)
        result = session.estimate_batch(
            [_star(16, ["A", "B"]), templates.path(2).with_labels(["A", "B"])],
            ["max-hop-max"],
        )
        assert result.item(0, "max-hop-max").error.startswith("EstimationError")
        assert result.item(1, "max-hop-max").ok

    def test_over_bound_over_the_wire(self, tiny_graph, tmp_path):
        from repro.query.parser import format_pattern
        from repro.server import EstimationClient, ServerConfig, StoreRegistry
        from repro.server import ThreadedServer, protocol
        from repro.stats import StatsBuildConfig, build_statistics

        store = build_statistics(
            tiny_graph, StatsBuildConfig(h=2, molp_h=2), dataset_name="tiny"
        )
        store.save(tmp_path / "tiny")
        registry = StoreRegistry()
        registry.load("tiny", tmp_path / "tiny")
        with ThreadedServer(registry, ServerConfig(port=0)) as server:
            with EstimationClient(server.host, server.port) as client:
                response = client.request({
                    "v": protocol.PROTOCOL_VERSION,
                    "verb": "estimate",
                    "tenant": "tiny",
                    "query": format_pattern(_star(16, ["A", "B"])),
                    "estimators": ["max-hop-max"],
                })
                assert response["ok"] is True
                result = response["result"]
                assert result["estimates"] == {}
                assert result["errors"]["max-hop-max"].startswith(
                    "EstimationError"
                )
                after = client.estimate("tiny", "a -[A]-> b -[B]-> c", ["max-hop-max"])
        assert after["errors"] == {}
        assert after["estimates"]["max-hop-max"] > 0
