"""Tests for the §8 entropy-weighted CEG extension."""

import numpy as np
import pytest

from repro.catalog import EntropyCatalog, MarkovTable, degree_irregularity
from repro.core import LowestEntropyEstimator, lowest_entropy_estimate
from repro.engine import count_pattern
from repro.graph import LabeledDiGraph
from repro.query import QueryPattern, parse_pattern, templates


class TestDegreeIrregularity:
    def test_uniform_degrees_zero(self):
        counts = np.asarray([3.0, 3.0, 3.0, 3.0])
        assert degree_irregularity(counts, 4) == pytest.approx(0.0)

    def test_skewed_degrees_positive(self):
        counts = np.asarray([97.0, 1.0, 1.0, 1.0])
        assert degree_irregularity(counts, 4) > 1.0

    def test_zero_groups(self):
        assert degree_irregularity(np.asarray([1.0]), 1) == 0.0

    def test_empty_counts(self):
        assert degree_irregularity(np.asarray([]), 5) == 0.0

    def test_more_skew_more_irregular(self):
        mild = degree_irregularity(np.asarray([4.0, 3.0, 3.0, 2.0]), 4)
        harsh = degree_irregularity(np.asarray([9.0, 1.0, 1.0, 1.0]), 4)
        assert harsh > mild


class TestEntropyCatalog:
    def test_empty_intersection_is_free(self, tiny_graph):
        catalog = EntropyCatalog(tiny_graph)
        pattern = parse_pattern("x -[A]-> y")
        assert catalog.irregularity(pattern, frozenset()) == 0.0

    def test_cached(self, tiny_graph):
        catalog = EntropyCatalog(tiny_graph)
        pattern = parse_pattern("x -[A]-> y -[B]-> z")
        catalog.irregularity(pattern, frozenset({"y"}))
        entries = catalog.num_entries
        catalog.irregularity(pattern, frozenset({"y"}))
        assert catalog.num_entries == entries

    def test_renamed_extension_shares_one_entry(self, medium_random_graph):
        """Isomorphic requests under other variable names hit the entry
        the first one stored, and only the matching variable does."""
        labels = list(medium_random_graph.labels)
        catalog = EntropyCatalog(medium_random_graph)
        pattern = QueryPattern([("x", "y", labels[0]), ("y", "z", labels[1])])
        value = catalog.irregularity(pattern, frozenset({"y"}))
        assert value > 0.0
        # Here the middle variable sorts first: a mapping by name order
        # would miss.
        renamed = QueryPattern([("b", "a", labels[0]), ("a", "c", labels[1])])
        assert catalog.irregularity(renamed, frozenset({"a"})) == value
        assert catalog.num_entries == 1
        catalog.irregularity(renamed, frozenset({"b"}))
        assert catalog.num_entries == 2

    def test_uniform_relation_scores_zero(self):
        """A perfectly regular graph (every vertex degree 1) has exactly
        uniform extension degrees: irregularity 0."""
        n = 12
        triples = [(i, (i + 1) % n, "A") for i in range(n)]
        triples += [(i, (i + 2) % n, "B") for i in range(n)]
        graph = LabeledDiGraph.from_triples(triples, num_vertices=n)
        catalog = EntropyCatalog(graph)
        pattern = parse_pattern("x -[A]-> y -[B]-> z")
        assert catalog.irregularity(
            pattern, frozenset({"y"})
        ) == pytest.approx(0.0, abs=1e-9)

    def test_skewed_relation_scores_positive(self, medium_random_graph):
        graph = medium_random_graph
        labels = list(graph.labels)
        pattern = QueryPattern([("x", "y", labels[0]), ("y", "z", labels[1])])
        catalog = EntropyCatalog(graph)
        assert catalog.irregularity(pattern, frozenset({"y"})) > 0.0

    def test_extension_over_max_rows_scores_zero(self, medium_random_graph):
        graph = medium_random_graph
        labels = list(graph.labels)
        pattern = QueryPattern([("x", "y", labels[0]), ("y", "z", labels[1])])
        assert EntropyCatalog(graph).irregularity(pattern, frozenset({"y"})) > 0.0
        capped = EntropyCatalog(graph, max_rows=1)
        assert capped.irregularity(pattern, frozenset({"y"})) == 0.0

    def test_join_errors_propagate(self, medium_random_graph, monkeypatch):
        """Only the max_rows abort scores 0; a failing join is an error."""
        graph = medium_random_graph
        labels = list(graph.labels)
        pattern = QueryPattern([("x", "y", labels[0]), ("y", "z", labels[1])])

        def broken(self, label):
            raise ValueError("injected join failure")

        monkeypatch.setattr(LabeledDiGraph, "relation", broken)
        with pytest.raises(ValueError, match="injected join failure"):
            EntropyCatalog(graph).irregularity(pattern, frozenset({"y"}))


class TestLowestEntropyEstimator:
    def test_exact_when_whole_query_stored(self, tiny_graph):
        markov = MarkovTable(tiny_graph, h=2)
        estimator = LowestEntropyEstimator(markov)
        query = parse_pattern("x -[A]-> y -[B]-> z")
        truth = count_pattern(tiny_graph, query)
        assert estimator.estimate(query) == pytest.approx(truth)

    def test_within_ceg_estimate_range(self, medium_random_graph):
        """The chosen path's estimate is one of the CEG's estimates."""
        from repro.core import build_ceg_o, distinct_estimates

        graph = medium_random_graph
        labels = list(graph.labels)
        markov = MarkovTable(graph, h=2)
        estimator = LowestEntropyEstimator(markov)
        query = templates.fork(1, 2).with_labels(labels[:3])
        value = estimator.estimate(query)
        estimates = distinct_estimates(build_ceg_o(query, markov))
        assert min(estimates) - 1e-6 <= value <= max(estimates) + 1e-6

    def test_name(self, tiny_graph):
        markov = MarkovTable(tiny_graph, h=2)
        assert LowestEntropyEstimator(markov).name == "lowest-entropy"

    def test_function_form(self, medium_random_graph):
        graph = medium_random_graph
        labels = list(graph.labels)
        markov = MarkovTable(graph, h=2)
        catalog = EntropyCatalog(graph)
        query = templates.path(3).with_labels(labels[:3])
        value = lowest_entropy_estimate(query, markov, catalog)
        assert value >= 0.0


class TestAblationFlags:
    def test_size_h_rule_off_adds_paths(self, medium_random_graph):
        """Disabling the size-h rule can only add formulas (paths)."""
        from repro.core import build_ceg_o

        graph = medium_random_graph
        labels = list(graph.labels)
        markov = MarkovTable(graph, h=3)
        query = templates.fork(2, 2).with_labels(labels[:4])
        strict = build_ceg_o(query, markov, size_h_rule=True)
        loose = build_ceg_o(query, markov, size_h_rule=False)
        assert loose.num_edges >= strict.num_edges

    def test_early_cycle_closing_off_adds_paths(self, medium_random_graph):
        from repro.core import build_ceg_o
        from repro.engine import PatternSampler

        graph = medium_random_graph
        sampler = PatternSampler(graph, seed=13)
        instance = sampler.sample_instance(templates.triangle(), max_tries=300)
        if instance is None:
            import pytest as _pytest

            _pytest.skip("no triangle instance")
        markov = MarkovTable(graph, h=3)
        with_rule = build_ceg_o(instance, markov, early_cycle_closing=True)
        without = build_ceg_o(instance, markov, early_cycle_closing=False)
        assert without.num_edges >= with_rule.num_edges
