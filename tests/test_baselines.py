"""Tests for the baseline estimators (CS, SumRDF, WJ, RDF-3X default)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.baselines import (
    CharacteristicSetsEstimator,
    Rdf3xDefaultEstimator,
    SumRdfEstimator,
    WanderJoinEstimator,
)
from repro.engine import count_pattern
from repro.errors import CountBudgetExceeded
from repro.query import QueryPattern, parse_pattern, templates


class TestCharacteristicSets:
    def test_single_atom_exact(self, tiny_graph):
        cs = CharacteristicSetsEstimator(tiny_graph)
        estimate = cs.estimate(parse_pattern("x -[A]-> y"))
        assert estimate == pytest.approx(3.0)

    def test_out_star_uniformity_assumption(self, tiny_graph):
        """CS estimates stars with per-charset mean multiplicities.

        Vertices 2 and 3 share the charset {A-in, B-out} with 3 B-edges
        total, so the 2-star estimate is 2 * (3/2)^2 = 4.5 while the
        true count is 2^2 + 1^2 = 5 — the classic uniformity error.
        """
        cs = CharacteristicSetsEstimator(tiny_graph)
        star = QueryPattern([("x", "y", "B"), ("x", "z", "B")])
        truth = count_pattern(tiny_graph, star)
        assert truth == 5
        assert cs.estimate(star) == pytest.approx(4.5)

    def test_mixed_direction_star(self, tiny_graph):
        """An in-edge forces a second star: |B-star| * |A-star| / dom(x).

        3 * 3 / 7 subjects ≈ 1.29 against a true count of 5 — the
        uniform-domain join selectivity underestimates.
        """
        cs = CharacteristicSetsEstimator(tiny_graph)
        star = QueryPattern([("x", "y", "B"), ("w", "x", "A")])
        assert cs.num_subjects == 7
        assert cs.estimate(star) == pytest.approx(9.0 / 7.0)
        assert count_pattern(tiny_graph, star) == 5

    def test_path_decomposition_underestimates_on_skew(
        self, medium_random_graph
    ):
        """On a skewed graph the star-independence combination typically
        underestimates (the paper's §6.4 observation)."""
        graph = medium_random_graph
        cs = CharacteristicSetsEstimator(graph)
        labels = list(graph.labels)
        under = 0
        total = 0
        for offset in range(6):
            query = templates.path(3).with_labels(
                [labels[(offset + i) % len(labels)] for i in range(3)]
            )
            truth = count_pattern(graph, query)
            if truth == 0:
                continue
            total += 1
            if cs.estimate(query) < truth:
                under += 1
        assert total > 0
        assert under >= total / 2

    def test_num_characteristic_sets(self, tiny_graph):
        cs = CharacteristicSetsEstimator(tiny_graph)
        assert cs.num_characteristic_sets >= 3

    def test_unknown_label(self, tiny_graph):
        cs = CharacteristicSetsEstimator(tiny_graph)
        assert cs.estimate(parse_pattern("x -[Z]-> y")) == 0.0


class TestSumRdf:
    def test_single_atom_exact(self, tiny_graph):
        estimator = SumRdfEstimator(tiny_graph, num_buckets=16)
        assert estimator.estimate(parse_pattern("x -[A]-> y")) == pytest.approx(3.0)

    def test_exact_with_one_bucket_per_vertex(self, tiny_graph):
        """B >= |V| with injective bucketing would be exact; with the
        signature hash the summary still reproduces small graphs well."""
        estimator = SumRdfEstimator(tiny_graph, num_buckets=64)
        query = parse_pattern("x -[A]-> y -[B]-> z")
        truth = count_pattern(tiny_graph, query)
        estimate = estimator.estimate(query)
        assert estimate > 0
        assert estimate == pytest.approx(truth, rel=2.0)

    def test_acyclic_estimate_positive(self, medium_random_graph):
        estimator = SumRdfEstimator(medium_random_graph, num_buckets=32)
        labels = list(medium_random_graph.labels)
        query = templates.star(3).with_labels(labels[:3])
        assert estimator.estimate(query) >= 0.0

    def test_cyclic_budget_timeout(self, medium_random_graph):
        estimator = SumRdfEstimator(medium_random_graph, num_buckets=64)
        labels = list(medium_random_graph.labels)
        query = templates.cycle(4).with_labels(labels[:4])
        with pytest.raises(CountBudgetExceeded):
            estimator.estimate(query, budget=10)

    def test_cyclic_estimate_runs(self, small_random_graph):
        estimator = SumRdfEstimator(small_random_graph, num_buckets=16)
        labels = list(small_random_graph.labels)
        query = templates.triangle().with_labels(labels[:3])
        assert estimator.estimate(query) >= 0.0

    def test_bucket_validation(self, tiny_graph):
        with pytest.raises(ValueError):
            SumRdfEstimator(tiny_graph, num_buckets=0)

    def test_summary_does_not_depend_on_the_hash_seed(self):
        """Bucketing mixes (direction, label id) with fixed integers, so
        processes with different ``PYTHONHASHSEED`` build one summary."""
        script = (
            "import hashlib\n"
            "from repro.baselines import SumRdfEstimator\n"
            "from repro.datasets import load_dataset\n"
            "summary = SumRdfEstimator(\n"
            "    load_dataset('hetionet', 0.02), num_buckets=16, seed=3\n"
            ")\n"
            "digest = hashlib.sha256(summary._sizes.tobytes())\n"
            "for label in sorted(summary._matrices):\n"
            "    digest.update(label.encode())\n"
            "    digest.update(summary._matrices[label].tobytes())\n"
            "print(digest.hexdigest())\n"
        )
        src = Path(__file__).resolve().parent.parent / "src"
        digests = {
            subprocess.run(
                [sys.executable, "-c", script],
                env={**os.environ, "PYTHONPATH": str(src),
                     "PYTHONHASHSEED": seed},
                capture_output=True, text=True, check=True,
            ).stdout
            for seed in ("1", "2")
        }
        assert len(digests) == 1


class TestWanderJoin:
    def test_single_atom_exact(self, tiny_graph):
        wj = WanderJoinEstimator(tiny_graph, seed=1)
        assert wj.estimate(parse_pattern("x -[A]-> y"), ratio=1.0) == 3.0

    def test_unbiased_on_two_path(self, tiny_graph):
        """Mean of many WJ runs converges to the true count."""
        query = parse_pattern("x -[A]-> y -[B]-> z")
        truth = count_pattern(tiny_graph, query)
        wj = WanderJoinEstimator(tiny_graph, seed=42)
        runs = [wj.estimate(query, ratio=1.0) for _ in range(400)]
        assert sum(runs) / len(runs) == pytest.approx(truth, rel=0.15)

    def test_unbiased_on_triangle(self, small_random_graph):
        from repro.engine import PatternSampler

        sampler = PatternSampler(small_random_graph, seed=2)
        instance = sampler.sample_instance(templates.triangle(), max_tries=300)
        if instance is None:
            pytest.skip("no triangle instance")
        truth = count_pattern(small_random_graph, instance)
        wj = WanderJoinEstimator(small_random_graph, seed=7)
        runs = [wj.estimate(instance, ratio=1.0) for _ in range(300)]
        assert sum(runs) / len(runs) == pytest.approx(truth, rel=0.4)

    def test_ratio_validation(self, tiny_graph):
        wj = WanderJoinEstimator(tiny_graph)
        with pytest.raises(ValueError):
            wj.estimate(parse_pattern("x -[A]-> y"), ratio=0.0)

    def test_missing_label_estimates_zero(self, tiny_graph):
        wj = WanderJoinEstimator(tiny_graph)
        assert wj.estimate(parse_pattern("x -[Z]-> y"), ratio=0.5) == 0.0

    def test_timed_estimate(self, tiny_graph):
        wj = WanderJoinEstimator(tiny_graph, seed=3)
        value, elapsed = wj.timed_estimate(
            parse_pattern("x -[A]-> y -[B]-> z"), ratio=0.5
        )
        assert value >= 0.0
        assert elapsed >= 0.0

    def test_deterministic_given_seed(self, medium_random_graph):
        labels = list(medium_random_graph.labels)
        query = templates.path(3).with_labels(labels[:3])
        a = WanderJoinEstimator(medium_random_graph, seed=5).estimate(query, 0.01)
        b = WanderJoinEstimator(medium_random_graph, seed=5).estimate(query, 0.01)
        assert a == b


class TestRdf3xDefault:
    def test_single_atom(self, tiny_graph):
        estimator = Rdf3xDefaultEstimator(tiny_graph)
        assert estimator.estimate(parse_pattern("x -[A]-> y")) == 3.0

    def test_join_shrinks_estimate(self, medium_random_graph):
        graph = medium_random_graph
        estimator = Rdf3xDefaultEstimator(graph)
        labels = list(graph.labels)
        single = estimator.estimate(
            parse_pattern(f"x -[{labels[0]}]-> y")
        )
        joined = estimator.estimate(
            parse_pattern(f"x -[{labels[0]}]-> y -[{labels[1]}]-> z")
        )
        assert joined < single * graph.cardinality(labels[1])

    def test_underestimates_on_skew(self, medium_random_graph):
        graph = medium_random_graph
        estimator = Rdf3xDefaultEstimator(graph, magic=1.0)
        labels = list(graph.labels)
        under = 0
        total = 0
        for offset in range(6):
            query = templates.path(3).with_labels(
                [labels[(offset + i) % len(labels)] for i in range(3)]
            )
            truth = count_pattern(graph, query)
            if truth == 0:
                continue
            total += 1
            if estimator.estimate(query) < truth:
                under += 1
        assert under >= total / 2

    def test_never_zero_for_nonempty_relations(self, tiny_graph):
        estimator = Rdf3xDefaultEstimator(tiny_graph)
        value = estimator.estimate(
            parse_pattern("a -[A]-> b -[B]-> c -[C]-> d")
        )
        assert value > 0.0
