"""Failure-injection tests: degenerate inputs must degrade gracefully.

Estimators run inside query optimizers; they must never crash on empty
relations, absent labels, self-loops, single-vertex graphs, or exhausted
budgets — they return 0/raise the library's typed errors instead.
"""

import pytest

from repro.baselines import (
    CharacteristicSetsEstimator,
    Rdf3xDefaultEstimator,
    SumRdfEstimator,
    WanderJoinEstimator,
)
from repro.catalog import DegreeCatalog, MarkovTable
from repro.core import (
    MolpEstimator,
    OptimisticEstimator,
    agm_bound,
    cbs_bound,
    molp_bound,
    optimistic_sketch_estimate,
)
from repro.engine import count_pattern
from repro.errors import (
    CountBudgetExceeded,
    EstimationError,
    MissingStatisticError,
    ReproError,
)
from repro.graph import LabeledDiGraph
from repro.query import QueryPattern, parse_pattern


@pytest.fixture(scope="module")
def lonely_graph() -> LabeledDiGraph:
    """One vertex, one self-loop."""
    return LabeledDiGraph.from_triples([(0, 0, "A")], num_vertices=1)


@pytest.fixture(scope="module")
def sparse_graph() -> LabeledDiGraph:
    """Two disconnected edges with different labels."""
    return LabeledDiGraph.from_triples(
        [(0, 1, "A"), (2, 3, "B")], num_vertices=4
    )


class TestAbsentLabels:
    def test_optimistic_estimates_zero(self, sparse_graph):
        markov = MarkovTable(sparse_graph, h=2)
        estimator = OptimisticEstimator(markov)
        query = parse_pattern("x -[A]-> y -[Z]-> z")
        assert estimator.estimate(query) == 0.0

    def test_molp_bound_zero(self, sparse_graph):
        catalog = DegreeCatalog(sparse_graph, h=1)
        query = parse_pattern("x -[A]-> y -[Z]-> z")
        assert molp_bound(query, catalog) == 0.0

    def test_agm_zero(self, sparse_graph):
        query = parse_pattern("x -[A]-> y -[Z]-> z")
        assert agm_bound(query, sparse_graph) == 0.0

    def test_cbs_zero(self, sparse_graph):
        catalog = DegreeCatalog(sparse_graph, h=1)
        query = parse_pattern("x -[A]-> y -[Z]-> z")
        assert cbs_bound(query, catalog) == 0.0

    def test_baselines_handle_missing(self, sparse_graph):
        query = parse_pattern("x -[Z]-> y")
        assert CharacteristicSetsEstimator(sparse_graph).estimate(query) == 0.0
        assert SumRdfEstimator(sparse_graph).estimate(query) == 0.0
        assert WanderJoinEstimator(sparse_graph).estimate(query, 0.5) == 0.0
        assert Rdf3xDefaultEstimator(sparse_graph).estimate(query) == 0.0


class TestSelfLoops:
    def test_count_self_loop(self, lonely_graph):
        query = QueryPattern([("x", "x", "A")])
        assert count_pattern(lonely_graph, query) == 1

    def test_markov_self_loop(self, lonely_graph):
        markov = MarkovTable(lonely_graph, h=2)
        assert markov.cardinality(QueryPattern([("x", "x", "A")])) == 1

    def test_molp_on_self_loop(self, lonely_graph):
        catalog = DegreeCatalog(lonely_graph, h=1)
        query = QueryPattern([("x", "x", "A")])
        assert molp_bound(query, catalog) >= 1.0

    def test_self_loop_chain(self, lonely_graph):
        query = QueryPattern([("x", "x", "A"), ("x", "y", "A")])
        assert count_pattern(lonely_graph, query) == 1


class TestBudgets:
    def test_markov_count_budget(self, medium_random_graph):
        from repro.query import templates

        labels = list(medium_random_graph.labels)
        markov = MarkovTable(medium_random_graph, h=3, count_budget=1)
        triangle = templates.triangle().with_labels(labels[:3])
        with pytest.raises(CountBudgetExceeded):
            markov.cardinality(triangle)

    def test_stat_relation_max_rows(self, medium_random_graph):
        from repro.errors import PlanningError

        labels = list(medium_random_graph.labels)
        pattern = QueryPattern(
            [("x", "y", labels[0]), ("y", "z", labels[1])]
        )
        catalog = DegreeCatalog(medium_random_graph, h=2, max_rows=1)
        with pytest.raises(PlanningError):
            catalog.relation_for(pattern)


class TestMissingStatistics:
    def test_markov_oversize(self, sparse_graph):
        markov = MarkovTable(sparse_graph, h=1)
        with pytest.raises(MissingStatisticError):
            markov.cardinality(parse_pattern("x -[A]-> y -[B]-> z"))

    def test_catalog_oversize(self, sparse_graph):
        catalog = DegreeCatalog(sparse_graph, h=1)
        with pytest.raises(MissingStatisticError):
            catalog.relation_for(parse_pattern("x -[A]-> y -[B]-> z"))

    def test_typed_error_hierarchy(self):
        assert issubclass(MissingStatisticError, ReproError)
        assert issubclass(EstimationError, ReproError)
        assert issubclass(CountBudgetExceeded, ReproError)


class TestSketchDegeneracies:
    def test_sketch_on_starless_query(self, sparse_graph):
        """A single-atom query has no join attributes: sketch is a no-op."""
        value = optimistic_sketch_estimate(
            sparse_graph, parse_pattern("x -[A]-> y"), budget=16, h=1
        )
        assert value == 1.0

    def test_molp_estimator_empty_relation(self, sparse_graph):
        estimator = MolpEstimator(sparse_graph, h=1, budget=4)
        query = parse_pattern("x -[A]-> y -[Z]-> z")
        assert estimator.estimate(query) == 0.0


class TestWorkloadsOnHostileGraphs:
    def test_self_loop_satisfies_clique_homomorphically(self, lonely_graph):
        """All clique variables can map to the loop vertex: the sampler
        legitimately finds an instance and it is non-empty."""
        from repro.engine import PatternSampler
        from repro.query import templates

        sampler = PatternSampler(lonely_graph, seed=0)
        instance = sampler.sample_instance(templates.clique(4), max_tries=20)
        assert instance is not None
        assert count_pattern(lonely_graph, instance) >= 1

    def test_sampler_gives_up_gracefully(self, sparse_graph):
        """An acyclic loop-free graph has no triangle homomorphism."""
        from repro.engine import PatternSampler
        from repro.query import templates

        sampler = PatternSampler(sparse_graph, seed=0)
        instance = sampler.sample_instance(templates.triangle(), max_tries=10)
        assert instance is None

    def test_workload_generation_on_tiny_graph(self, lonely_graph):
        from repro.datasets import job_like_workload

        workload = job_like_workload(lonely_graph, per_template=1, seed=0)
        # A one-vertex self-loop graph matches star/path templates via
        # the loop; whatever comes back must be non-empty and counted.
        for query in workload:
            assert query.true_cardinality >= 1
