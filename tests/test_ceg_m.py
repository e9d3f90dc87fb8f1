"""Tests for the MOLP lattice DP, its paths, and MolpEdge metadata.

The explicit ``CEG_M`` and the Dijkstra live in ``tests/oracles/ceg.py``;
the library's bound must equal both bit for bit.
"""

import pytest

from oracles import ceg as oracle
from repro.catalog import DegreeCatalog
from repro.core import MOLP_MAX_ATTRIBUTES, molp_bound, molp_min_path
from repro.core.ceg_m import MolpEdge
from repro.engine import count_pattern
from repro.errors import EstimationError
from repro.query import QueryPattern, parse_pattern, templates


class TestMolpMinPath:
    def test_path_metadata_chains(self, tiny_graph):
        query = parse_pattern("a -[A]-> b -[B]-> c")
        catalog = DegreeCatalog(tiny_graph, h=1)
        bound, path = molp_min_path(query, catalog)
        assert bound > 0
        assert bound == oracle.molp_min_path(query, catalog)[0]
        assert path[0].source_attrs == frozenset()
        assert path[-1].target_attrs == frozenset(query.variables)
        for first, second in zip(path, path[1:]):
            assert first.target_attrs == second.source_attrs

    def test_path_product_equals_bound(self, tiny_graph):
        query = parse_pattern("a -[A]-> b -[B]-> c -[C]-> d")
        catalog = DegreeCatalog(tiny_graph, h=1)
        bound, path = molp_min_path(query, catalog)
        product = 1.0
        for edge in path:
            product *= edge.rate
        assert product == bound  # the left fold, bit for bit

    def test_first_hop_is_unbound(self, tiny_graph):
        """The path starts at ∅, so its first edge conditions on X=∅."""
        query = parse_pattern("a -[A]-> b -[B]-> c")
        catalog = DegreeCatalog(tiny_graph, h=1)
        _, path = molp_min_path(query, catalog)
        assert not path[0].is_bound

    def test_empty_relation_returns_zero(self, tiny_graph):
        query = parse_pattern("a -[A]-> b -[Z]-> c")
        catalog = DegreeCatalog(tiny_graph, h=1)
        bound, path = molp_min_path(query, catalog)
        assert bound == 0.0 and path == []
        assert molp_bound(query, catalog) == 0.0

    def test_bound_upper_bounds_truth(self, medium_random_graph):
        labels = list(medium_random_graph.labels)
        catalog = DegreeCatalog(medium_random_graph, h=2)
        for template in (templates.path(3), templates.star(3),
                         templates.fork(1, 2)):
            query = template.with_labels(labels[: len(template)])
            truth = count_pattern(medium_random_graph, query)
            assert molp_bound(query, catalog) >= truth - 1e-6
            assert molp_bound(query, catalog) == oracle.molp_bound(query, catalog)


class TestExplicitCegM:
    def test_explicit_matches_lazy(self, tiny_graph):
        query = parse_pattern("a -[A]-> b -[B]-> c")
        catalog = DegreeCatalog(tiny_graph, h=1)
        lazy = molp_bound(query, catalog)
        ceg = oracle.build_ceg_m(query, catalog)
        explicit, _ = oracle.min_weight_path(ceg)
        assert explicit == lazy

    def test_explicit_matches_lazy_with_joins(self, tiny_graph):
        query = parse_pattern("a -[A]-> b -[B]-> c -[C]-> d")
        catalog = DegreeCatalog(tiny_graph, h=2)
        lazy = molp_bound(query, catalog)
        ceg = oracle.build_ceg_m(query, catalog)
        explicit, _ = oracle.min_weight_path(ceg)
        assert explicit == lazy

    def test_payloads_are_molp_edges(self, tiny_graph):
        query = parse_pattern("a -[A]-> b")
        catalog = DegreeCatalog(tiny_graph, h=1)
        ceg = oracle.build_ceg_m(query, catalog)
        for edge in ceg.iter_edges():
            assert isinstance(edge.payload, MolpEdge)
            assert edge.payload.rate == edge.rate

    def test_attribute_cap(self, tiny_graph):
        atoms = MOLP_MAX_ATTRIBUTES  # a star has one attribute more
        query = templates.star(atoms).with_labels(["A"] * atoms)
        catalog = DegreeCatalog(tiny_graph, h=1)
        with pytest.raises(EstimationError):
            oracle.build_ceg_m(query, catalog)
        with pytest.raises(EstimationError):
            molp_bound(query, catalog)

    def test_rightmost_path_semantics(self, tiny_graph):
        """Any (∅, A) path multiplies a relation size by max degrees —
        Observation 1's reading of Figure 7."""
        from repro.core import distinct_estimates

        query = parse_pattern("a -[A]-> b -[B]-> c")
        catalog = DegreeCatalog(tiny_graph, h=1)
        ceg = oracle.build_ceg_m(query, catalog)
        truth = count_pattern(tiny_graph, query)
        for estimate in distinct_estimates(ceg, cap=500):
            assert estimate >= truth - 1e-6


class TestMolpEdge:
    def test_extension_attrs(self):
        edge = MolpEdge(
            source_attrs=frozenset({"a"}),
            target_attrs=frozenset({"a", "b"}),
            x=frozenset({"a"}),
            y=frozenset({"a", "b"}),
            relation=QueryPattern([("a", "b", "A")]),
            rate=3.0,
        )
        assert edge.extension_attrs == frozenset({"b"})
        assert edge.is_bound

    def test_unbound_edge(self):
        edge = MolpEdge(
            source_attrs=frozenset(),
            target_attrs=frozenset({"a", "b"}),
            x=frozenset(),
            y=frozenset({"a", "b"}),
            relation=QueryPattern([("a", "b", "A")]),
            rate=5.0,
        )
        assert not edge.is_bound
