"""Machine-checked theory of §5 and the appendices.

* Theorem 5.1 — the MOLP LP optimum equals the minimum-weight (∅, A)
  path of CEG_M.
* Observation 1 — every CEG_M path (hence the bound) upper-bounds the
  true cardinality.
* Observation 3 / Appendix A — projection inequalities do not change
  the MOLP optimum.
* Appendix B — CBS == MOLP on acyclic queries over binary relations.
* Appendix C — CBS formulas are unsafe on cyclic queries (identity
  triangle counterexample); MOLP stays safe.
* Corollary D.1 — MOLP <= DBPLP for any cover.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.ceg import build_ceg_m
from repro.catalog import DegreeCatalog
from repro.core import (
    agm_bound,
    best_dbplp_bound,
    cbs_bound,
    dbplp_bound,
    distinct_estimates,
    molp_bound,
    molp_lp_bound,
)
from repro.engine import count_pattern
from repro.graph import LabeledDiGraph, generate_graph
from repro.query import parse_pattern, templates
from repro.query.shape import is_acyclic


@st.composite
def random_instance(draw):
    """A small random graph plus a small query over it."""
    seed = draw(st.integers(min_value=0, max_value=10_000))
    graph = generate_graph(
        num_vertices=30,
        num_edges=draw(st.integers(min_value=20, max_value=120)),
        num_labels=3,
        seed=seed,
        closure=0.3,
    )
    labels = list(graph.labels)
    shape_name = draw(
        st.sampled_from(["path2", "path3", "star3", "fork", "triangle", "cycle4"])
    )
    base = {
        "path2": templates.path(2),
        "path3": templates.path(3),
        "star3": templates.star(3),
        "fork": templates.fork(1, 2),
        "triangle": templates.triangle(),
        "cycle4": templates.cycle(4),
    }[shape_name]
    chosen = [draw(st.sampled_from(labels)) for _ in range(len(base))]
    return graph, base.with_labels(chosen)


class TestTheorem51:
    @given(random_instance(), st.integers(min_value=1, max_value=2))
    @settings(max_examples=25, deadline=None)
    def test_lp_equals_min_path(self, case, h):
        graph, query = case
        catalog = DegreeCatalog(graph, h=h)
        combinatorial = molp_bound(query, catalog)
        numeric = molp_lp_bound(query, catalog)
        assert numeric == pytest.approx(combinatorial, rel=1e-6, abs=1e-9)

    @given(random_instance())
    @settings(max_examples=15, deadline=None)
    def test_projections_do_not_matter(self, case):
        """Observation 3: projection inequalities are redundant."""
        graph, query = case
        catalog = DegreeCatalog(graph, h=1)
        without = molp_lp_bound(query, catalog, include_projections=False)
        with_proj = molp_lp_bound(query, catalog, include_projections=True)
        assert without == pytest.approx(with_proj, rel=1e-6, abs=1e-9)


class TestObservation1:
    @given(random_instance(), st.integers(min_value=1, max_value=2))
    @settings(max_examples=25, deadline=None)
    def test_molp_upper_bounds_truth(self, case, h):
        graph, query = case
        catalog = DegreeCatalog(graph, h=h)
        truth = count_pattern(graph, query)
        assert molp_bound(query, catalog) >= truth - 1e-6

    @given(random_instance())
    @settings(max_examples=10, deadline=None)
    def test_every_path_is_an_upper_bound(self, case):
        """Observation 1: every (∅, A) path of CEG_M over-estimates."""
        graph, query = case
        if len(query.variables) > 5:
            return
        catalog = DegreeCatalog(graph, h=1)
        truth = count_pattern(graph, query)
        ceg = build_ceg_m(query, catalog)
        try:
            estimates = distinct_estimates(ceg, cap=2000)
        except Exception:
            return
        assert all(e >= truth - 1e-6 for e in estimates)


class TestMolpImprovesAgm:
    @given(random_instance())
    @settings(max_examples=25, deadline=None)
    def test_molp_at_most_agm_on_acyclic(self, case):
        """MOLP <= AGM on acyclic queries.

        On a forest the cover LP's incidence matrix is totally
        unimodular, so AGM's optimum is an integral edge cover, and any
        integral cover is realisable as a CEG_M path (each relation
        extends by deg(∅, attrs) = |R| or better).  On cyclic queries
        AGM may use fractional covers no path realises — e.g. x = 1/2
        on each atom of a single-label triangle gives |R|^{3/2}, and the
        degree-constraint MOLP bound can legitimately exceed it (a
        hypothesis-found counterexample: 30-vertex graph, triangle
        query, MOLP path = LP = 100 > AGM = 89.4, truth = 8) — so the
        domination claim is restricted to acyclic instances.
        """
        graph, query = case
        if not is_acyclic(query):
            return
        catalog = DegreeCatalog(graph, h=1)
        assert molp_bound(query, catalog) <= agm_bound(query, graph) * (1 + 1e-9)

    def test_cyclic_gap_example_stays_safe(self):
        """The triangle counterexample still upper-bounds the truth."""
        graph = generate_graph(
            num_vertices=30, num_edges=68, num_labels=3, seed=16, closure=0.3
        )
        query = templates.triangle().with_labels(["L0", "L0", "L0"])
        catalog = DegreeCatalog(graph, h=1)
        molp = molp_bound(query, catalog)
        assert molp > agm_bound(query, graph)  # the gap is real
        assert molp == pytest.approx(molp_lp_bound(query, catalog))  # Thm 5.1
        assert molp >= count_pattern(graph, query)  # Observation 1


class TestAppendixB:
    @given(random_instance())
    @settings(max_examples=25, deadline=None)
    def test_cbs_equals_molp_on_acyclic_binary(self, case):
        from repro.query.shape import is_acyclic

        graph, query = case
        if not is_acyclic(query):
            return
        catalog = DegreeCatalog(graph, h=1)
        assert cbs_bound(query, catalog) == pytest.approx(
            molp_bound(query, catalog), rel=1e-9
        )

    @given(random_instance())
    @settings(max_examples=20, deadline=None)
    def test_molp_at_most_cbs_everywhere_acyclic_rule(self, case):
        """MOLP is at least as tight as CBS on acyclic queries."""
        from repro.query.shape import is_acyclic

        graph, query = case
        if not is_acyclic(query):
            return
        catalog = DegreeCatalog(graph, h=1)
        assert molp_bound(query, catalog) <= cbs_bound(query, catalog) * (1 + 1e-9)


class TestAppendixC:
    def test_identity_triangle_counterexample(self):
        n = 40
        triples = [(i, i, label) for i in range(n) for label in ("R", "S", "T")]
        graph = LabeledDiGraph.from_triples(triples, num_vertices=n)
        triangle = parse_pattern("a -[R]-> b -[S]-> c -[T]-> a")
        catalog = DegreeCatalog(graph, h=1)
        truth = count_pattern(graph, triangle)
        assert truth == n
        # CBS's coverage formulas under-estimate on this cyclic query...
        assert cbs_bound(triangle, catalog) < truth
        # ...while MOLP remains a genuine upper bound.
        assert molp_bound(triangle, catalog) >= truth


class TestCorollaryD1:
    @given(random_instance())
    @settings(max_examples=20, deadline=None)
    def test_molp_at_most_dbplp_default_cover(self, case):
        graph, query = case
        catalog = DegreeCatalog(graph, h=1)
        molp = molp_bound(query, catalog)
        assert molp <= dbplp_bound(query, catalog) * (1 + 1e-6)

    @given(random_instance())
    @settings(max_examples=8, deadline=None)
    def test_molp_at_most_best_dbplp(self, case):
        graph, query = case
        if len(query) > 4:
            return
        catalog = DegreeCatalog(graph, h=1)
        molp = molp_bound(query, catalog)
        assert molp <= best_dbplp_bound(query, catalog) * (1 + 1e-6)


class TestSmallJoinStats:
    @given(random_instance())
    @settings(max_examples=15, deadline=None)
    def test_h2_at_most_h1(self, case):
        """More statistics can only tighten the MOLP bound (§5.1.1)."""
        graph, query = case
        h1 = molp_bound(query, DegreeCatalog(graph, h=1))
        h2 = molp_bound(query, DegreeCatalog(graph, h=2))
        assert h2 <= h1 * (1 + 1e-9)

    @given(random_instance())
    @settings(max_examples=15, deadline=None)
    def test_h2_still_upper_bound(self, case):
        graph, query = case
        truth = count_pattern(graph, query)
        assert molp_bound(query, DegreeCatalog(graph, h=2)) >= truth - 1e-6
