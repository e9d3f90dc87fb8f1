"""Tests for the generic CEG structure and path-statistics DP."""

import pytest

from oracles import ceg as oracle
from repro.core import (
    CEG,
    distinct_estimates,
    estimate_from_ceg,
    hop_statistics_compiled,
)
from repro.errors import EstimationError

DIAMOND_NODES = [("s", 0), ("a", 1), ("b", 1), ("c", 2), ("t", 3)]
DIAMOND_EDGES = [
    ("s", "a", 2.0),
    ("s", "b", 3.0),
    ("a", "t", 5.0),
    ("b", "t", 7.0),
    ("a", "c", 2.0),
    ("c", "t", 2.0),
]


def _diamond_ceg() -> CEG:
    """source -> {a: 2 | b: 3} -> target (x5 from a, x7 from b).

    Paths: 2*5=10 (2 hops), 3*7=21 (2 hops), and a long route
    source -> a -> c -> target: 2*2*2 = 8 (3 hops).
    """
    return CEG.from_edges("s", "t", DIAMOND_NODES, DIAMOND_EDGES)


def _no_path_ceg() -> CEG:
    return CEG.from_edges("s", "t", [("s", 0), ("t", 1)], [])


class TestCEGStructure:
    def test_rank_must_increase(self):
        with pytest.raises(ValueError):
            CEG.from_edges("s", "t", [("s", 0), ("t", 0)], [("s", "t", 1.0)])

    def test_unregistered_nodes_rejected(self):
        with pytest.raises(ValueError):
            CEG.from_edges("s", "t", [("s", 0)], [("s", "t", 1.0)])
        with pytest.raises(ValueError):
            CEG.from_edges(
                "s", "t", [("s", 0), ("t", 1)], [("s", "x", 1.0)]
            )

    def test_rank_reregistration_conflict(self):
        with pytest.raises(ValueError):
            CEG.from_edges("s", "s", [("s", 0), ("s", 1)], [])

    def test_topological_order(self):
        ceg = _diamond_ceg()
        order = ceg.topological_order()
        assert order.index("s") < order.index("a") < order.index("t")
        assert [ceg.rank(key) for key in order] == [0, 1, 1, 2, 3]
        assert [e.target for e in ceg.out_edges("a")] == ["t", "c"]

    def test_prune_unreachable(self):
        """The explicit CEG_M oracle prunes dead vertices."""
        ceg = oracle.CEG(source="s", target="t")
        for key, rank in DIAMOND_NODES + [("dead", 1)]:
            ceg.add_node(key, rank)
        for edge in DIAMOND_EDGES + [("s", "dead", 9.0)]:
            ceg.add_edge(*edge)  # "dead" has no path onward to target
        ceg.prune_unreachable()
        assert "dead" not in ceg.nodes
        assert "a" in ceg.nodes


class TestHopStatistics:
    def test_hop_buckets(self):
        stats = hop_statistics_compiled(_diamond_ceg())
        assert set(stats) == {2, 3}
        assert stats[2].count == 2
        assert stats[3].count == 1

    def test_two_hop_values(self):
        stats = hop_statistics_compiled(_diamond_ceg())[2]
        assert stats.minimum == pytest.approx(10.0)
        assert stats.maximum == pytest.approx(21.0)
        assert stats.total == pytest.approx(31.0)

    def test_no_path(self):
        assert hop_statistics_compiled(_no_path_ceg()) == {}


class TestEstimateFromCeg:
    def test_all_nine_values(self):
        ceg = _diamond_ceg()
        assert estimate_from_ceg(ceg, "max", "max") == pytest.approx(8.0)
        assert estimate_from_ceg(ceg, "max", "min") == pytest.approx(8.0)
        assert estimate_from_ceg(ceg, "max", "avg") == pytest.approx(8.0)
        assert estimate_from_ceg(ceg, "min", "max") == pytest.approx(21.0)
        assert estimate_from_ceg(ceg, "min", "min") == pytest.approx(10.0)
        assert estimate_from_ceg(ceg, "min", "avg") == pytest.approx(15.5)
        assert estimate_from_ceg(ceg, "all", "max") == pytest.approx(21.0)
        assert estimate_from_ceg(ceg, "all", "min") == pytest.approx(8.0)
        assert estimate_from_ceg(ceg, "all", "avg") == pytest.approx(13.0)

    def test_invalid_choices(self):
        ceg = _diamond_ceg()
        with pytest.raises(ValueError):
            estimate_from_ceg(ceg, "bogus", "max")
        with pytest.raises(ValueError):
            estimate_from_ceg(ceg, "max", "bogus")

    def test_no_path_raises(self):
        with pytest.raises(EstimationError):
            estimate_from_ceg(_no_path_ceg(), "max", "max")


class TestDistinctEstimates:
    def test_values(self):
        estimates = distinct_estimates(_diamond_ceg())
        assert estimates == [8.0, 10.0, 21.0]

    def test_duplicates_collapse(self):
        ceg = CEG.from_edges(
            "s",
            "t",
            [("s", 0), ("a", 1), ("b", 1), ("t", 2)],
            [("s", "a", 2.0), ("s", "b", 4.0), ("a", "t", 6.0), ("b", "t", 3.0)],
        )
        assert distinct_estimates(ceg) == [12.0]


class TestMinWeightPath:
    """The oracle's topological relaxation reads any CEG's views."""

    def test_min_path(self):
        product, edges = oracle.min_weight_path(_diamond_ceg())
        assert product == pytest.approx(8.0)
        assert [e.target for e in edges] == ["a", "c", "t"]

    def test_no_path_raises(self):
        with pytest.raises(EstimationError):
            oracle.min_weight_path(_no_path_ceg())
