"""The array CEG must reproduce the reference CEG and path DP exactly.

``hop_statistics_compiled`` (behind ``estimate_from_ceg``) runs
sequential ufunc accumulation over in-edges sorted in the reference fold
order, so every per-hop count/total/min/max — including the
order-sensitive float sums behind the ``avg`` aggregators — must equal
the dict DP of ``tests/oracles/ceg.py`` bit for bit, and the in-edge
arrays must equal the oracle's interned ones, on real ``CEG_O``
instances and on adversarial random DAGs.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import ceg as oracle
from repro.catalog import MarkovTable
from repro.core import (
    CEG,
    build_ceg_o,
    compile_ceg,
    estimate_from_ceg,
    hop_statistics_compiled,
)
from repro.query import QueryPattern, parse_pattern, templates


@st.composite
def random_dags(draw):
    """A layered DAG with float rates, parallel edges and dead ends.

    Returned as ``(nodes, edges)`` so the array CEG and the oracle's
    dict CEG are built from the same emission order.
    """
    layers = draw(st.integers(min_value=2, max_value=4))
    width = draw(st.integers(min_value=1, max_value=3))
    names: list[list[tuple]] = []
    nodes = []
    for layer in range(layers):
        row = [("n", layer, i) for i in range(width)]
        names.append(row)
        nodes.extend((node, layer) for node in row)
    nodes.append((("t",), layers))
    edges = []
    for layer in range(layers - 1):
        for a in names[layer]:
            for b in names[layer + 1]:
                for _ in range(draw(st.integers(min_value=0, max_value=2))):
                    edges.append(
                        (a, b, draw(st.floats(min_value=0.05, max_value=9.0)))
                    )
    for a in names[-1]:
        if draw(st.booleans()):
            edges.append(
                (a, ("t",), draw(st.floats(min_value=0.05, max_value=9.0)))
            )
    # Skip-level edges exercise mixed hop counts at one vertex.
    if layers >= 3 and draw(st.booleans()):
        edges.append(
            (names[0][0], names[2][0], draw(st.floats(min_value=0.05, max_value=9.0)))
        )
    return nodes, edges


def _both(nodes, edges, source=("n", 0, 0), target=("t",)):
    """The array CEG and the oracle's dict CEG of one edge list."""
    reference = oracle.CEG(source=source, target=target)
    for key, rank in nodes:
        reference.add_node(key, rank)
    for edge in edges:
        reference.add_edge(*edge)
    return CEG.from_edges(source, target, nodes, edges), reference


class TestAgainstReferenceDp:
    @given(random_dags())
    @settings(max_examples=120, deadline=None)
    def test_random_dags_bit_identical(self, dag):
        oracle.assert_same_ceg(*_both(*dag))

    @given(random_dags())
    @settings(max_examples=60, deadline=None)
    def test_estimates_bit_identical(self, dag):
        ceg, reference = _both(*dag)
        if not oracle.hop_statistics(reference):
            return
        for hop in ("max", "min", "all"):
            for aggr in ("max", "min", "avg"):
                assert estimate_from_ceg(
                    ceg, hop, aggr
                ) == oracle.estimate_from_ceg(reference, hop, aggr)

    def test_real_ceg_o_instances(self, tiny_graph):
        markov = MarkovTable(tiny_graph, h=2)
        queries = [
            parse_pattern("a -[A]-> b -[B]-> c -[C]-> d"),
            templates.star(3).with_labels(["A", "B", "C"]),
            QueryPattern(
                [("a", "b", "A"), ("b", "c", "B"), ("c", "d", "C"), ("d", "a", "C")]
            ),
        ]
        for query in queries:
            oracle.assert_same_ceg(
                build_ceg_o(query, markov), oracle.build_ceg_o(query, markov)
            )


class TestCompiledStructure:
    def test_interning_roundtrip(self, tiny_graph):
        markov = MarkovTable(tiny_graph, h=2)
        ceg = build_ceg_o(parse_pattern("a -[A]-> b -[B]-> c"), markov)
        assert compile_ceg(ceg) is ceg  # built in array form
        assert ceg.num_nodes == len(ceg.nodes)
        assert ceg.num_edges == len(ceg.in_rate)
        assert tuple(ceg.keys) == tuple(ceg.topological_order())
        assert ceg.keys[ceg.source_pos] == ceg.source == frozenset()
        assert ceg.keys[ceg.target_pos] == ceg.target == frozenset({0, 1})
        assert all(ceg.position(key) == i for i, key in enumerate(ceg.keys))
        # CSR shape: indptr delimits per-target in-edge slices.
        assert ceg.in_indptr[0] == 0
        assert ceg.in_indptr[-1] == ceg.num_edges
        for position in range(ceg.num_nodes):
            lo = ceg.in_indptr[position]
            hi = ceg.in_indptr[position + 1]
            assert (ceg.in_target[lo:hi] == position).all()

    def test_in_edges_sorted_for_bit_identity(self):
        ceg = CEG.from_edges(
            "s",
            "t",
            [("s", 0), ("m1", 1), ("m2", 1), ("t", 2)],
            [("s", "m2", 2.0), ("s", "m1", 3.0), ("m2", "t", 5.0), ("m1", "t", 7.0)],
        )
        lo, hi = ceg.in_indptr[ceg.target_pos], ceg.in_indptr[ceg.target_pos + 1]
        # The target's in-edges must come in source topological order
        # (m1 before m2), not emission order; out-edges keep emission order.
        sources = [ceg.keys[i] for i in ceg.in_source[lo:hi]]
        assert sources == ["m1", "m2"]
        assert [e.target for e in ceg.out_edges("s")] == ["m2", "m1"]

    def test_unreachable_target(self):
        ceg, reference = _both([("s", 0), ("t", 1)], [], "s", "t")
        assert hop_statistics_compiled(ceg) == {}
        assert oracle.hop_statistics(reference) == {}
        oracle.assert_same_ceg(ceg, reference)


class TestZeroAndDegenerateRates:
    def test_zero_rate_edges(self):
        """Rate 0.0 must not poison min/max with inf*0 artifacts."""
        ceg, reference = _both(
            [("s", 0), ("m", 1), ("t", 2)],
            [("s", "m", 0.0), ("m", "t", 3.0)],
            "s",
            "t",
        )
        oracle.assert_same_ceg(ceg, reference)
        assert estimate_from_ceg(ceg, "max", "max") == 0.0

    def test_single_hop(self):
        ceg, reference = _both([("s", 0), ("t", 1)], [("s", "t", 1.5)], "s", "t")
        oracle.assert_same_ceg(ceg, reference)
        stats = hop_statistics_compiled(ceg)
        assert stats[1].count == 1.0
        assert stats[1].total == 1.5


def test_service_estimates_identical_compiled_or_not(tiny_graph):
    """End-to-end: the array CEG's estimates equal the reference DP's."""
    markov = MarkovTable(tiny_graph, h=3)
    query = parse_pattern("w -[A]-> x -[B]-> y -[C]-> z")
    ceg = build_ceg_o(query, markov)
    reference = oracle.build_ceg_o(query, markov)
    for hop in ("max", "min", "all"):
        for aggr in ("max", "min", "avg"):
            assert estimate_from_ceg(ceg, hop, aggr) == oracle.estimate_from_ceg(
                reference, hop, aggr
            )
