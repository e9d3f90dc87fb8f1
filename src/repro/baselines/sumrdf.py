"""A SumRDF-style summary estimator [Stefanoni, Motik, Kostylev, WWW 2018].

SumRDF collapses the data graph into a summary of ``B`` buckets and
returns the *expected* cardinality of the query over all graphs
consistent with the summary — a uniformity assumption over possible
worlds (§6.4).  Vertices are bucketed by a hash of their incident
label signature (so structurally similar vertices share buckets); each
labeled bucket pair stores the edge count.  The hash is a fixed integer
mix, so the summary is a pure function of (graph, buckets, seed).

The expected count is a weighted homomorphism count over the summary:
every query-variable assignment to buckets contributes
``Π_atoms w(b1, b2, ℓ) / (n_b1 · n_b2) × Π_vars n_b``.  Acyclic queries
use a dense tree DP; cyclic queries fall back to bucket backtracking
with a step budget, surfacing :class:`CountBudgetExceeded` as the
"timeout" the paper reports for SumRDF on some workloads.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from repro.errors import CountBudgetExceeded, PatternError
from repro.graph.digraph import LabeledDiGraph
from repro.query.pattern import QueryPattern
from repro.query.shape import spanning_tree_and_closures

__all__ = ["SumRdfEstimator"]


def _signature_bits(direction: int, label_id: int) -> int:
    """A fixed 32-bit mix of (edge direction, label id).

    murmur3's finalizer over ``2 * label_id + direction + 1``: unlike
    Python's ``hash`` of a tuple, it does not depend on the process's
    ``PYTHONHASHSEED``.
    """
    x = (2 * label_id + direction + 1) & 0xFFFFFFFF
    x ^= x >> 16
    x = (x * 0x85EBCA6B) & 0xFFFFFFFF
    x ^= x >> 13
    x = (x * 0xC2B2AE35) & 0xFFFFFFFF
    x ^= x >> 16
    return x


class SumRdfEstimator:
    """Summary-graph estimator with expected-value semantics.

    Estimation reads only the bucket sizes and per-label probability
    matrices.
    """

    def __init__(self, graph: LabeledDiGraph, num_buckets: int = 64, seed: int = 0):
        if num_buckets < 1:
            raise ValueError("need at least one bucket")
        self.graph = graph
        self.num_buckets = num_buckets
        self._bucket_of = self._assign_buckets(seed)
        self._sizes = np.bincount(self._bucket_of, minlength=num_buckets).astype(
            np.float64
        )
        self._matrices: dict[str, np.ndarray] = {}
        for label in graph.labels:
            relation = graph.relation(label)
            weights = np.zeros((num_buckets, num_buckets))
            np.add.at(
                weights,
                (
                    self._bucket_of[relation.src_by_src],
                    self._bucket_of[relation.dst_by_src],
                ),
                1.0,
            )
            # Edge probability between two buckets: w / (n_b1 * n_b2).
            outer = np.outer(
                np.maximum(self._sizes, 1.0), np.maximum(self._sizes, 1.0)
            )
            self._matrices[label] = weights / outer

    def _assign_buckets(self, seed: int) -> np.ndarray:
        signature: dict[int, int] = defaultdict(int)
        for lid, label in enumerate(self.graph.labels):
            relation = self.graph.relation(label)
            for u in np.unique(relation.src_by_src):
                signature[int(u)] ^= _signature_bits(0, lid)
            for v in np.unique(relation.dst_by_src):
                signature[int(v)] ^= _signature_bits(1, lid)
        buckets = np.zeros(self.graph.num_vertices, dtype=np.int64)
        for vertex in range(self.graph.num_vertices):
            mixed = (signature.get(vertex, 0) * 2654435761 + seed) & 0xFFFFFFFF
            buckets[vertex] = mixed % self.num_buckets
        return buckets

    def _matrix(self, label: str) -> np.ndarray:
        matrix = self._matrices.get(label)
        if matrix is None:
            return np.zeros((self.num_buckets, self.num_buckets))
        return matrix

    def estimate(self, query: QueryPattern, budget: int | None = 2_000_000) -> float:
        """Expected cardinality; raises CountBudgetExceeded on blow-up."""
        _, closures = spanning_tree_and_closures(query)
        if not closures:
            return self._estimate_acyclic(query)
        return self._estimate_cyclic(query, budget)

    # ------------------------------------------------------------------
    # Acyclic: dense message passing over buckets
    # ------------------------------------------------------------------
    def _estimate_acyclic(self, query: QueryPattern) -> float:
        root = query.variables[0]
        vectors: dict[str, np.ndarray] = {}

        def vector_for(var: str) -> np.ndarray:
            vec = vectors.get(var)
            if vec is None:
                vec = self._sizes.copy()
                vectors[var] = vec
            return vec

        order: list[tuple[str, str, int]] = []
        visited = {root}
        used: set[int] = set()
        stack = [root]
        while stack:
            var = stack.pop()
            for index in query.edges_at(var):
                if index in used:
                    continue
                edge = query.edges[index]
                other = edge.other_end(var)
                if other in visited:
                    raise PatternError("acyclic path hit a cycle")
                used.add(index)
                visited.add(other)
                order.append((var, other, index))
                stack.append(other)
        for parent, child, index in reversed(order):
            edge = query.edges[index]
            child_vec = vector_for(child)
            matrix = self._matrix(edge.label)
            if edge.src == parent:
                message = matrix @ child_vec
            else:
                message = matrix.T @ child_vec
            vectors[parent] = vector_for(parent) * message
        return float(vector_for(root).sum())

    # ------------------------------------------------------------------
    # Cyclic: bucket backtracking with budget
    # ------------------------------------------------------------------
    def _estimate_cyclic(self, query: QueryPattern, budget: int | None) -> float:
        variables = list(query.variables)
        spent = 0

        def recurse(position: int, binding: dict[str, int], weight: float) -> float:
            nonlocal spent
            if position == len(variables):
                return weight
            var = variables[position]
            constraints: list[tuple[np.ndarray, int, bool]] = []
            for index in query.edges_at(var):
                edge = query.edges[index]
                other = edge.other_end(var)
                if other == var:
                    constraints.append((self._matrix(edge.label), -1, True))
                    continue
                if other in binding:
                    constraints.append(
                        (self._matrix(edge.label), binding[other], edge.src == var)
                    )
            values = self._sizes.copy()
            for matrix, other_bucket, var_is_src in constraints:
                if other_bucket == -1:
                    values = values * np.diag(matrix)
                elif var_is_src:
                    values = values * matrix[:, other_bucket]
                else:
                    values = values * matrix[other_bucket, :]
            if budget is not None:
                spent += self.num_buckets
                if spent > budget:
                    raise CountBudgetExceeded("SumRDF estimate timed out")
            if position == len(variables) - 1:
                return weight * float(values.sum())
            total = 0.0
            for bucket in np.nonzero(values)[0]:
                binding[var] = int(bucket)
                total += recurse(
                    position + 1, binding, weight * float(values[bucket])
                )
            binding.pop(var, None)
            return total

        # Count each bucket's weight once per variable: the per-variable
        # size factor is folded into `values` above at binding time; for
        # edges counted from both endpoints we must avoid double
        # multiplication, so constraints only look at already-bound
        # neighbours (each atom applied exactly once).
        return recurse(0, {}, 1.0)
