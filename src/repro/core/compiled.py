"""The array layout of a CEG, and the order contract its DPs rely on.

A :class:`~repro.core.ceg.CEG` is built directly in array form:
:func:`repro.core.ceg_o.build_ceg_o` emits its edges from the bitmask
BFS into flat arrays, and :func:`repro.core.ceg.assemble` lays them out.
Nothing is interned after the fact, so :func:`compile_ceg` only names
that step for callers that time or call it explicitly.

Order contract (bit identity):

* vertices take topological positions by (rank, ``repr`` of the key) —
  for ``CEG_O``, (popcount, ``repr`` of the atom-index frozenset);
* in-edges are sorted by (target position, source position, emission
  order), where emission order is the order the builder produced the
  edges in, and parallel edges are kept.

For every vertex that is the order in which a vertex-by-vertex DP —
sources visited in topological order, each source's out-edges in
emission order — folds contributions into the vertex's accumulator.
Sequential ufunc accumulation over the in-edge arrays therefore
reproduces such a DP's float sums bit for bit, which the all-hops-avg
estimates and the golden regressions depend on.
"""

from __future__ import annotations

from repro.core.ceg import CEG

__all__ = ["compile_ceg"]


def compile_ceg(ceg: CEG) -> CEG:
    """The array form of a built CEG: the CEG itself."""
    return ceg
