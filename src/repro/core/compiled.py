"""The array layout of a CEG, and the order contract its DPs rely on.

A :class:`~repro.core.ceg.CEG` is built directly in array form:
:func:`repro.core.ceg_o.build_ceg_o` evaluates its edges over the atom
subset lattice and lays them out with :func:`repro.core.ceg.layout`, as
:meth:`repro.core.ceg.CEG.from_edges` does for keyed vertex and edge
lists.  Nothing is interned after the fact, so
:func:`compile_ceg` only names that step for callers that time or call
it explicitly.

Order contract (bit identity):

* vertices take topological positions by (rank, ``repr`` of the key) —
  for ``CEG_O``, (popcount, ``repr`` of the atom-index frozenset built
  from the ascending atoms);
* in-edges are sorted by (target position, source position, emission
  order), and parallel edges are kept.  Emission order is the order the
  builder produced the edges in; within one source, ``CEG_O`` emits in
  candidate column order (larger extensions first, then by ascending
  sorted atoms), the order in which the stack BFS kept in
  ``tests/oracles/ceg.py`` tries extensions.  ``CEG_OCR`` issues its
  ``rate()`` calls in that BFS's stack order, since the sampled rates
  depend on it.

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
