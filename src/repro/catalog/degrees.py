"""Maximum-degree statistics for pessimistic estimators (§5.1).

MOLP's inputs are the statistics ``deg(X, Y, R_i)`` — the maximum, over
values ``v`` of attribute set ``X``, of the number of distinct
``Y``-tuples in ``π_Y R_i`` whose ``X``-part equals ``v`` — for every
relation ``R_i`` and every ``X ⊆ Y ⊆ attrs(R_i)``.

§5.1.1 extends this to the outputs of small joins: a stored 2-join is
treated as an additional ternary relation.  Every such relation has one
representation, :class:`StatRelation`: its canonical key, its
cardinality and one float64 ``values`` array holding all ``3^k``
degrees of its ``k`` attributes.  The array is in *image order*, fixed
per arity by :func:`pair_table`: bit ``i`` of a mask is the ``i``-th
sorted canonical variable name (``v0, v1, ...`` of
:func:`~repro.query.canonical.canonical_pattern`), and pairs run by
``Y``'s bits, then ``X``'s.  The offline builder, delta maintenance and
graph-backed catalogs all build relations with
:meth:`StatRelation.from_table`; a generation image stores the arrays
back to back, so a mapped relation is a slice of the image.

:class:`DegreeCatalog` keeps relations per canonical key so a workload
shares statistics across queries, and enforces that MOLP uses joins of
at most the Markov-table size ``h`` (the "strict superset of the
statistics used by optimistic estimators" guarantee of §6.4).  A lookup
returns a :class:`RelationView`: the shared relation plus a map from
the caller's variables to canonical bits, so no degrees are copied.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from repro.engine.frames import (
    Frame,
    encode_columns,
    extend_frame,
    frame_from_edge,
)
from repro.errors import MissingStatisticError
from repro.graph.digraph import LabeledDiGraph
from repro.query.canonical import (
    canonical_key,
    canonical_order,
    growth_order,
    key_from_json,
    key_pattern,
    key_to_json,
)
from repro.query.pattern import QueryPattern

__all__ = [
    "StatRelation",
    "RelationView",
    "DegreeCatalog",
    "all_degree_pairs",
    "degree_grid",
    "materialise_table",
    "pair_table",
    "key_arity",
]


def materialise_table(
    graph, pattern: QueryPattern, max_rows: int | None
) -> Frame:
    """The full match table of a pattern, grown along its growth order.

    Atoms join in :func:`~repro.query.canonical.growth_order`, the order
    the cold builder grows the pattern's canonical parent chain in, so
    whether a table passes ``max_rows`` depends only on the key, the
    graph and ``max_rows``: graph-backed catalogs, the bulk builder and
    delta maintenance store the same relations.  ``max_rows`` aborts an
    oversized expanding step with :class:`~repro.errors.PlanningError`.
    """
    order = growth_order(pattern)
    frame = frame_from_edge(graph, pattern.edges[order[0]])
    for index in order[1:]:
        frame, _ = extend_frame(
            graph, frame, pattern.edges[index], max_rows=max_rows
        )
    return frame


@functools.lru_cache(maxsize=None)
def pair_table(width: int) -> tuple[np.ndarray, np.ndarray]:
    """``(x_masks, y_masks)`` of every ``X ⊆ Y`` over ``width`` bits.

    The image order of a relation's ``3^width`` degrees: pairs sorted by
    the ascending bit list of ``Y``, then that of ``X`` — which, with
    bit ``i`` standing for the ``i``-th sorted variable name, is the
    order of sorted ``Y`` names, then sorted ``X`` names.
    """
    def bits(mask: int) -> list[int]:
        return [i for i in range(width) if mask >> i & 1]

    pairs = sorted(
        (
            (x_mask, y_mask)
            for y_mask in range(1 << width)
            for x_mask in range(y_mask + 1)
            if x_mask & y_mask == x_mask
        ),
        key=lambda pair: (bits(pair[1]), bits(pair[0])),
    )
    x_masks = np.asarray([x for x, _ in pairs], dtype=np.uint32)
    y_masks = np.asarray([y for _, y in pairs], dtype=np.uint32)
    x_masks.flags.writeable = False
    y_masks.flags.writeable = False
    return x_masks, y_masks


@functools.lru_cache(maxsize=None)
def _pair_index(width: int) -> tuple[int, ...]:
    """Position of ``(x_mask, y_mask)`` in image order, at ``y << width | x``.

    ``-1`` marks masks with ``X ⊄ Y``.
    """
    index = [-1] * (1 << 2 * width)
    x_masks, y_masks = pair_table(width)
    for position, (x_mask, y_mask) in enumerate(
        zip(x_masks.tolist(), y_masks.tolist())
    ):
        index[y_mask << width | x_mask] = position
    return tuple(index)


@functools.lru_cache(maxsize=None)
def _name_bits(width: int) -> tuple[int, ...]:
    """Mask bit of canonical variable ``v{i}``: its rank in sorted names."""
    ranked = sorted(range(width), key=lambda i: f"v{i}")
    return tuple(1 << ranked.index(i) for i in range(width))


@functools.lru_cache(maxsize=None)
def _grid_index(canonical: tuple[int, ...]) -> np.ndarray:
    """Image positions of :func:`degree_grid`'s cells (0 where X ⊄ Y)."""
    width = len(canonical)
    name_bits = _name_bits(width)
    masks = [
        sum(name_bits[i] for j, i in enumerate(canonical) if local >> j & 1)
        for local in range(1 << width)
    ]
    index = _pair_index(width)
    grid = np.zeros(1 << 2 * width, dtype=np.intp)
    for y in range(1 << width):
        for x in range(1 << width):
            if not x & ~y:
                grid[y << width | x] = index[masks[y] << width | masks[x]]
    grid.flags.writeable = False
    return grid


def degree_grid(values: np.ndarray, canonical: tuple[int, ...]) -> np.ndarray:
    """A relation's degrees indexed by the caller's own variable masks.

    Bit ``j`` of a local mask is the caller's ``j``-th variable, which
    plays canonical ``v{canonical[j]}``.  Cell ``y << k | x`` holds
    ``deg(X, Y)`` for every local ``X ⊆ Y`` (``k`` variables); other
    cells are never read.  One gather per relation, so MOLP reads every
    move's rates without a lookup per lattice node.
    """
    return values[_grid_index(canonical)]


def key_arity(key: tuple) -> int:
    """Number of variables of the pattern a canonical key denotes."""
    return 1 + max(max(src, dst) for src, dst, _ in key)


def all_degree_pairs(
    columns: tuple[np.ndarray, ...],
    names: tuple[str, ...],
    num_vertices: int,
) -> np.ndarray:
    """Every ``deg(X, Y)`` with ``X ⊆ Y ⊆ names``, in image order.

    ``columns[j]`` holds the bindings of ``names[j]`` (a frame's column
    arrays).  The ``3^k`` values are laid out by :func:`pair_table`, bit
    ``i`` standing for the ``i``-th of the sorted names.  Rows are
    sorted once per column order of :func:`_sort_plan`; after a
    lexicographic sort, the rows sharing a prefix of that order form one
    run, so ``deg(X, Y)`` for an ``X``-prefix and a longer ``Y``-prefix
    is the largest number of ``Y``-run starts inside one ``X``-run.
    ``deg(X, X)`` is 1 on a non-empty table and needs no sort.  Values
    are exact tuple counts.
    """
    column_of = dict(zip(names, columns))
    names = tuple(sorted(names))
    width = len(names)
    if len(columns[0]) == 0:
        return np.zeros(3 ** width, dtype=np.float64)
    index = _pair_index(width)
    x_masks, y_masks = pair_table(width)
    values = np.where(x_masks == y_masks, 1.0, 0.0)
    for order, pairs in _sort_plan(width):
        starts = _prefix_run_starts(
            [column_of[names[i]] for i in order], num_vertices
        )
        masks = [0]
        for column in order:
            masks.append(masks[-1] | 1 << column)
        for i, j in pairs:
            if i == 0:
                value = np.count_nonzero(starts[j - 1])
            else:
                value = np.add.reduceat(
                    starts[j - 1],
                    np.flatnonzero(starts[i - 1]),
                    dtype=np.int64,
                ).max()
            values[index[masks[j] << width | masks[i]]] = value
    return values


def _prefix_run_starts(
    columns: list[np.ndarray], num_vertices: int
) -> np.ndarray:
    """Sort rows lexicographically and mark where each prefix changes.

    Row ``j - 1`` of the result flags, for every sorted row, whether it
    starts a new run of equal ``j``-column prefixes (the first row always
    does).  Radix keys are sorted as int64 and their prefixes read off by
    division; tables whose keys would overflow sort a structured view.
    """
    count, width = len(columns[0]), len(columns)
    starts = np.empty((width, count), dtype=bool)
    starts[:, 0] = True
    keys = encode_columns(columns, num_vertices)
    keys.sort()
    if keys.dtype == np.int64:
        for j in range(1, width + 1):
            prefix = keys // num_vertices ** (width - j) if j < width else keys
            np.not_equal(prefix[1:], prefix[:-1], out=starts[j - 1, 1:])
    else:
        ordered = keys.view(np.int64).reshape(count, width)
        np.logical_or.accumulate(
            ordered[1:] != ordered[:-1], axis=1, out=starts[:, 1:].T
        )
    return starts


@functools.lru_cache(maxsize=None)
def _sort_plan(width: int) -> tuple[tuple[tuple[int, ...], tuple], ...]:
    """Column orders whose prefix pairs cover every ``X ⊊ Y`` of a width.

    Each entry is ``(order, pairs)``: sorting by ``order`` answers the
    ``(i, j)`` pairs of prefix lengths listed with it (``i < j``; ``i = 0``
    is ``X = ∅``).  Every still-uncovered ``(X, Y)``, smallest ``Y``
    first, gets the order ``X``'s columns, then the rest of ``Y``'s, then
    the others.  Each ``({a}, {a, b})`` needs an order of its own, so
    three columns take all six orders.
    """
    columns = range(width)
    subsets = [
        frozenset(chosen)
        for size in range(width + 1)
        for chosen in itertools.combinations(columns, size)
    ]
    pairs = sorted(
        ((x, y) for y in subsets for x in subsets if x < y),
        key=lambda pair: (len(pair[1]), len(pair[0]), sorted(pair[1]),
                          sorted(pair[0])),
    )
    covered: set = set()
    plan = []
    for x, y in pairs:
        if (x, y) in covered:
            continue
        order = (
            tuple(sorted(x)) + tuple(sorted(y - x))
            + tuple(sorted(set(columns) - y))
        )
        prefixes = [frozenset(order[:j]) for j in range(width + 1)]
        fresh = tuple(
            (i, j)
            for j in range(1, width + 1)
            for i in range(j)
            if (prefixes[i], prefixes[j]) not in covered
        )
        covered.update((prefixes[i], prefixes[j]) for i, j in fresh)
        plan.append((order, fresh))
    return tuple(plan)


class StatRelation:
    """One stored ≤h-join: canonical key, cardinality, degrees.

    ``values`` is the float64 array of all ``3^k`` degrees in the image
    order of :func:`pair_table` (``k`` = :func:`key_arity` of ``key``).
    It may be a slice of a mapped generation image; it is never written.
    """

    __slots__ = ("key", "cardinality", "values")

    def __init__(self, key: tuple, cardinality: float, values: np.ndarray):
        self.key = key
        self.cardinality = float(cardinality)
        self.values = values

    @classmethod
    def from_table(
        cls, pattern: QueryPattern, table: Frame, num_vertices: int
    ) -> "StatRelation":
        """The canonical relation of ``pattern`` from its match table.

        The one constructor of every relation a catalog holds — bulk
        build, delta maintenance and graph-backed lookups alike — so two
        builds of one canonical pattern, however their tables were
        grown, store identical bytes.  Columns take canonical names by
        the order :func:`~repro.query.canonical.canonical_order` found
        (degree values are renaming-invariant).
        """
        position = {var: i for i, var in enumerate(canonical_order(pattern))}
        names = tuple(f"v{position[var]}" for var in table.variables)
        return cls(
            canonical_key(pattern),
            float(table.size),
            all_degree_pairs(table.columns, names, num_vertices),
        )

    def to_json(self) -> dict:
        """``{key, cardinality, values}`` for a build checkpoint or an
        image's ``irregular`` list."""
        return {
            "key": key_to_json(self.key),
            "cardinality": self.cardinality,
            "values": self.values.tolist(),
        }

    @classmethod
    def from_json(cls, payload: dict) -> "StatRelation":
        """The relation :meth:`to_json` wrote."""
        return cls(
            key_from_json(payload["key"]),
            float(payload["cardinality"]),
            np.asarray(payload["values"], dtype=np.float64),
        )


class RelationView:
    """A stored relation read under a caller's variable names.

    ``deg(X, Y)`` maps both sets to canonical masks and indexes the
    shared ``values`` array; nothing is copied per view.
    """

    __slots__ = ("pattern", "attributes", "relation", "_bits", "_index", "_width")

    def __init__(self, pattern: QueryPattern, relation: StatRelation):
        self.pattern = pattern
        self.attributes = frozenset(pattern.variables)
        self.relation = relation
        order = canonical_order(pattern)
        self._width = len(order)
        self._bits = dict(zip(order, _name_bits(self._width)))
        self._index = _pair_index(self._width)

    @property
    def cardinality(self) -> float:
        """Number of tuples (matches) in the relation."""
        return self.relation.cardinality

    def deg(self, x: frozenset[str], y: frozenset[str]) -> float:
        """``deg(X, Y)`` with ``X ⊆ Y ⊆ attrs`` (set-projection semantics)."""
        if not x <= y or not y <= self.attributes:
            raise MissingStatisticError(
                f"deg requires X ⊆ Y ⊆ {set(self.attributes)}; "
                f"got X={set(x)}, Y={set(y)}"
            )
        bits = self._bits
        x_mask = sum(bits[v] for v in x)
        y_mask = sum(bits[v] for v in y)
        return float(self.relation.values[self._index[y_mask << self._width | x_mask]])


class DegreeCatalog:
    """Per-query provider of the relations MOLP may use.

    For a query ``Q`` and join-statistics size ``h``, the available
    relations are every connected subpattern of ``Q`` with at most ``h``
    atoms (base atoms for ``h = 1``).  Relations are kept by canonical
    key and read through a :class:`RelationView` under the query's own
    variable names.
    """

    def __init__(
        self,
        graph: LabeledDiGraph | None,
        h: int = 1,
        max_rows: int | None = 5_000_000,
        complete: bool = False,
    ):
        if h < 1:
            raise ValueError("degree catalog needs h >= 1")
        self.graph = graph
        self.h = h
        self.max_rows = max_rows
        self.complete = complete
        self._cache: dict[tuple, StatRelation] = {}
        # Optional mapped image backing (repro.stats.flatpack.FlatDegrees):
        # cache misses binary-search it before the graph, and
        # materialize() must fold it into _cache before any mutation.
        self._flat = None

    def relation_for(self, pattern: QueryPattern) -> RelationView:
        """The stored relation of a (connected, ≤ h atoms) subpattern."""
        if len(pattern) > self.h or not pattern.is_connected():
            raise MissingStatisticError(
                f"no stored statistics for pattern of size {len(pattern)}"
            )
        return RelationView(pattern, self.stored(canonical_key(pattern), pattern))

    def stored(
        self, key: tuple, pattern: QueryPattern | None = None
    ) -> StatRelation:
        """The relation of the covered pattern whose canonical key is ``key``.

        The caller vouches for coverage (connected, at most ``h`` atoms).
        ``pattern`` is only read on a miss; it defaults to the key's
        canonical pattern, which has the same degrees.
        """
        relation = self._cache.get(key)
        if relation is None:
            relation = self._fetch(
                pattern if pattern is not None else key_pattern(key), key
            )
        return relation

    def _fetch(self, pattern: QueryPattern, key: tuple) -> StatRelation:
        """A relation missing from ``_cache``: image, graph, or empty."""
        if self._flat is not None:
            relation = self._flat.lookup(key)
            if relation is not None:
                self._cache[key] = relation
                return relation
        if self.graph is not None:
            table = materialise_table(self.graph, pattern, self.max_rows)
            relation = StatRelation.from_table(
                pattern, table, self.graph.num_vertices
            )
            self._cache[key] = relation
            return relation
        if self.complete:
            # Bulk enumeration stored every non-empty pattern, so a miss
            # can only be an empty relation.  It is not kept: a later
            # save must not add it to the image a cold build writes.
            return StatRelation(
                key, 0.0, np.zeros(3 ** key_arity(key), dtype=np.float64)
            )
        raise MissingStatisticError(
            f"statistics artifact does not cover pattern {pattern!r} "
            "(graph-free degree catalog)"
        )

    def stat_relations(self, query: QueryPattern) -> list[RelationView]:
        """All stored relations usable for ``query`` (atoms + small joins)."""
        result = []
        for subset in query.connected_edge_subsets(max_size=self.h):
            result.append(self.relation_for(query.subpattern(subset)))
        return result

    def materialize(self) -> None:
        """Fold any mapped image backing into ``_cache``.

        Mandatory before mutating ``_cache`` (maintenance, re-saving);
        idempotent and free when the catalog has no image backing.  The
        folded relations slice one private copy of the image's degrees,
        so none of them keeps the mapped file alive.
        """
        flat = self._flat
        if flat is None:
            return
        self._cache.update(flat.items())
        self._flat = None

    @property
    def num_entries(self) -> int:
        """Number of canonical relations stored (image backing included)."""
        if self._flat is not None:
            extras = sum(
                1 for key in self._cache if self._flat.index.find(key) is None
            )
            return self._flat.count + extras
        return len(self._cache)
