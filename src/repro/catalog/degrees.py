"""Maximum-degree statistics for pessimistic estimators (§5.1).

MOLP's inputs are the statistics ``deg(X, Y, R_i)`` — the maximum, over
values ``v`` of attribute set ``X``, of the number of distinct
``Y``-tuples in ``π_Y R_i`` whose ``X``-part equals ``v`` — for every
relation ``R_i`` and every ``X ⊆ Y ⊆ attrs(R_i)``.

§5.1.1 extends this to the outputs of small joins: a stored 2-join is
treated as an additional ternary relation.  :class:`StatRelation` wraps
either kind (a subpattern of the query) by materialising its match table
once and answering every ``deg(X, Y)`` from grouped distinct counts.

:class:`DegreeCatalog` caches :class:`StatRelation` objects per
canonical pattern so a workload shares statistics across queries, and
enforces that MOLP uses joins of at most the Markov-table size ``h``
(the "strict superset of the statistics used by optimistic estimators"
guarantee of §6.4).
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from repro.engine.join import extend_by_edge, start_table
from repro.errors import MissingStatisticError, check_format_version
from repro.graph.digraph import LabeledDiGraph
from repro.query.canonical import canonical_key
from repro.query.pattern import QueryPattern
from repro.query.shape import spanning_tree_and_closures

__all__ = [
    "StatRelation",
    "DegreeCatalog",
    "group_max_distinct",
    "all_degree_pairs",
    "materialise_table",
    "DEGREES_FORMAT_VERSION",
]

DEGREES_FORMAT_VERSION = 1


def materialise_table(graph, pattern: QueryPattern, max_rows: int | None):
    """The full match table of a pattern (spanning tree, then closures).

    The one join-order recipe shared by the lazy :class:`StatRelation`
    and the offline bulk builder — both planes must produce the same
    rows or bit-identity between them breaks.
    """
    tree, closures = spanning_tree_and_closures(pattern)
    order = tree + closures
    table = start_table(graph, pattern.edges[order[0]])
    for index in order[1:]:
        table = extend_by_edge(
            graph, table, pattern.edges[index], max_rows=max_rows
        )
    return table


def _encode_columns(rows: np.ndarray, num_vertices: int) -> np.ndarray:
    """Pack row tuples into scalar keys (or structured fallback)."""
    if rows.shape[1] == 0:
        return np.zeros(rows.shape[0], dtype=np.int64)
    width = rows.shape[1]
    # Check the radix encoding fits in int64.
    if num_vertices ** width < 2 ** 62:
        keys = rows[:, 0].astype(np.int64)
        for column in range(1, width):
            keys = keys * np.int64(num_vertices) + rows[:, column]
        return keys
    # Fallback: lexicographic unique on the raw rows via void view.
    packed = np.ascontiguousarray(rows.astype(np.int64))
    return packed.view([("", np.int64)] * width).reshape(-1)


def group_max_distinct(
    rows: np.ndarray,
    x_cols: list[int],
    y_cols: list[int],
    num_vertices: int,
) -> float:
    """``max_v |{distinct Y-tuples with X-part == v}|`` over a match table.

    ``x_cols ⊆ y_cols``.  Empty ``x_cols`` returns the total number of
    distinct ``Y``-tuples (this is ``deg(∅, Y, R) = |π_Y R|``).
    """
    if rows.shape[0] == 0:
        return 0.0
    y_keys = _encode_columns(rows[:, y_cols], num_vertices)
    y_unique_idx = np.unique(y_keys, return_index=True)[1]
    if not x_cols:
        return float(len(y_unique_idx))
    distinct_rows = rows[y_unique_idx]
    x_keys = _encode_columns(distinct_rows[:, x_cols], num_vertices)
    _, counts = np.unique(x_keys, return_counts=True)
    return float(counts.max())


def all_degree_pairs(
    rows: np.ndarray,
    columns: tuple[str, ...],
    num_vertices: int,
) -> dict[tuple[frozenset[str], frozenset[str]], float]:
    """Every ``deg(X, Y)`` with ``X ⊆ Y ⊆ columns`` from one match table.

    Bulk extraction for the offline statistics builder and delta
    maintenance.  Rows are sorted once per column order of
    :func:`_sort_plan`; after a lexicographic sort, the rows sharing a
    prefix of that order form one run, so ``deg(X, Y)`` for an
    ``X``-prefix and a longer ``Y``-prefix is the largest number of
    ``Y``-run starts inside one ``X``-run.  ``deg(X, X)`` is 1 on a
    non-empty table and needs no sort.  Values are exact tuple counts,
    bit-identical to :func:`group_max_distinct` pair by pair.
    """
    names = tuple(sorted(columns))
    if rows.shape[0] == 0:
        return {pair: 0.0 for _, _, pair in _pair_keys(names)}
    col_of = {var: i for i, var in enumerate(columns)}
    values: dict[tuple[int, int], float] = {}
    for order, pairs in _sort_plan(len(names)):
        starts = _prefix_run_starts(
            rows[:, [col_of[names[i]] for i in order]], num_vertices
        )
        masks = [0]
        for column in order:
            masks.append(masks[-1] | 1 << column)
        for i, j in pairs:
            if i == 0:
                value = float(np.count_nonzero(starts[j - 1]))
            else:
                value = float(
                    np.add.reduceat(
                        starts[j - 1],
                        np.flatnonzero(starts[i - 1]),
                        dtype=np.int64,
                    ).max()
                )
            values[(masks[i], masks[j])] = value
    return {
        pair: 1.0 if x_mask == y_mask else values[(x_mask, y_mask)]
        for x_mask, y_mask, pair in _pair_keys(names)
    }


def _prefix_run_starts(rows: np.ndarray, num_vertices: int) -> np.ndarray:
    """Sort rows lexicographically and mark where each prefix changes.

    Row ``j - 1`` of the result flags, for every sorted row, whether it
    starts a new run of equal ``j``-column prefixes (the first row always
    does).  Radix keys are sorted as int64 and their prefixes read off by
    division; tables whose keys would overflow sort a structured view.
    """
    count, width = rows.shape
    starts = np.empty((width, count), dtype=bool)
    starts[:, 0] = True
    keys = _encode_columns(rows, num_vertices)
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


@functools.lru_cache(maxsize=1024)
def _pair_keys(names: tuple[str, ...]) -> tuple:
    """``(x_mask, y_mask, (X, Y))`` for every ``X ⊆ Y ⊆ names``.

    Bit ``i`` of a mask is ``names[i]``; pairs come ``Y``-mask major,
    ``X`` as increasing submasks.
    """
    width = len(names)

    def named(mask: int) -> frozenset[str]:
        return frozenset(names[i] for i in range(width) if mask >> i & 1)

    return tuple(
        (x_mask, y_mask, (named(x_mask), named(y_mask)))
        for y_mask in range(1 << width)
        for x_mask in range(y_mask + 1)
        if x_mask & y_mask == x_mask
    )


class StatRelation:
    """A query subpattern viewed as a relation with degree statistics.

    Two modes back the same interface: a graph-backed relation
    materialises its match table once and answers ``deg`` lazily; a
    *stored* relation (:meth:`from_artifact`) carries only precomputed
    degrees and its cardinality — no rows, no graph — and raises
    :class:`MissingStatisticError` for pairs the artifact lacks.
    """

    def __init__(
        self,
        graph: LabeledDiGraph,
        pattern: QueryPattern,
        max_rows: int | None = 5_000_000,
    ):
        self.pattern = pattern
        self.attributes = frozenset(pattern.variables)
        self._num_vertices = graph.num_vertices
        self._degrees: dict[tuple[frozenset[str], frozenset[str]], float] = {}
        self._columns: tuple[str, ...]
        self._rows: np.ndarray | None
        self._cardinality: float
        self._empty = False
        # Renamed views delegate deg() through (base relation, view-var
        # -> base-var mapping) so all isomorphic uses share one degree
        # cache; see DegreeCatalog._renamed_view.
        self._base: tuple["StatRelation", dict[str, str]] | None = None
        # A stored relation's encoded generation-image block, memoised by
        # repro.stats.flatpack (rows-free relations never change).
        self._image_block = None
        self._materialise(graph, max_rows)

    def _materialise(self, graph: LabeledDiGraph, max_rows: int | None) -> None:
        table = materialise_table(graph, self.pattern, max_rows)
        self._columns = table.variables
        self._rows = table.rows
        self._cardinality = float(table.rows.shape[0])

    @property
    def cardinality(self) -> float:
        """Number of tuples (matches) in the relation."""
        return self._cardinality

    def deg(self, x: frozenset[str], y: frozenset[str]) -> float:
        """``deg(X, Y)`` with ``X ⊆ Y ⊆ attrs`` (set-projection semantics)."""
        if not x <= y or not y <= self.attributes:
            raise MissingStatisticError(
                f"deg requires X ⊆ Y ⊆ {set(self.attributes)}; "
                f"got X={set(x)}, Y={set(y)}"
            )
        key = (x, y)
        cached = self._degrees.get(key)
        if cached is None:
            if self._base is not None:
                # Degree values are renaming-invariant, so delegating to
                # the canonical base relation reads (and fills) the one
                # shared cache — bit-identical to recomputing from the
                # shared match table.
                base, to_base = self._base
                cached = base.deg(
                    frozenset(to_base[v] for v in x),
                    frozenset(to_base[v] for v in y),
                )
                self._degrees[key] = cached
                return cached
            if self._rows is None:
                if self._empty:
                    # A known-empty relation: every degree is 0, exactly
                    # what group_max_distinct returns on zero rows.
                    return 0.0
                raise MissingStatisticError(
                    f"stored relation for {self.pattern!r} lacks "
                    f"deg(X={set(x)}, Y={set(y)})"
                )
            col_of = {var: i for i, var in enumerate(self._columns)}
            cached = group_max_distinct(
                self._rows,
                x_cols=[col_of[v] for v in sorted(x)],
                y_cols=[col_of[v] for v in sorted(y)],
                num_vertices=self._num_vertices,
            )
            self._degrees[key] = cached
        return cached

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def to_artifact(self) -> dict:
        """JSON-serialisable snapshot: pattern, cardinality, all degrees.

        Graph-backed relations first complete their degree set (every
        ``X ⊆ Y ⊆ attrs`` pair — at most ``3^|attrs|`` values) through
        the vectorised bulk path, so the artifact can answer everything
        the lazy relation could; stored relations dump what they have.
        """
        if self._rows is not None:
            self._degrees = all_degree_pairs(
                self._rows, self._columns, self._num_vertices
            )
        return {
            "pattern": [list(edge) for edge in (
                (e.src, e.dst, e.label) for e in self.pattern.edges
            )],
            "cardinality": self._cardinality,
            "degrees": [
                [sorted(x), sorted(y), value]
                for (x, y), value in sorted(
                    self._degrees.items(),
                    key=lambda item: (sorted(item[0][1]), sorted(item[0][0])),
                )
            ],
        }

    @classmethod
    def from_artifact(cls, payload: dict) -> "StatRelation":
        """A rows-free relation serving the artifact's degrees only."""
        pattern = QueryPattern(
            (str(src), str(dst), str(label))
            for src, dst, label in payload["pattern"]
        )
        return cls._stored(
            pattern,
            cardinality=float(payload["cardinality"]),
            degrees={
                (frozenset(x), frozenset(y)): float(value)
                for x, y, value in payload["degrees"]
            },
        )

    @classmethod
    def _stored(
        cls,
        pattern: QueryPattern,
        cardinality: float,
        degrees: dict[tuple[frozenset[str], frozenset[str]], float],
        num_vertices: int = 0,
        columns: tuple[str, ...] | None = None,
    ) -> "StatRelation":
        """The one constructor for rows-free relations (no graph, no table)."""
        relation = cls.__new__(cls)
        relation.pattern = pattern
        relation.attributes = frozenset(pattern.variables)
        relation._num_vertices = num_vertices
        relation._columns = columns if columns is not None else pattern.variables
        relation._rows = None
        relation._cardinality = float(cardinality)
        relation._empty = cardinality == 0.0
        relation._degrees = degrees
        relation._base = None
        relation._image_block = None
        return relation

    @classmethod
    def from_table(
        cls,
        pattern: QueryPattern,
        table,
        num_vertices: int,
        columns: tuple[str, ...] | None = None,
    ) -> "StatRelation":
        """A rows-free relation with every degree pair bulk-extracted.

        Used by the offline builder: the match table is consumed for its
        degrees and row count, not retained.  ``columns`` renames the
        table's variables positionally (degree values are
        renaming-invariant), letting builders store relations under
        canonical variable names regardless of how the table was grown.
        """
        columns = table.variables if columns is None else columns
        return cls._stored(
            pattern,
            cardinality=float(table.rows.shape[0]),
            degrees=all_degree_pairs(table.rows, columns, num_vertices),
            num_vertices=num_vertices,
            columns=columns,
        )

    @classmethod
    def canonical_from_table(
        cls, pattern: QueryPattern, table, num_vertices: int
    ) -> "StatRelation":
        """:meth:`from_table` stored under canonical variable names.

        The one constructor every statistics *builder* (bulk and
        incremental alike) uses, so two builds of the same canonical
        pattern — however its match table was grown — serialize to
        byte-identical artifacts.
        """
        from repro.query.canonical import canonical_pattern

        canon = canonical_pattern(pattern)
        if canon == pattern:
            # Same variable names, but store `canon` anyway: equality is
            # edge-order-insensitive, and the serialized atom order must
            # be the canonical-key order, not the growth-path order.
            return cls.from_table(canon, table, num_vertices)
        mapping = _isomorphism(pattern, canon)
        return cls.from_table(
            canon,
            table,
            num_vertices,
            columns=tuple(mapping[v] for v in table.variables),
        )

    @classmethod
    def empty(cls, pattern: QueryPattern) -> "StatRelation":
        """A rows-free relation known to have no matches (all degrees 0)."""
        return cls._stored(pattern, cardinality=0.0, degrees={})


class DegreeCatalog:
    """Per-query provider of the relations MOLP may use.

    For a query ``Q`` and join-statistics size ``h``, the available
    relations are every connected subpattern of ``Q`` with at most ``h``
    atoms (base atoms for ``h = 1``).  StatRelations are cached across
    queries by canonical pattern, with variables mapped back to the
    query's own names on the way out.
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
        # Optional lazy array backing (repro.stats.flatpack.FlatDegrees):
        # cache misses binary-search it before the lazy/complete paths,
        # and materialize() must fold it into _cache before any mutation.
        self._flat = None

    def relation_for(self, pattern: QueryPattern) -> StatRelation:
        """The StatRelation of a (connected, ≤ h atoms) subpattern."""
        if len(pattern) > self.h or not pattern.is_connected():
            raise MissingStatisticError(
                f"no stored statistics for pattern of size {len(pattern)}"
            )
        key = canonical_key(pattern)
        cached = self._cache.get(key)
        if cached is None:
            flat = self._flat
            if flat is not None:
                cached = flat.lookup(key)
                if cached is not None:
                    # Memoise the decoded relation so repeat lookups (and
                    # the renamed-view path below) behave exactly as if it
                    # had been loaded eagerly.
                    self._cache[key] = cached
        if cached is None:
            if self.graph is None:
                if self.complete:
                    # Bulk enumeration stored every non-empty pattern,
                    # so a miss can only be an empty relation (exactly
                    # what a graph-backed catalog would materialise).
                    cached = StatRelation.empty(pattern)
                    self._cache[key] = cached
                    return cached
                raise MissingStatisticError(
                    f"statistics artifact does not cover pattern {pattern!r} "
                    "(graph-free degree catalog)"
                )
            cached = StatRelation(self.graph, pattern, self.max_rows)
            self._cache[key] = cached
            return cached
        if cached.pattern == pattern:
            return cached
        # Cache canonical stats but expose the caller's variable names:
        # rebuild a view with the same match table under renaming.  The
        # view is required whenever the stored pattern is not *exactly*
        # the requested one — matching variable name tuples are not
        # enough, because two isomorphic patterns can reuse the same
        # names in different structural roles (e.g. the two L-labeled
        # atoms of ``a-L->b-L->a``), and serving the stored columns
        # directly would then read degrees of the wrong attribute.
        return self._renamed_view(cached, pattern)

    def _renamed_view(
        self, relation: StatRelation, pattern: QueryPattern
    ) -> StatRelation:
        """A StatRelation for ``pattern`` sharing ``relation``'s table.

        For rows-free stored relations the precomputed degrees are
        translated through the isomorphism instead (degree values are
        renaming-invariant, so the translated entries are exact).
        """
        mapping = _isomorphism(relation.pattern, pattern)
        view = StatRelation.__new__(StatRelation)
        view.pattern = pattern
        view.attributes = frozenset(pattern.variables)
        view._num_vertices = relation._num_vertices
        view._columns = tuple(mapping[v] for v in relation._columns)
        view._rows = relation._rows
        view._cardinality = relation._cardinality
        view._empty = relation._empty
        view._base = (relation, {v: k for k, v in mapping.items()})
        view._image_block = None
        if relation._rows is None:
            view._degrees = {
                (
                    frozenset(mapping[v] for v in x),
                    frozenset(mapping[v] for v in y),
                ): value
                for (x, y), value in relation._degrees.items()
            }
        else:
            view._degrees = {}
        return view

    def stat_relations(self, query: QueryPattern) -> list[StatRelation]:
        """All stored relations usable for ``query`` (atoms + small joins)."""
        result = []
        for subset in query.connected_edge_subsets(max_size=self.h):
            result.append(self.relation_for(query.subpattern(subset)))
        return result

    def materialize(self) -> None:
        """Decode any flat array backing into the ordinary relation dict.

        Mandatory before mutating ``_cache`` (delta replay, maintenance,
        re-serialisation); idempotent and cheap when the catalog has no
        flat backing.
        """
        flat = self._flat
        if flat is None:
            return
        for key, relation in flat.items():
            self._cache.setdefault(key, relation)
        self._flat = None

    @property
    def num_entries(self) -> int:
        """Number of canonical relations stored (flat backing included)."""
        if self._flat is not None:
            extras = sum(
                1 for key in self._cache if self._flat.index.find(key) is None
            )
            return self._flat.count + extras
        return len(self._cache)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def to_artifact(self) -> dict:
        """JSON-serialisable snapshot of every cached relation."""
        self.materialize()
        return {
            "format_version": DEGREES_FORMAT_VERSION,
            "kind": "degrees",
            "h": self.h,
            "complete": self.complete,
            "relations": [
                relation.to_artifact()
                for _, relation in sorted(self._cache.items())
            ],
        }

    @classmethod
    def from_artifact(
        cls,
        payload: dict,
        graph: LabeledDiGraph | None = None,
        max_rows: int | None = 5_000_000,
    ) -> "DegreeCatalog":
        """Rebuild a catalog from :meth:`to_artifact` output.

        With a graph, uncovered patterns fall back to lazy
        materialisation; without one they serve empty relations (when the
        artifact is ``complete``) or raise
        :class:`MissingStatisticError`.
        """
        check_format_version(payload, DEGREES_FORMAT_VERSION, "degree catalog")
        catalog = cls(
            graph,
            h=int(payload["h"]),
            max_rows=max_rows,
            complete=bool(payload.get("complete", False)),
        )
        for entry in payload["relations"]:
            relation = StatRelation.from_artifact(entry)
            catalog._cache[canonical_key(relation.pattern)] = relation
        return catalog


def _isomorphism(source: QueryPattern, target: QueryPattern) -> dict[str, str]:
    """A variable mapping turning ``source`` into ``target``.

    Both patterns are small (≤ h atoms) and known to share a canonical
    key, so a backtracking search over atom correspondences terminates
    immediately.
    """
    target_edges = list(target.edges)

    def backtrack(
        index: int, mapping: dict[str, str], used: set[int]
    ) -> dict[str, str] | None:
        if index == len(source.edges):
            return dict(mapping)
        edge = source.edges[index]
        for position, candidate in enumerate(target_edges):
            if position in used or candidate.label != edge.label:
                continue
            bound_src = mapping.get(edge.src)
            bound_dst = mapping.get(edge.dst)
            if bound_src not in (None, candidate.src):
                continue
            if bound_dst not in (None, candidate.dst):
                continue
            if bound_src is None and candidate.src in mapping.values():
                if edge.src not in mapping:
                    conflict = any(
                        mapping.get(k) == candidate.src for k in mapping
                    )
                    if conflict:
                        continue
            mapping2 = dict(mapping)
            mapping2[edge.src] = candidate.src
            mapping2[edge.dst] = candidate.dst
            if len(set(mapping2.values())) != len(mapping2):
                continue
            used.add(position)
            found = backtrack(index + 1, mapping2, used)
            if found is not None:
                return found
            used.discard(position)
        return None

    found = backtrack(0, {}, set())
    if found is None:
        raise MissingStatisticError(
            "internal error: cached pattern is not isomorphic to request"
        )
    return found
