"""Reference ``deg(X, Y)``: one grouped distinct count per pair.

The library extracts every degree of a relation at once
(:func:`repro.catalog.degrees.all_degree_pairs`); this per-pair
computation is the definition it must match bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.engine.frames import encode_columns


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
    y_keys = _row_keys(rows, y_cols, num_vertices)
    y_unique_idx = np.unique(y_keys, return_index=True)[1]
    if not x_cols:
        return float(len(y_unique_idx))
    distinct_rows = rows[y_unique_idx]
    x_keys = _row_keys(distinct_rows, x_cols, num_vertices)
    _, counts = np.unique(x_keys, return_counts=True)
    return float(counts.max())


def _row_keys(rows: np.ndarray, cols: list[int], num_vertices: int) -> np.ndarray:
    """One key per row of the chosen columns (all equal when none)."""
    if not cols:
        return np.zeros(rows.shape[0], dtype=np.int64)
    return encode_columns([rows[:, c] for c in cols], num_vertices)
