"""Frame-frame joins for bushy plans.

Left-deep plans grow one :class:`~repro.engine.frames.Frame` an atom at
a time with :func:`~repro.engine.frames.extend_frame`.  A bushy plan
(the Figure-15 bushy executor) also joins two intermediate frames:
:func:`join_frames` sorts the right frame by its shared-variable key and
expands per-left-row match ranges with the same
:func:`~repro.engine.frames.expand_ranges` kernel.  The executor's
"runtime" metric is the total number of intermediate tuples produced,
the standard C_out proxy.
"""

from __future__ import annotations

import numpy as np

from repro.engine.frames import (
    Frame,
    _empty_frame,
    encode_columns,
    expand_ranges,
)
from repro.errors import PlanningError

__all__ = ["join_frames"]


def join_frames(
    left: Frame,
    right: Frame,
    num_vertices: int,
    max_rows: int | None = None,
) -> Frame:
    """Sort-merge join of two frames on their shared variables.

    The output binds ``left``'s variables, then ``right``'s others.  The
    frames must share at least one variable (bushy plans over connected
    queries guarantee this); ``max_rows`` aborts a runaway output with
    :class:`~repro.errors.PlanningError`.
    """
    shared = [v for v in left.variables if v in right.variables]
    if not shared:
        raise PlanningError("bushy join requires a shared variable")
    carry = [v for v in right.variables if v not in left.variables]
    variables = left.variables + tuple(carry)
    if left.size == 0 or right.size == 0:
        return _empty_frame(variables)
    right_keys = encode_columns(
        [right.column(v) for v in shared], num_vertices
    )
    order = np.argsort(right_keys, kind="stable")
    right_keys = right_keys[order]
    left_keys = encode_columns(
        [left.column(v) for v in shared], num_vertices
    )
    lo = np.searchsorted(right_keys, left_keys, side="left")
    hi = np.searchsorted(right_keys, left_keys, side="right")
    row_index, flat_index = expand_ranges(lo, hi)
    if max_rows is not None and len(row_index) > max_rows:
        raise PlanningError(
            f"bushy join exceeded {max_rows} rows on {shared}"
        )
    right_rows = order[flat_index]
    return Frame(
        variables,
        tuple(column[row_index] for column in left.columns)
        + tuple(right.column(v)[right_rows] for v in carry),
    )
