"""Exact counting, sampling, and join execution over labeled graphs."""

from repro.engine.acyclic_dp import count_acyclic, tree_weight_array
from repro.engine.counter import count_general, count_pattern
from repro.engine.frames import (
    Frame,
    RowBudget,
    count_core_frames,
    expand_ranges,
    extend_frame,
    frame_from_edge,
    plan_core_edges,
    sorted_intersects,
)
from repro.engine.join import join_frames
from repro.engine.sampler import CombinedAdjacency, PatternSampler

__all__ = [
    "count_pattern",
    "count_acyclic",
    "count_general",
    "count_core_frames",
    "tree_weight_array",
    "expand_ranges",
    "Frame",
    "RowBudget",
    "extend_frame",
    "frame_from_edge",
    "join_frames",
    "plan_core_edges",
    "sorted_intersects",
    "CombinedAdjacency",
    "PatternSampler",
]
