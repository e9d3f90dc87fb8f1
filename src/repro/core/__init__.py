"""The CEG framework: optimistic and pessimistic estimators."""

from repro.core.agm import agm_bound
from repro.core.bound_sketch import (
    join_attributes,
    molp_sketch_bound,
    optimistic_sketch_estimate,
    sketch_attributes,
)
from repro.core.cbs import bounding_formula_value, cbs_bound, enumerate_coverages
from repro.core.ceg import CEG, CEGEdge
from repro.core.ceg_m import MOLP_MAX_ATTRIBUTES, MolpEdge, molp_bound, molp_min_path
from repro.core.compiled import compile_ceg
from repro.core.ceg_entropy import LowestEntropyEstimator, lowest_entropy_estimate
from repro.core.ceg_o import CEG_O_MAX_EDGES, build_ceg_o, build_ceg_ocr
from repro.core.dbplp import (
    best_dbplp_bound,
    dbplp_bound,
    default_cover,
    enumerate_covers,
)
from repro.core.estimators import (
    MolpEstimator,
    OptimisticEstimator,
    PStarOracle,
    all_nine_estimators,
    estimators_from_store,
)
from repro.core.molp import molp_lp_bound
from repro.core.paths import (
    AGGREGATOR_CHOICES,
    PATH_LENGTH_CHOICES,
    HopStats,
    distinct_estimates,
    estimate_from_ceg,
    hop_statistics_compiled,
)

__all__ = [
    "CEG",
    "CEGEdge",
    "compile_ceg",
    "build_ceg_o",
    "build_ceg_ocr",
    "CEG_O_MAX_EDGES",
    "MOLP_MAX_ATTRIBUTES",
    "MolpEdge",
    "molp_bound",
    "molp_min_path",
    "molp_lp_bound",
    "agm_bound",
    "dbplp_bound",
    "best_dbplp_bound",
    "default_cover",
    "enumerate_covers",
    "cbs_bound",
    "enumerate_coverages",
    "bounding_formula_value",
    "join_attributes",
    "sketch_attributes",
    "molp_sketch_bound",
    "optimistic_sketch_estimate",
    "OptimisticEstimator",
    "PStarOracle",
    "MolpEstimator",
    "LowestEntropyEstimator",
    "lowest_entropy_estimate",
    "all_nine_estimators",
    "estimators_from_store",
    "HopStats",
    "hop_statistics_compiled",
    "estimate_from_ceg",
    "distinct_estimates",
    "PATH_LENGTH_CHOICES",
    "AGGREGATOR_CHOICES",
]
