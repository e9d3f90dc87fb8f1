"""repro — Cardinality Estimation Graphs (CEG) for join cardinality estimation.

A from-scratch reproduction of "Accurate Summary-based Cardinality
Estimation Through the Lens of Cardinality Estimation Graphs" (VLDB 2022):
the CEG framework, the optimistic estimator space over CEG_O/CEG_OCR, the
pessimistic MOLP/CBS estimators over CEG_M, the bound-sketch optimization,
all evaluation baselines, and a benchmark harness regenerating every table
and figure of the paper's evaluation.  See README.md for a tour; its
*Layout* table maps each subpackage.
"""

from repro.baselines import (
    CharacteristicSetsEstimator,
    Rdf3xDefaultEstimator,
    SumRdfEstimator,
    WanderJoinEstimator,
)
from repro.catalog import CycleClosingRates, DegreeCatalog, MarkovTable
from repro.core import (
    MolpEstimator,
    OptimisticEstimator,
    PStarOracle,
    agm_bound,
    all_nine_estimators,
    build_ceg_o,
    build_ceg_ocr,
    cbs_bound,
    dbplp_bound,
    molp_bound,
    molp_sketch_bound,
    optimistic_sketch_estimate,
)
from repro.datasets import load_dataset
from repro.engine import count_pattern
from repro.graph import LabeledDiGraph, generate_graph
from repro.query import QueryEdge, QueryPattern, parse_pattern
from repro.server import EstimationClient, EstimationServer, StoreRegistry
from repro.service import BatchResult, EstimationSession, EstimatorSpec
from repro.stats import StatisticsStore, StatsBuildConfig, build_statistics

__version__ = "1.0.0"

__all__ = [
    "LabeledDiGraph",
    "generate_graph",
    "load_dataset",
    "QueryEdge",
    "QueryPattern",
    "parse_pattern",
    "count_pattern",
    "MarkovTable",
    "DegreeCatalog",
    "CycleClosingRates",
    "OptimisticEstimator",
    "PStarOracle",
    "MolpEstimator",
    "all_nine_estimators",
    "build_ceg_o",
    "build_ceg_ocr",
    "molp_bound",
    "agm_bound",
    "cbs_bound",
    "dbplp_bound",
    "molp_sketch_bound",
    "optimistic_sketch_estimate",
    "CharacteristicSetsEstimator",
    "SumRdfEstimator",
    "WanderJoinEstimator",
    "Rdf3xDefaultEstimator",
    "EstimationSession",
    "EstimatorSpec",
    "BatchResult",
    "StatisticsStore",
    "StatsBuildConfig",
    "build_statistics",
    "StoreRegistry",
    "EstimationServer",
    "EstimationClient",
    "__version__",
]
