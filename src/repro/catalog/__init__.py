"""Statistics catalogs: Markov tables, degree stats, cycle rates, sketches."""

from repro.catalog.cycle_rates import CycleClosingRates
from repro.catalog.degrees import DegreeCatalog, RelationView, StatRelation
from repro.catalog.entropy import EntropyCatalog, degree_irregularity
from repro.catalog.markov import MarkovTable
from repro.catalog.partitioned import (
    BoundSketchPartitioner,
    buckets_per_attribute,
    hash_bucket,
)

__all__ = [
    "MarkovTable",
    "DegreeCatalog",
    "StatRelation",
    "RelationView",
    "CycleClosingRates",
    "EntropyCatalog",
    "degree_irregularity",
    "BoundSketchPartitioner",
    "buckets_per_attribute",
    "hash_bucket",
]
