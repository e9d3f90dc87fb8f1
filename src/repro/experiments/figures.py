"""Experiment drivers: one function per table/figure of the paper's §6.

Every driver takes an :class:`ExperimentConfig` controlling dataset
scale and workload size (the default is sized for a laptop bench run;
the paper-shape conclusions are scale-invariant) and returns
``(rows, rendered)`` — machine-readable rows plus the printed table.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines import (
    CharacteristicSetsEstimator,
    Rdf3xDefaultEstimator,
    SumRdfEstimator,
    WanderJoinEstimator,
)
from repro.catalog import CycleClosingRates, MarkovTable
from repro.core import (
    all_nine_estimators,
    molp_sketch_bound,
    optimistic_sketch_estimate,
)
from repro.datasets import (
    acyclic_workload,
    cyclic_workload,
    dataset_table,
    gcare_acyclic_workload,
    gcare_cyclic_workload,
    job_like_workload,
    load_dataset,
    split_cyclic_by_cycle_size,
)
from repro.datasets.workloads import WorkloadQuery
from repro.errors import ReproError
from repro.experiments.harness import run_harness
from repro.experiments.metrics import summarize
from repro.experiments.report import format_table
from repro.graph.digraph import LabeledDiGraph
from repro.planner import execute_plan, optimize_left_deep
from repro.service.session import EstimationSession
from repro.stats import (
    StatisticsStore,
    StatsBuildConfig,
    build_statistics,
    extend_statistics,
)

__all__ = [
    "ExperimentConfig",
    "table1_markov_example",
    "table2_datasets",
    "figure9_acyclic_space",
    "figure10_cyclic_triangles",
    "figure11_large_cycles",
    "figure12_bound_sketch",
    "figure13_summary_comparison",
    "figure14_wanderjoin",
    "figure15_plan_quality",
]


@dataclass
class ExperimentConfig:
    """Knobs shared by all experiment drivers."""

    scale: float = 0.12
    per_template: int = 3
    seed: int = 7
    h: int = 3
    count_budget: int = 2_000_000
    datasets: tuple[str, ...] = (
        "imdb", "yago", "dblp", "watdiv", "hetionet", "epinions",
    )
    acyclic_sizes: tuple[int, ...] = (6, 7, 8)
    gcare_sizes: tuple[int, ...] = (3, 6, 9)
    sketch_budgets: tuple[int, ...] = (1, 4, 16, 64)
    wj_ratios: tuple[float, ...] = (0.0001, 0.001, 0.0025, 0.005, 0.0075)

    def workload_for(
        self, name: str, graph: LabeledDiGraph, kind: str
    ) -> list[WorkloadQuery]:
        """The paper's dataset-to-workload pairing (§6.1)."""
        if kind == "acyclic":
            if name == "imdb":
                return job_like_workload(
                    graph, self.per_template, self.seed, self.count_budget
                )
            if name == "yago":
                return gcare_acyclic_workload(
                    graph,
                    self.per_template,
                    self.seed,
                    sizes=self.gcare_sizes,
                    count_budget=self.count_budget,
                )
            return acyclic_workload(
                graph, self.per_template, self.seed,
                sizes=self.acyclic_sizes,
                count_budget=self.count_budget,
            )
        if name == "yago":
            return gcare_cyclic_workload(
                graph, self.per_template, self.seed, self.count_budget
            )
        return cyclic_workload(
            graph, self.per_template, self.seed, self.count_budget
        )


# ----------------------------------------------------------------------
# Shared per-dataset statistics stores
# ----------------------------------------------------------------------

_STORES: dict[tuple, StatisticsStore] = {}


def _dataset_store(
    dataset: str,
    graph: LabeledDiGraph,
    h: int,
    workload: list[WorkloadQuery],
    count_budget: int | None = None,
) -> StatisticsStore:
    """One workload-directed store per (dataset instance, h), grown lazily.

    The first driver touching a dataset bulk-builds the statistics its
    workload needs; later drivers (or later workloads of the same
    driver) extend the same store, so a canonical shape is counted once
    per ``repro all`` run instead of once per figure.  ``count_budget``
    is part of the cache key: a budgeted driver (Figure 12) must see
    CountBudgetExceeded where the old per-figure tables did, not
    another figure's unbudgeted counts.
    """
    key = (dataset, id(graph), h, count_budget)
    patterns = [query.pattern for query in workload]
    store = _STORES.get(key)
    if store is None:
        store = build_statistics(
            graph,
            StatsBuildConfig(h=h, molp_h=2, count_budget=count_budget),
            workload=patterns,
            dataset_name=dataset,
        )
        _STORES[key] = store
    else:
        extend_statistics(store, graph, patterns)
    return store


# ----------------------------------------------------------------------
# Tables
# ----------------------------------------------------------------------

def table1_markov_example() -> tuple[list[dict[str, object]], str]:
    """Table 1: an example Markov table (h=2) on a small graph."""
    from repro.graph import LabeledDiGraph
    from repro.query import parse_pattern

    triples = [
        (0, 2, "A"), (1, 2, "A"), (0, 3, "A"),
        (2, 4, "B"), (3, 4, "B"),
        (4, 5, "C"), (4, 6, "C"), (2, 6, "C"),
    ]
    graph = LabeledDiGraph.from_triples(triples, num_vertices=7)
    markov = MarkovTable(graph, h=2)
    rows = []
    for text in ("x -[B]-> y", "x -[A]-> y -[B]-> z", "x -[B]-> y -[C]-> z"):
        rows.append(
            {
                "Path": text,
                "|Path|": markov.cardinality(parse_pattern(text)),
            }
        )
    return rows, format_table(rows, title="Table 1: example Markov table (h=2)")


def table2_datasets(config: ExperimentConfig | None = None):
    """Table 2: dataset descriptions at the configured scale."""
    config = config or ExperimentConfig()
    rows = dataset_table(config.scale)
    return rows, format_table(
        rows, title=f"Table 2: datasets (scale={config.scale})"
    )


# ----------------------------------------------------------------------
# Figures 9-11: the optimistic estimator space
# ----------------------------------------------------------------------

def _space_rows(
    workload: list[WorkloadQuery],
    graph: LabeledDiGraph,
    dataset: str,
    h: int,
    cycle_rates: CycleClosingRates | None = None,
    variant: str = "CEG_O",
    store: StatisticsStore | None = None,
) -> list[dict[str, object]]:
    """Evaluate all nine §4.2 estimators plus the P* oracle.

    Runs through an :class:`EstimationSession`: each canonical query
    shape builds its CEG once and every heuristic reads off the cached
    skeleton (the nine estimates and the oracle differ only in how they
    pick paths).  Instances whose sampled labels differ are distinct
    shapes — the cross-query cache only kicks in when a workload
    actually repeats a (structure, labels) shape.  With a prebuilt
    ``store`` the session reads the dataset's bulk-built statistics
    instead of lazily counting per pattern.
    """
    from repro.core import distinct_estimates, estimate_from_ceg
    from repro.experiments.metrics import q_error

    if store is not None:
        session = EstimationSession(graph, store=store, cycle_rates=cycle_rates)
    else:
        session = EstimationSession(graph, h=h, cycle_rates=cycle_rates)
    use_ocr = cycle_rates is not None
    names = [
        f"{hop}-{aggr}"
        for hop in ("max-hop", "min-hop", "all-hops")
        for aggr in ("max", "min", "avg")
    ]
    choices = [
        (hop, aggr)
        for hop in ("max", "min", "all")
        for aggr in ("max", "min", "avg")
    ]
    pairs: dict[str, list[tuple[float, float]]] = {
        name: [] for name in names + ["P*"]
    }
    for query in workload:
        try:
            ceg = session.ceg_for(query.pattern, use_cycle_rates=use_ocr)
            for name, (hop, aggr) in zip(names, choices):
                value = estimate_from_ceg(ceg, hop, aggr)
                pairs[name].append((value, query.true_cardinality))
            estimates = distinct_estimates(ceg)
            best = min(
                estimates, key=lambda e: q_error(e, query.true_cardinality)
            )
            pairs["P*"].append((best, query.true_cardinality))
        except ReproError:
            continue
    rows: list[dict[str, object]] = []
    for name in names + ["P*"]:
        row: dict[str, object] = {
            "dataset": dataset, "ceg": variant, "estimator": name,
        }
        row.update(summarize(pairs[name]).row())
        rows.append(row)
    return rows


def figure9_acyclic_space(config: ExperimentConfig | None = None):
    """Figure 9: the 9 estimators + P* on CEG_O, acyclic workloads."""
    config = config or ExperimentConfig()
    rows: list[dict[str, object]] = []
    for dataset in config.datasets:
        graph = load_dataset(dataset, config.scale)
        workload = config.workload_for(dataset, graph, "acyclic")
        store = _dataset_store(dataset, graph, config.h, workload)
        rows.extend(
            _space_rows(workload, graph, dataset, config.h, store=store)
        )
    return rows, format_table(
        rows, title="Figure 9: optimistic estimator space on acyclic queries"
    )


def figure10_cyclic_triangles(config: ExperimentConfig | None = None):
    """Figure 10: the space on cyclic queries with only triangles."""
    config = config or ExperimentConfig()
    rows: list[dict[str, object]] = []
    for dataset in config.datasets:
        if dataset == "yago":
            continue  # the paper omits YAGO here (no triangle-only queries)
        graph = load_dataset(dataset, config.scale)
        workload = config.workload_for(dataset, graph, "cyclic")
        triangles, _ = split_cyclic_by_cycle_size(workload, h=config.h)
        if not triangles:
            continue
        store = _dataset_store(dataset, graph, config.h, triangles)
        rows.extend(
            _space_rows(triangles, graph, dataset, config.h, store=store)
        )
    return rows, format_table(
        rows, title="Figure 10: cyclic queries with only triangles (CEG_O)"
    )


def figure11_large_cycles(config: ExperimentConfig | None = None):
    """Figure 11: CEG_O vs CEG_OCR on queries with cycles of >= 4 atoms."""
    config = config or ExperimentConfig()
    rows: list[dict[str, object]] = []
    for dataset in config.datasets:
        graph = load_dataset(dataset, config.scale)
        workload = config.workload_for(dataset, graph, "cyclic")
        _, large = split_cyclic_by_cycle_size(workload, h=config.h)
        if not large:
            continue
        store = _dataset_store(dataset, graph, config.h, large)
        rows.extend(
            _space_rows(large, graph, dataset, config.h, store=store)
        )
        rates = CycleClosingRates(graph, seed=config.seed, samples=800)
        rows.extend(
            _space_rows(
                large, graph, dataset, config.h,
                cycle_rates=rates, variant="CEG_OCR", store=store,
            )
        )
    return rows, format_table(
        rows, title="Figure 11: large cycles, CEG_O vs CEG_OCR"
    )


# ----------------------------------------------------------------------
# Figure 12: bound sketch
# ----------------------------------------------------------------------

def figure12_bound_sketch(config: ExperimentConfig | None = None):
    """Figure 12: bound-sketch budgets on max-hop-max and MOLP."""
    config = config or ExperimentConfig()
    pairs = [
        ("imdb", "acyclic"), ("hetionet", "acyclic"), ("epinions", "acyclic"),
    ]
    rows: list[dict[str, object]] = []
    for dataset, kind in pairs:
        if dataset not in config.datasets:
            continue
        graph = load_dataset(dataset, config.scale)
        workload = config.workload_for(dataset, graph, kind)
        # The unpartitioned (budget-1 / direct) paths read the dataset's
        # bulk-built h=2 statistics; only per-partition subgraph tables
        # are computed fresh, as §5.2.1 requires.
        store = _dataset_store(
            dataset, graph, 2, workload, count_budget=config.count_budget
        )
        for budget in config.sketch_budgets:
            optimistic_pairs = []
            molp_pairs = []
            for query in workload:
                try:
                    optimistic = optimistic_sketch_estimate(
                        graph, query.pattern, budget, h=2,
                        count_budget=config.count_budget,
                        markov=store.markov,
                    )
                    pessimistic = molp_sketch_bound(
                        graph, query.pattern, budget, h=2,
                        catalog=store.degrees,
                    )
                except ReproError:
                    continue
                optimistic_pairs.append((optimistic, query.true_cardinality))
                molp_pairs.append((pessimistic, query.true_cardinality))
            for label, data in (
                ("max-hop-max", optimistic_pairs), ("MOLP", molp_pairs),
            ):
                row: dict[str, object] = {
                    "dataset": dataset, "estimator": label, "K": budget,
                }
                row.update(summarize(data).row())
                rows.append(row)
    return rows, format_table(
        rows, title="Figure 12: bound sketch effect (partitions K)"
    )


# ----------------------------------------------------------------------
# Figure 13: summary-based comparison
# ----------------------------------------------------------------------

def figure13_summary_comparison(config: ExperimentConfig | None = None):
    """Figure 13: max-hop-max vs MOLP vs CS vs SumRDF."""
    config = config or ExperimentConfig()
    chosen = [
        d for d in config.datasets
        if d in ("imdb", "hetionet", "watdiv", "epinions", "yago")
    ]
    rows: list[dict[str, object]] = []
    for dataset in chosen:
        graph = load_dataset(dataset, config.scale)
        workload = config.workload_for(dataset, graph, "acyclic")
        # The CEG estimators serve from the dataset's bulk-built store
        # (queries that repeat a canonical shape are additionally served
        # from the session's estimate cache).  The baselines are built
        # here from the graph and nowhere else: no statistics store
        # holds them, because only this figure reads them.
        store = _dataset_store(dataset, graph, 2, workload)
        session = EstimationSession(graph, store=store)
        estimators = {
            "max-hop-max": session.estimator("max-hop-max"),
            "MOLP": session.estimator("MOLP"),
            "CS": CharacteristicSetsEstimator(graph),
            "SumRDF": SumRdfEstimator(graph),
        }
        result = run_harness(workload, estimators)
        for name, summary in result.summaries().items():
            row: dict[str, object] = {"dataset": dataset, "estimator": name}
            row.update(summary.row())
            row["ms"] = result.mean_time_ms(name)
            rows.append(row)
    return rows, format_table(
        rows, title="Figure 13: summary-based estimator comparison"
    )


# ----------------------------------------------------------------------
# Figure 14: WanderJoin
# ----------------------------------------------------------------------

def figure14_wanderjoin(config: ExperimentConfig | None = None):
    """Figure 14: max-hop-max vs WJ across sampling ratios (+ times)."""
    config = config or ExperimentConfig()
    chosen = [
        d for d in config.datasets
        if d in ("imdb", "dblp", "hetionet", "epinions", "yago")
    ]
    rows: list[dict[str, object]] = []
    for dataset in chosen:
        graph = load_dataset(dataset, config.scale)
        workload = config.workload_for(dataset, graph, "acyclic")
        # Bulk-build the statistics offline so the timed run measures
        # estimation only, as in the paper (§6.5 times estimators
        # against precomputed summaries).
        store = _dataset_store(dataset, graph, 2, workload)
        estimators = {
            "max-hop-max": all_nine_estimators(store.markov)["max-hop-max"]
        }
        result = run_harness(workload, estimators)
        summary = result.summary("max-hop-max")
        row: dict[str, object] = {
            "dataset": dataset, "estimator": "max-hop-max", "ratio": "-",
        }
        row.update(summary.row())
        row["ms"] = result.mean_time_ms("max-hop-max")
        rows.append(row)
        wj = WanderJoinEstimator(graph, seed=config.seed)
        for ratio in config.wj_ratios:
            pairs = []
            elapsed = []
            for query in workload:
                value, seconds = wj.timed_estimate(query.pattern, ratio)
                pairs.append((value, query.true_cardinality))
                elapsed.append(seconds)
            row = {
                "dataset": dataset,
                "estimator": "WJ",
                "ratio": f"{100 * ratio:g}%",
            }
            row.update(summarize(pairs).row())
            row["ms"] = 1000.0 * sum(elapsed) / max(len(elapsed), 1)
            rows.append(row)
    return rows, format_table(
        rows, title="Figure 14: WanderJoin vs max-hop-max"
    )


# ----------------------------------------------------------------------
# Figure 15: plan quality
# ----------------------------------------------------------------------

class _SharedCegEstimates:
    """Per-subpattern CEG cache shared by all nine heuristics (Fig 15).

    The DP optimizer probes every connected subquery; building each
    subquery's CEG once and reading all heuristics off it makes the
    nine-estimator comparison nine times cheaper.
    """

    def __init__(self, markov: MarkovTable):
        self.markov = markov
        self._cache: dict[object, object] = {}

    def estimate_fn(self, path_length: str, aggregator: str):
        from repro.core import build_ceg_o, estimate_from_ceg

        def estimate(pattern):
            ceg = self._cache.get(pattern)
            if ceg is None:
                ceg = build_ceg_o(pattern, self.markov)
                self._cache[pattern] = ceg
            return estimate_from_ceg(ceg, path_length, aggregator)

        return estimate


def figure15_plan_quality(config: ExperimentConfig | None = None):
    """Figure 15: injected estimates -> DP plans -> real execution cost.

    Reports, per estimator, the distribution of log10 speedup of its
    plan over the RDF-3X-default-estimator plan (positive = faster).
    """
    import math

    config = config or ExperimentConfig()
    chosen = [d for d in config.datasets if d in ("dblp", "watdiv")]
    rows: list[dict[str, object]] = []
    for dataset in chosen:
        graph = load_dataset(dataset, config.scale)
        workload = config.workload_for(dataset, graph, "acyclic")
        # The DP optimizer probes every connected subquery; all of their
        # <= h statistics are subpatterns of the workload queries, so the
        # bulk-built store covers them and the planning loop never counts
        # a pattern from scratch.
        store = _dataset_store(dataset, graph, 2, workload)
        shared = _SharedCegEstimates(store.markov)
        estimators: dict[str, object] = {
            f"{'all-hops' if hop == 'all' else hop + '-hop'}-{aggr}":
                shared.estimate_fn(hop, aggr)
            for hop in ("max", "min", "all")
            for aggr in ("max", "min", "avg")
        }
        baseline = Rdf3xDefaultEstimator(graph)
        per_query_costs: list[dict[str, float]] = []
        for query in workload:
            costs: dict[str, float] = {}
            try:
                base_plan = optimize_left_deep(query.pattern, baseline.estimate)
                base_run = execute_plan(
                    graph, query.pattern, base_plan.order, max_rows=3_000_000
                )
            except ReproError:
                continue
            costs["rdf3x-default"] = max(base_run.cost, 1.0)
            for name, estimate in estimators.items():
                try:
                    plan = optimize_left_deep(query.pattern, estimate)
                    run = execute_plan(
                        graph, query.pattern, plan.order, max_rows=3_000_000
                    )
                except ReproError:
                    continue
                costs[name] = max(run.cost, 1.0)
            if len(costs) > 1:
                per_query_costs.append(costs)
        # The paper's filter: keep only queries on which the estimators
        # actually disagree (>= 10% spread across the 10 plans).
        differentiating = [
            costs
            for costs in per_query_costs
            if max(costs.values()) > 1.1 * min(costs.values())
        ]
        if not differentiating:
            differentiating = per_query_costs
        speedups: dict[str, list[float]] = {name: [] for name in estimators}
        for costs in differentiating:
            base_cost = costs["rdf3x-default"]
            for name in estimators:
                if name in costs:
                    speedups[name].append(math.log10(base_cost / costs[name]))
        for name, values in speedups.items():
            if not values:
                continue
            values.sort()
            rows.append(
                {
                    "dataset": dataset,
                    "estimator": name,
                    "n": len(values),
                    "p25 log10 speedup": values[len(values) // 4],
                    "median log10 speedup": values[len(values) // 2],
                    "p75 log10 speedup": values[(3 * len(values)) // 4],
                    "mean log10 speedup": sum(values) / len(values),
                }
            )
    return rows, format_table(
        rows, title="Figure 15: plan quality vs the RDF-3X default estimator"
    )
