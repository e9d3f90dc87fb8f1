"""Ablations of the CEG_O construction rules and the §8 entropy extension.

CEG_O inherits two design choices from prior work — the
size-h-numerator rule and the early-cycle-closing rule — and the
paper's future work sketches entropy-weighted path selection.  This
bench measures each against the default max-hop-max estimator.
"""

from _common import run_once, save_result

from repro.catalog import EntropyCatalog, MarkovTable
from repro.core import (
    LowestEntropyEstimator,
    build_ceg_o,
    distinct_estimates,
    estimate_from_ceg,
)
from repro.datasets import (
    acyclic_workload,
    load_dataset,
)
from repro.errors import ReproError
from repro.experiments import summarize
from repro.experiments.metrics import q_error
from repro.experiments.report import format_table

SCALE = 0.08
DATASET = "hetionet"


def test_ablation_ceg_o_rules(benchmark):
    """Rules on/off: the rules prune formulas without losing accuracy."""
    graph = load_dataset(DATASET, SCALE)
    workload = acyclic_workload(graph, per_template=2, seed=17, sizes=(6,))
    markov = MarkovTable(graph, h=3)

    def run():
        variants = {
            "both rules (paper)": dict(),
            "no size-h rule": dict(size_h_rule=False),
            "no early closing": dict(early_cycle_closing=False),
        }
        rows = []
        for name, flags in variants.items():
            pairs = []
            formulas = 0
            for query in workload:
                try:
                    ceg = build_ceg_o(query.pattern, markov, **flags)
                    value = estimate_from_ceg(ceg, "max", "max")
                except ReproError:
                    continue
                formulas += ceg.num_edges
                pairs.append((value, query.true_cardinality))
            row = {"variant": name, "total CEG edges": formulas}
            row.update(summarize(pairs).row())
            rows.append(row)
        return rows

    rows = run_once(benchmark, run)
    save_result(
        "ablation_rules",
        format_table(rows, title="Ablation: CEG_O construction rules"),
    )
    baseline = next(r for r in rows if "paper" in str(r["variant"]))
    loose = next(r for r in rows if r["variant"] == "no size-h rule")
    # Dropping the size-h rule adds formulas (larger CEGs) ...
    assert loose["total CEG edges"] >= baseline["total CEG edges"]
    # ... without improving the max-hop-max estimate materially.
    assert float(baseline["mean(log q, -top10%)"]) <= (
        float(loose["mean(log q, -top10%)"]) * 1.25 + 0.1
    )


def test_ablation_entropy_estimator(benchmark):
    """The §8 lowest-entropy path vs max-hop-max vs the P* oracle."""
    graph = load_dataset(DATASET, SCALE)
    workload = acyclic_workload(graph, per_template=2, seed=19, sizes=(6, 7))
    markov = MarkovTable(graph, h=2)
    entropy = LowestEntropyEstimator(markov, EntropyCatalog(graph))

    def run():
        named_pairs = {"max-hop-max": [], "lowest-entropy": [], "P*": []}
        for query in workload:
            try:
                ceg = build_ceg_o(query.pattern, markov)
                named_pairs["max-hop-max"].append(
                    (estimate_from_ceg(ceg, "max", "max"),
                     query.true_cardinality)
                )
                named_pairs["lowest-entropy"].append(
                    (entropy.estimate(query.pattern), query.true_cardinality)
                )
                best = min(
                    distinct_estimates(ceg),
                    key=lambda e: q_error(e, query.true_cardinality),
                )
                named_pairs["P*"].append((best, query.true_cardinality))
            except ReproError:
                continue
        rows = []
        for name, pairs in named_pairs.items():
            row = {"estimator": name}
            row.update(summarize(pairs).row())
            rows.append(row)
        return rows

    rows = run_once(benchmark, run)
    save_result(
        "ablation_entropy",
        format_table(rows, title="Ablation: §8 entropy-weighted path choice"),
    )
    star = next(r for r in rows if r["estimator"] == "P*")
    for row in rows:
        # The oracle lower-bounds everything; both heuristics must land
        # between it and a sane ceiling.
        assert float(row["mean(log q, -top10%)"]) >= float(
            star["mean(log q, -top10%)"]
        ) - 1e-9
