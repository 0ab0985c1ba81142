"""Figure 4: PC over time in the progressive (static) setting.

All four datasets x {JS, ED} matchers; batch progressive baselines (PPS,
PBS) against the PIER algorithms consuming the same data as an increment
sequence.  Expected shapes (paper, Figure 4):

* PPS pays a long initialization before emitting anything — on the large
  heterogeneous dataset it dwarfs everyone else's start;
* PBS starts fastest (initialization is only a block sort);
* with JS, all PIER methods reach near-baseline eventual quality;
* with ED, I-PCS/I-PBS degrade on the heterogeneous datasets while I-PES
  stays robust; on census (relational), block-centric scheduling shines.
"""

from __future__ import annotations

import pytest

from repro.evaluation.experiments import ExperimentConfig
from repro.evaluation.reporting import pc_over_time_table, summary_table

from benchmarks.helpers import compare, report, run_once

SYSTEMS = ("PPS", "PBS", "I-PCS", "I-PBS", "I-PES")

# dataset → (scale, increments, JS budget, ED budget)
SETUPS = {
    "dblp_acm": (0.5, 100, 10.0, 60.0),
    "movies": (0.3, 100, 20.0, 120.0),
    "census_2m": (0.3, 150, 20.0, 120.0),
    "dbpedia": (0.3, 150, 30.0, 150.0),
}


def _run(dataset_name: str, matcher: str):
    scale, n_increments, js_budget, ed_budget = SETUPS[dataset_name]
    config = ExperimentConfig(
        dataset_name=dataset_name,
        systems=SYSTEMS,
        matcher=matcher,
        scale=scale,
        n_increments=n_increments,
        rate=None,  # static setting
        budget=js_budget if matcher == "JS" else ed_budget,
    )
    return config, compare(config)


@pytest.mark.parametrize("dataset_name", list(SETUPS))
@pytest.mark.parametrize("matcher", ["JS", "ED"])
def test_fig4_cell(benchmark, dataset_name, matcher):
    config, results = run_once(benchmark, lambda: _run(dataset_name, matcher))
    budget = config.budget
    times = [budget * f for f in (0.05, 0.1, 0.2, 0.4, 0.6, 0.8, 1.0)]
    text = pc_over_time_table(results, times) + "\n\n" + summary_table(results)
    report(f"fig4_{dataset_name}_{matcher}", text)

    # Eventual quality with a cheap matcher: all PIER methods land close to
    # the progressive baselines.
    if matcher == "JS":
        baseline = max(results["PPS"].final_pc, results["PBS"].final_pc)
        assert results["I-PES"].final_pc >= baseline - 0.1

    # With the expensive matcher on heterogeneous data, I-PES dominates the
    # other CBS-driven PIER strategies in early quality.
    if matcher == "ED" and dataset_name == "dbpedia":
        auc = lambda name: results[name].curve.area_under_curve(budget)
        assert auc("I-PES") >= auc("I-PCS") - 0.02


def test_fig4_pps_initialization_dominates_on_large_data(benchmark):
    """PPS's pre-analysis makes its curve flat long after PBS has begun."""

    def run():
        _, results = _run("dbpedia", "JS")
        return results

    results = run_once(benchmark, run)
    pps, pbs = results["PPS"], results["PBS"]
    early = 0.05 * 30.0
    assert pbs.curve.pc_at_time(early) > pps.curve.pc_at_time(early)
