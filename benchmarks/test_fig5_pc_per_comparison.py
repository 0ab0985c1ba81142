"""Figure 5: PC per emitted comparison (no time budget).

The comparison-efficiency view of the same progressive setting: how much
PC does each algorithm buy per executed comparison?  Expected shapes
(paper, Figure 5):

* PPS is by far the most comparison-efficient (meta-blocking graph +
  per-profile top-k emits few, good comparisons);
* I-PCS needs far more comparisons than I-PES for the same PC on
  heterogeneous data (CBS over-prioritizes long non-matches);
* PBS and I-PBS execute roughly the same comparisons, but I-PBS spends
  them less well (lazy refills reorder emission).
"""

from __future__ import annotations

import pytest

from repro.evaluation.experiments import ExperimentConfig
from repro.evaluation.reporting import pc_over_comparisons_table

from benchmarks.helpers import compare, report, run_once

SYSTEMS = ("PPS", "PBS", "I-PCS", "I-PBS", "I-PES")

SETUPS = {
    "dblp_acm": 0.5,
    "movies": 0.3,
    "census_2m": 0.3,
    "dbpedia": 0.3,
}


def _run(dataset_name: str):
    config = ExperimentConfig(
        dataset_name=dataset_name,
        systems=SYSTEMS,
        matcher="JS",          # the matcher does not affect the x-axis
        scale=SETUPS[dataset_name],
        n_increments=100,
        rate=None,
        budget=10_000.0,       # effectively unbounded: run to completion
    )
    return compare(config)


@pytest.mark.parametrize("dataset_name", list(SETUPS))
def test_fig5_pc_per_comparison(benchmark, dataset_name):
    results = run_once(benchmark, lambda: _run(dataset_name))
    most = max(result.comparisons_executed for result in results.values())
    counts = [int(most * f) for f in (0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0)]
    table = pc_over_comparisons_table(results, counts)
    report(f"fig5_{dataset_name}", table)

    # On heterogeneous data PPS buys more PC per comparison than plain block
    # scheduling early on.  (census_2m is the paper's exception: relational
    # data with highly informative smallest blocks rewards block-centric
    # scheduling, so the probe is skipped there.)
    if dataset_name != "census_2m":
        probe = max(int(most * 0.05), 1)
        assert results["PPS"].curve.pc_at_comparisons(probe) >= results[
            "PBS"
        ].curve.pc_at_comparisons(probe) - 0.05

    # Run-to-completion: every algorithm reaches a high eventual PC
    for name, result in results.items():
        assert result.final_pc > 0.55, f"{name} ended at {result.final_pc:.3f}"


def test_fig5_ipes_more_comparison_efficient_than_ipcs(benchmark):
    """On the heterogeneous dbpedia analogue, I-PES reaches mid-range PC
    with fewer comparisons than I-PCS (the CBS-misleads effect)."""
    results = run_once(benchmark, lambda: _run("dbpedia"))

    def comparisons_to_reach(name):
        count = results[name].curve.comparisons_to_pc(0.5)
        return count if count is not None else float("inf")

    assert comparisons_to_reach("I-PES") <= comparisons_to_reach("I-PCS") * 1.25
