"""Figure 6: influence of the increment size (dbpedia, ED matcher).

Many small increments vs few large ones, for I-PBS and I-PES, against their
batch counterparts PBS and PPS.  Expected shapes (paper, Figure 6):

* with fewer/larger increments, I-PBS's comparison order approaches PBS's
  (better PC per comparison);
* the price is a longer per-increment pre-analysis, visible in PC over
  time early on;
* I-PES changes far less with increment size.
"""

from __future__ import annotations

from repro.evaluation.experiments import ExperimentConfig
from repro.evaluation.reporting import (
    pc_over_comparisons_table,
    pc_over_time_table,
)

from benchmarks.helpers import compare, report, run_once

SCALE = 0.3
BUDGET = 150.0
MANY, FEW = 300, 15


def _run():
    results = {}
    for label, n_increments, systems in (
        ("many", MANY, ("I-PBS", "I-PES")),
        ("few", FEW, ("I-PBS", "I-PES")),
        ("batch", 1, ("PBS", "PPS")),
    ):
        config = ExperimentConfig(
            dataset_name="dbpedia",
            systems=systems,
            matcher="ED",
            scale=SCALE,
            n_increments=n_increments,
            rate=None,
            budget=BUDGET,
        )
        for name, result in compare(config).items():
            results[f"{name}({n_increments})" if n_increments > 1 else name] = result
    return results


def test_fig6_increment_size(benchmark):
    results = run_once(benchmark, _run)
    times = [BUDGET * f for f in (0.1, 0.2, 0.4, 0.6, 0.8, 1.0)]
    most = max(result.comparisons_executed for result in results.values())
    counts = [int(most * f) for f in (0.05, 0.1, 0.25, 0.5, 1.0)]
    text = (
        "PC over time:\n"
        + pc_over_time_table(results, times)
        + "\n\nPC over comparisons:\n"
        + pc_over_comparisons_table(results, counts)
    )
    report("fig6_increment_size", text)

    # Larger increments move I-PBS's comparison order towards PBS:
    # at a mid-range comparison count, few-large >= many-small.
    probe = max(int(most * 0.25), 1)
    few = results[f"I-PBS({FEW})"].curve.pc_at_comparisons(probe)
    many = results[f"I-PBS({MANY})"].curve.pc_at_comparisons(probe)
    assert few >= many - 0.05

    # I-PES is comparatively insensitive to increment size (eventual PC).
    pes_gap = abs(
        results[f"I-PES({FEW})"].final_pc - results[f"I-PES({MANY})"].final_pc
    )
    assert pes_gap < 0.15
