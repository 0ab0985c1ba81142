"""Figure 1: matches found over time by batch, progressive, and incremental
ER over static and dynamic data (the paper's motivating sketch).

Static data: batch ER discovers matches late (uniformly over its run, all
results effectively at the end), progressive ER front-loads discovery after
a pre-analysis delay, incremental ER rises in steps.  Dynamic data:
incremental ER degrades when increments arrive faster than it can process
them, while progressive-incremental (I-PES) keeps the early-discovery
profile.
"""

from __future__ import annotations

from repro.evaluation.experiments import ExperimentConfig
from repro.evaluation.reporting import pc_over_time_table

from benchmarks.helpers import compare, report, run_once

SCALE = 0.4


def _static_setting():
    config = ExperimentConfig(
        dataset_name="dblp_acm",
        systems=("BATCH", "PBS", "I-PES"),
        matcher="ED",
        scale=SCALE,
        n_increments=50,
        rate=None,
        budget=120.0,
    )
    return compare(config)


def _dynamic_setting():
    config = ExperimentConfig(
        dataset_name="dblp_acm",
        systems=("I-BASE", "I-PES"),
        matcher="ED",
        scale=SCALE,
        n_increments=100,
        rate=16.0,
        budget=120.0,
    )
    return compare(config)


def test_fig1_static(benchmark):
    results = run_once(benchmark, _static_setting)
    times = [1, 2, 5, 10, 20, 40, 80, 120]
    table = pc_over_time_table(results, times)
    report("fig1_static", table)
    # progressive ER (PBS) must beat batch ER early...
    midpoint = results["BATCH"].clock_end / 2
    assert results["PBS"].curve.pc_at_time(midpoint) > results["BATCH"].curve.pc_at_time(
        midpoint
    )
    # ...and so must PIER, despite consuming the data incrementally
    assert results["I-PES"].curve.pc_at_time(midpoint) > results["BATCH"].curve.pc_at_time(
        midpoint
    )


def test_fig1_dynamic(benchmark):
    results = run_once(benchmark, _dynamic_setting)
    times = [2, 5, 10, 20, 40, 80, 120]
    table = pc_over_time_table(results, times)
    report("fig1_dynamic", table)
    # PIER dominates the incremental baseline's early quality on fast streams
    assert results["I-PES"].curve.area_under_curve(120.0) >= results[
        "I-BASE"
    ].curve.area_under_curve(120.0)
