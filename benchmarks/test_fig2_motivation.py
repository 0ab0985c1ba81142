"""Figure 2: the motivating experiment on the movies dataset.

Two progressive baselines naively adapted to streams (PPS-GLOBAL,
PPS-LOCAL), the incremental baseline (I-BASE), and a PIER algorithm (I-PES)
over four stream shapes: slow vs fast rates x short vs long streams.

Expected shapes (paper, Figure 2):
* PPS-LOCAL barely finds anything (no inter-increment comparisons);
* PPS-GLOBAL is fine on slow streams but collapses on fast/long streams
  (per-increment reassessment of the full prioritization);
* I-BASE eventually finds the most matches on slow streams but is not
  progressive, and falls behind on fast streams;
* I-PES tracks the best of both everywhere.
"""

from __future__ import annotations

import pytest

from repro.api import ERSession
from repro.core.increments import make_stream_plan, split_into_increments
from repro.datasets.registry import load_dataset
from repro.evaluation.reporting import pc_over_time_table, summary_table
from repro.streaming.engine import StreamingEngine

from benchmarks.helpers import report, run_once

SYSTEMS = ("PPS-GLOBAL", "PPS-LOCAL", "I-BASE", "I-PES")
SCALE = 0.35

# (n_increments, rate, budget) — slow/fast x short/long
CONFIGS = {
    "slow_short": (100, 0.5, 300.0),
    "slow_long": (1200, 4.0, 500.0),
    "fast_short": (100, 16.0, 60.0),
    "fast_long": (1200, 16.0, 120.0),
}


def _run_cell(label: str):
    n_increments, rate, budget = CONFIGS[label]
    dataset = load_dataset("movies", scale=SCALE)
    increments = split_into_increments(dataset, n_increments, seed=0)
    plan = make_stream_plan(increments, rate=rate)
    session = ERSession(dataset, systems=SYSTEMS, matcher="JS")
    results = {}
    for system_name in SYSTEMS:
        engine = StreamingEngine(session.build_matcher(), budget=budget)
        results[system_name] = engine.run(
            session.build_system(system_name), plan, dataset.ground_truth
        )
    return results


@pytest.mark.parametrize("label", list(CONFIGS))
def test_fig2_cell(benchmark, label):
    results = run_once(benchmark, lambda: _run_cell(label))
    budget = CONFIGS[label][2]
    times = [budget * f for f in (0.05, 0.1, 0.25, 0.5, 0.75, 1.0)]
    text = pc_over_time_table(results, times) + "\n\n" + summary_table(results)
    report(f"fig2_{label}", text)

    # PPS-LOCAL never gets anywhere
    assert results["PPS-LOCAL"].final_pc < 0.15
    # I-PES is never dominated in early quality
    pes_auc = results["I-PES"].curve.area_under_curve(budget)
    for other in ("PPS-GLOBAL", "PPS-LOCAL", "I-BASE"):
        assert pes_auc >= results[other].curve.area_under_curve(budget) - 0.02


def test_fig2_global_collapses_on_fast_long_streams(benchmark):
    def run_pair():
        return _run_cell("slow_short"), _run_cell("fast_long")

    slow, fast = run_once(benchmark, run_pair)
    # PPS-GLOBAL works on slow/short but degrades on fast/long
    assert slow["PPS-GLOBAL"].final_pc > 0.5
    assert fast["PPS-GLOBAL"].final_pc < slow["PPS-GLOBAL"].final_pc - 0.2
