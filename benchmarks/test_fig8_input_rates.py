"""Figure 8: varying the increment input rate (4 / 8 / 16 ΔD/s).

census_2m and dbpedia, JS and ED.  Expected shapes (paper, Figure 8):

* on slow streams, I-BASE keeps up and all approaches are comparable
  (everyone is arrival-bound);
* as the rate rises, I-BASE stagnates while the adaptive PIER algorithms
  keep improving early quality;
* with ED, everything slows but the same ordering holds.
"""

from __future__ import annotations

import pytest

from repro.evaluation.experiments import ExperimentConfig
from repro.evaluation.reporting import pc_over_time_table, summary_table

from benchmarks.helpers import compare, report, run_once

SYSTEMS = ("I-BASE", "I-PCS", "I-PBS", "I-PES")
RATES = (4.0, 8.0, 16.0)

SETUPS = {
    # dataset → (scale, n_increments, JS budget, ED budget)
    "census_2m": (0.4, 240, 70.0, 120.0),
    "dbpedia": (0.3, 240, 70.0, 150.0),
}


def _run(dataset_name: str, matcher: str, rate: float):
    scale, n_increments, js_budget, ed_budget = SETUPS[dataset_name]
    budget = js_budget if matcher == "JS" else ed_budget
    config = ExperimentConfig(
        dataset_name=dataset_name,
        systems=SYSTEMS,
        matcher=matcher,
        scale=scale,
        n_increments=n_increments,
        rate=rate,
        budget=budget,
    )
    return budget, compare(config)


@pytest.mark.parametrize("dataset_name", list(SETUPS))
@pytest.mark.parametrize("matcher", ["JS", "ED"])
def test_fig8_rate_sweep(benchmark, dataset_name, matcher):
    def sweep():
        return {rate: _run(dataset_name, matcher, rate) for rate in RATES}

    by_rate = run_once(benchmark, sweep)
    sections = []
    for rate, (budget, results) in by_rate.items():
        times = [budget * f for f in (0.1, 0.25, 0.5, 0.75, 1.0)]
        sections.append(
            f"--- input rate {rate:g} dD/s ---\n"
            + pc_over_time_table(results, times)
            + "\n"
            + summary_table(results)
        )
    report(f"fig8_{dataset_name}_{matcher}", "\n\n".join(sections))

    # PIER's early-quality edge over I-BASE grows with the input rate.
    def edge(rate):
        budget, results = by_rate[rate]
        auc = lambda name: results[name].curve.area_under_curve(budget)
        return auc("I-PES") - auc("I-BASE")

    assert edge(16.0) >= edge(4.0) - 0.05
    # At the highest rate the baseline is clearly dominated.
    assert edge(16.0) > 0.0
