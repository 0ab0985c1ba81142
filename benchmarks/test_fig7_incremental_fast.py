"""Figure 7: the incremental setting with a fast stream (32 ΔD/s).

census_2m and dbpedia x {JS, ED}, all six algorithms.  Expected shapes
(paper, Figure 7):

* the naive PPS/PBS adaptations stay near PC 0 within the budget;
* with JS, I-BASE reaches a comparable eventual PC but lags the PIER
  algorithms in early quality;
* with ED, I-BASE cannot consume the stream within the budget (missing ×),
  while the adaptive PIER algorithms do;
* I-PES is the best all-rounder; I-PBS wins on the relational census data
  where the smallest blocks are highly informative.
"""

from __future__ import annotations

import pytest

from repro.evaluation.experiments import ExperimentConfig
from repro.evaluation.reporting import pc_over_time_table, summary_table

from benchmarks.helpers import compare, report, run_once

SYSTEMS = ("PPS-GLOBAL", "PBS-GLOBAL", "I-BASE", "I-PCS", "I-PBS", "I-PES")
RATE = 32.0

SETUPS = {
    # dataset → (scale, n_increments, JS budget, ED budget)
    "census_2m": (0.5, 400, 30.0, 90.0),
    "dbpedia": (0.4, 400, 30.0, 150.0),
}


def _run(dataset_name: str, matcher: str):
    scale, n_increments, js_budget, ed_budget = SETUPS[dataset_name]
    budget = js_budget if matcher == "JS" else ed_budget
    config = ExperimentConfig(
        dataset_name=dataset_name,
        systems=SYSTEMS,
        matcher=matcher,
        scale=scale,
        n_increments=n_increments,
        rate=RATE,
        budget=budget,
    )
    return budget, compare(config)


@pytest.mark.parametrize("dataset_name", list(SETUPS))
@pytest.mark.parametrize("matcher", ["JS", "ED"])
def test_fig7_cell(benchmark, dataset_name, matcher):
    budget, results = run_once(benchmark, lambda: _run(dataset_name, matcher))
    times = [budget * f for f in (0.1, 0.2, 0.4, 0.6, 0.8, 1.0)]
    text = pc_over_time_table(results, times) + "\n\n" + summary_table(results)
    report(f"fig7_{dataset_name}_{matcher}", text)

    auc = lambda name: results[name].curve.area_under_curve(budget)

    # Naive adaptations of batch progressive ER fail on fast streams.
    assert results["PPS-GLOBAL"].final_pc < 0.5
    # PIER beats the incremental baseline in early quality...
    assert auc("I-PES") > auc("I-BASE")
    # ...and at least matches its eventual quality.
    assert results["I-PES"].final_pc >= results["I-BASE"].final_pc - 0.02

    if matcher == "ED":
        # The non-adaptive baseline consumes the stream later than PIER (or
        # not at all within budget).  The paper notes the effect is "much
        # more visible on D_dbpedia than D_2M" — census records are short,
        # so ED is not always its bottleneck; hence the tolerance.
        ibase_consumed = results["I-BASE"].stream_consumed_at
        pes_consumed = results["I-PES"].stream_consumed_at
        assert pes_consumed is not None
        tolerance = 1.0 if dataset_name == "census_2m" else 0.0
        assert ibase_consumed is None or ibase_consumed >= pes_consumed - tolerance

    if dataset_name == "census_2m" and matcher == "ED":
        # Relational census data rewards block-centric scheduling.
        assert auc("I-PBS") > auc("I-PCS")
