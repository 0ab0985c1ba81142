"""Extension: the LS-PSN / GS-PSN progressive baselines (paper §2.4).

The paper's evaluation restricts itself to PPS and PBS, "the two best
methods for schema-agnostic progressive ER" of Simonini et al.  This
extension benchmark runs the other two methods of that work next to them
in the static progressive setting, confirming the original ranking
(PPS/PBS dominate the PSN variants on heterogeneous data).
"""

from __future__ import annotations

from repro.evaluation.experiments import ExperimentConfig
from repro.evaluation.reporting import pc_over_comparisons_table, summary_table

from benchmarks.helpers import compare, report, run_once

SYSTEMS = ("PPS", "PBS", "LS-PSN", "GS-PSN")
BUDGET = 60.0


def _run():
    config = ExperimentConfig(
        dataset_name="dblp_acm",
        systems=SYSTEMS,
        matcher="JS",
        scale=0.5,
        n_increments=1,
        rate=None,
        budget=BUDGET,
    )
    return compare(config)


def test_extension_psn_baselines(benchmark):
    results = run_once(benchmark, _run)
    most = max(result.comparisons_executed for result in results.values())
    counts = [int(most * f) for f in (0.02, 0.05, 0.1, 0.25, 0.5, 1.0)]
    text = pc_over_comparisons_table(results, counts) + "\n\n" + summary_table(results)
    report("extension_psn", text)
    # All four progressive baselines produce useful early orders.
    for name in SYSTEMS:
        assert results[name].final_pc > 0.5, name
    # Meta-blocking-guided PPS outranks the sorted-neighborhood orders early.
    probe = max(int(most * 0.05), 1)
    pps_early = results["PPS"].curve.pc_at_comparisons(probe)
    assert pps_early >= results["LS-PSN"].curve.pc_at_comparisons(probe) - 0.05
