"""Evaluation: metrics, progress recording, experiment harness, reporting.

Names are read from their modules on first use: the engine imports the
recorder through this package, and must not load the experiment harness
(which imports every system, and so the engine itself) with it.
"""

from __future__ import annotations

from repro import _lazy_exports

_EXPORTS = {
    "BATCH_SYSTEMS": "repro.evaluation.experiments",
    "ExperimentConfig": "repro.evaluation.experiments",
    "ProgressCurve": "repro.evaluation.recorder",
    "ProgressPoint": "repro.evaluation.recorder",
    "ProgressRecorder": "repro.evaluation.recorder",
    "SYSTEM_NAMES": "repro.evaluation.experiments",
    "blocking_pair_completeness": "repro.evaluation.metrics",
    "curve_rows": "repro.evaluation.io",
    "f_measure": "repro.evaluation.metrics",
    "format_table": "repro.evaluation.reporting",
    "pair_completeness": "repro.evaluation.metrics",
    "pairs_quality": "repro.evaluation.metrics",
    "pc_over_comparisons_table": "repro.evaluation.reporting",
    "pc_over_time_table": "repro.evaluation.reporting",
    "reduction_ratio": "repro.evaluation.metrics",
    "run_result_to_dict": "repro.evaluation.io",
    "run_result_to_json": "repro.evaluation.io",
    "summary_table": "repro.evaluation.reporting",
    "write_curve_csv": "repro.evaluation.io",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)
