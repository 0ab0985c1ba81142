"""Evaluation: metrics, progress recording, experiment harness, reporting."""

from repro.evaluation.experiments import (
    BATCH_SYSTEMS,
    ExperimentConfig,
    SYSTEM_NAMES,
)
from repro.evaluation.io import (
    curve_rows,
    run_result_to_dict,
    run_result_to_json,
    write_curve_csv,
)
from repro.evaluation.metrics import (
    blocking_pair_completeness,
    f_measure,
    pair_completeness,
    pairs_quality,
    reduction_ratio,
)
from repro.evaluation.recorder import ProgressCurve, ProgressPoint, ProgressRecorder
from repro.evaluation.reporting import (
    format_table,
    pc_over_comparisons_table,
    pc_over_time_table,
    summary_table,
)

__all__ = [
    "BATCH_SYSTEMS",
    "ExperimentConfig",
    "ProgressCurve",
    "ProgressPoint",
    "ProgressRecorder",
    "SYSTEM_NAMES",
    "blocking_pair_completeness",
    "curve_rows",
    "f_measure",
    "format_table",
    "pair_completeness",
    "pairs_quality",
    "pc_over_comparisons_table",
    "pc_over_time_table",
    "reduction_ratio",
    "run_result_to_dict",
    "run_result_to_json",
    "summary_table",
    "write_curve_csv",
]
