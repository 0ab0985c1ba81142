"""The parent side: starts timed children one at a time and reads them back.

Every timed run is a fresh ``python -m benchmarks.ledger.run_one`` process,
so caches do not leak between runs and peak RSS is per run.  This module
never imports the program; it only aggregates what the children print.
"""

from __future__ import annotations

import json
import os
import signal
import statistics
import subprocess
import sys
import time

from benchmarks.ledger import spec
from benchmarks.ledger.stats import percentile, quartiles

#: A child that runs longer than this is killed with its whole process group.
CHILD_TIMEOUT_S = 170.0


class ChildFailed(RuntimeError):
    """A timed child exited non-zero, timed out or printed no record."""


def child_env() -> dict[str, str]:
    paths = [str(spec.ROOT / "src"), str(spec.ROOT)]
    if os.environ.get("PYTHONPATH"):
        paths.append(os.environ["PYTHONPATH"])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}


def spawn(
    workload: str, seed: int, *, trace: bool = False, tiny: bool = False,
    verify_replay: bool = False,
) -> dict:
    """Run one child to completion and return the record it printed."""
    command = [sys.executable, "-m", "benchmarks.ledger.run_one", workload, "--seed", str(seed)]
    command += ["--trace"] * trace + ["--tiny"] * tiny + ["--verify-replay"] * verify_replay
    command += ["--spawned-at", repr(time.time())]
    process = subprocess.Popen(
        command, cwd=spec.ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        stdout, _ = process.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise ChildFailed(f"{workload}: no result within {CHILD_TIMEOUT_S:.0f} s") from None
    if process.returncode != 0:
        raise ChildFailed(f"{workload}: child exited with code {process.returncode}")
    try:
        return json.loads(stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise ChildFailed(f"{workload}: child printed no record") from None


def _by_seed(runs: list[dict]) -> dict[int, list[dict]]:
    grouped: dict[int, list[dict]] = {}
    for run in runs:
        grouped.setdefault(run["seed"], []).append(run)
    return grouped


def _entry(values: list[float], unit: str, value: float) -> dict:
    first, third = quartiles(values)
    return {
        "value": value,
        "unit": unit,
        "q1": first,
        "q3": third,
        "n": len(values),
        "values": values,
    }


def end_to_end(workload: str, runs: list[dict]) -> dict[str, dict]:
    """Value, quartiles and ``n`` of each end-to-end metric over the repeats.

    A value is the median over the repeats of one dataset (one seed), and
    the mean of those medians when the repeats cover several datasets;
    ``setup_s`` does not depend on the dataset and is the median over all
    repeats.  The ingest percentiles are taken over the samples of all
    repeats pooled.  Quartiles are those of the per-repeat readings.
    """
    pooled = [sample for run in runs for sample in run.get("ingest_ms", ())]
    fractions = {"ingest_p50_ms": 0.5, "ingest_p99_ms": 0.99}
    datasets = list(_by_seed(runs).values())
    table = {}
    for metric in spec.end_to_end_metrics():
        if not metric.applies_to(workload):
            continue
        name = metric.name
        values = [run[name] for run in runs]
        if name in fractions:
            entry = _entry(values, metric.unit, percentile(pooled, fractions[name]))
            entry["samples"] = len(pooled)
        elif name == "setup_s":
            entry = _entry(values, metric.unit, statistics.median(values))
        else:
            medians = [statistics.median(run[name] for run in group) for group in datasets]
            entry = _entry(values, metric.unit, statistics.fmean(medians))
        table[name] = entry
    return table


def per_layer(
    traced: list[dict], reference: list[dict] = (), untraced: list[dict] = ()
) -> dict[str, dict]:
    """Each layer metric as the median over the traced runs (``None`` stays).

    ``reference`` holds traced runs of the workload this one is compared
    against for ``parallel.efficiency`` (``stream_ed`` for ``fleet_ed``), and
    ``untraced`` plain runs of this workload for ``trace.overhead_pct``;
    both ratios are taken over the datasets both sides ran.
    """

    def median_of(runs: list[dict], name: str) -> float | None:
        known = [run["layers"][name] for run in runs if run["layers"].get(name) is not None]
        return statistics.median(known) if known else None

    def on_datasets_of(others: list[dict]) -> list[dict]:
        shared = {run["seed"] for run in others}
        return [run for run in traced if run["seed"] in shared]

    table = {
        metric.name: {"value": median_of(traced, metric.name), "unit": metric.unit}
        for metric in spec.per_layer_metrics()
    }
    if table["parallel.scatter_s"]["value"] == 0:
        table["parallel.efficiency"]["value"] = 0.0
    elif reference:
        scatter = median_of(on_datasets_of(reference), "parallel.scatter_s")
        inproc = median_of(reference, "matching.evaluate_s")
        if scatter and inproc is not None:
            table["parallel.efficiency"]["value"] = inproc / (spec.FLEET_WORKERS * scatter)
    if untraced:
        with_spans = statistics.median(run["traced_wall_s"] for run in on_datasets_of(untraced))
        without = statistics.median(run["wall_s"] for run in untraced)
        table["trace.overhead_pct"]["value"] = 100.0 * (with_spans / without - 1.0)
    return table


def verify(runs: list[dict], reference: list[dict] = ()) -> dict[str, bool]:
    """The cross-run correctness gate of one workload.

    Every child's own checks pass; all repeats of a dataset (traced ones
    too) reported the same duplicates and comparison count; and so did the
    runs of the workload this one must agree with (``reference``).
    """
    checks: dict[str, bool] = {}
    for run in runs:
        for name, passed in run["checks"].items():
            checks[name] = checks.get(name, True) and passed
    fingerprints = {
        seed: {run["fingerprint"] for run in group} for seed, group in _by_seed(runs).items()
    }
    checks["repeats_identical"] = all(len(found) == 1 for found in fingerprints.values())
    if reference:
        checks["equals_reference_workload"] = all(
            fingerprints.get(run["seed"]) == {run["fingerprint"]} for run in reference
        )
    return checks
