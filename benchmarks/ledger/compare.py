"""``python -m benchmarks.ledger --compare A.json B.json``.

One row per (workload, end-to-end metric): both medians with quartiles and
``n``, the ratio with its base, the metric's bound and a verdict for B
against A.  Exits non-zero on any ``worse``.
"""

from __future__ import annotations

import json
from pathlib import Path

from benchmarks.ledger import spec
from benchmarks.ledger.stats import quartiles

#: Two files whose host calibrations differ by more than this cannot be
#: compared on wall-clock metrics.
CALIBRATION_TOLERANCE = 0.10


def _calibration(ledger: dict) -> float:
    return ledger["host"]["calibration_s"]["runs_median"]


def verdict(metric: spec.Metric, a: dict, b: dict, hosts_differ: bool) -> str:
    """``same`` / ``worse`` / ``better`` / ``unresolved`` for B against A."""
    if hosts_differ and metric.name in spec.WALL_METRICS:
        return "unresolved"
    sign = 1.0 if metric.better == "higher" else -1.0
    relative = metric.bound_kind == "rel"
    tolerance = metric.bound * abs(a["value"]) if relative else metric.bound
    widest = max(
        (third - first) / (abs(entry["value"]) if relative and entry["value"] else 1.0)
        for entry in (a, b)
        for first, third in [quartiles(entry["values"])]
    )
    gains = [sign * (y - x) for x in a["values"] for y in b["values"]]
    separated = all(gain > 0 for gain in gains) or all(gain < 0 for gain in gains)
    if widest > metric.bound and not separated:
        return "unresolved"
    gain = sign * (b["value"] - a["value"])
    if gain < -tolerance:
        return "worse"
    if gain > tolerance:
        return "better"
    return "same"


def _cell(entry: dict) -> str:
    return f"{entry['value']:.6g} [{entry['q1']:.6g}, {entry['q3']:.6g}] n={entry['n']}"


def compare(path_a: Path, path_b: Path) -> int:
    a, b = json.loads(path_a.read_text()), json.loads(path_b.read_text())
    calibration_a, calibration_b = _calibration(a), _calibration(b)
    hosts_differ = (
        abs(calibration_b - calibration_a) / calibration_a > CALIBRATION_TOLERANCE
    )
    print(f"A = {path_a}  (calibration {calibration_a:.4f} s, commit {a['host']['commit']})")
    print(f"B = {path_b}  (calibration {calibration_b:.4f} s, commit {b['host']['commit']})")
    if hosts_differ:
        print(
            f"calibrations differ by more than {CALIBRATION_TOLERANCE:.0%}: "
            "wall-clock metrics are unresolved"
        )
    worse = 0
    header = f"{'workload':<12} {'metric':<16} {'A median [q1, q3] n':<40} " \
             f"{'B median [q1, q3] n':<40} {'B/A (base A)':<28} {'bound':<10} verdict"
    print(header)
    for name, section_a in a["workloads"].items():
        section_b = b["workloads"].get(name)
        if section_b is None:
            continue
        for metric in spec.end_to_end_metrics():
            entry_a = section_a["end_to_end"].get(metric.name)
            entry_b = section_b["end_to_end"].get(metric.name)
            if entry_a is None or entry_b is None:
                continue
            outcome = verdict(metric, entry_a, entry_b, hosts_differ)
            worse += outcome == "worse"
            base = entry_a["value"]
            ratio = f"{entry_b['value'] / base:.4f}" if base else "n/a"
            bound = f"{metric.bound:g} {metric.bound_kind}"
            print(
                f"{name:<12} {metric.name:<16} {_cell(entry_a):<40} {_cell(entry_b):<40} "
                f"{ratio + f' (A = {base:.6g} {metric.unit})':<28} {bound:<10} {outcome}"
            )
    print(f"{worse} worse")
    return 1 if worse else 0
