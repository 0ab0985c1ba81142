"""``PYTHONPATH=src python -m benchmarks.ledger [--seed N]``: the whole suite.

Runs ``k`` untraced repeats of every workload for the end-to-end numbers —
interleaved, round *r* of every workload before round *r+1*, so host drift
hits all workloads alike — then up to three traced rounds for the per-layer
numbers.  Prints every metric by name with its unit, checks the
outputs, writes ``BENCH_ledger.json`` and exits non-zero on any failed check.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from benchmarks.ledger import harness, spec
from benchmarks.ledger.compare import compare
from benchmarks.ledger.stats import REFERENCE_CALIBRATION_S, calibration_s

DEFAULT_REPEATS = 5
#: Traced rounds (fewer when ``--repeats`` is).  One traced run against the
#: untraced median read ``trace.overhead_pct`` anywhere from -8 % to +9 %;
#: the median of three keeps it and the layer times within about 3 %.
TRACED_REPEATS = 3


def _commit() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=spec.ROOT, capture_output=True,
            text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def run_suite(seed: int, repeats: int, tiny: bool) -> dict:
    names = list(spec.WORKLOADS)
    before = calibration_s()
    runs: dict[str, list[dict]] = {name: [] for name in names}
    for round_ in range(repeats):
        for name in names:
            print(f"round {round_ + 1}/{repeats}: {name}", file=sys.stderr)
            runs[name].append(
                harness.spawn(
                    name, seed, tiny=tiny,
                    verify_replay=spec.WORKLOADS[name].is_service and round_ == 0,
                )
            )
    traced: dict[str, list[dict]] = {name: [] for name in names}
    traced_rounds = min(repeats, TRACED_REPEATS)
    for round_ in range(traced_rounds):
        for name in names:
            print(f"traced round {round_ + 1}/{traced_rounds}: {name}", file=sys.stderr)
            traced[name].append(harness.spawn(name, seed, trace=True, tiny=tiny))
    after = calibration_s()

    why = {w["name"]: w["why"] for w in spec.contract()["workloads"]}
    workloads: dict[str, dict] = {}
    for name in names:
        reference = spec.WORKLOADS[name].same_output_as
        workloads[name] = {
            "why": why[name],
            # What the host-speed correction was applied to, per repeat.
            "raw_wall_s": [run["raw_wall_s"] for run in runs[name]],
            "host_speed": [run["host_speed"] for run in runs[name]],
            "end_to_end": harness.end_to_end(name, runs[name]),
            "per_layer": harness.per_layer(
                traced[name], traced[reference] if reference else (), runs[name]
            ),
            "checks": harness.verify(
                runs[name] + traced[name], runs[reference] if reference else ()
            ),
        }
    return {
        "schema": 1,
        "seed": seed,
        "repeats": repeats,
        "traced_repeats": traced_rounds,
        "tiny": tiny,
        "host": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "commit": _commit(),
            # The loop timed before and after the suite, and the median of
            # its readings around every timed run in between (what
            # ``--compare`` goes by: two single readings wander too much).
            "calibration_s": {
                "before": before,
                "after": after,
                "runs_median": REFERENCE_CALIBRATION_S / statistics.median(
                    run["host_speed"] for name in names for run in runs[name] + traced[name]
                ),
            },
        },
        "workloads": workloads,
        "correct": all(all(w["checks"].values()) for w in workloads.values()),
    }


def report(ledger: dict) -> None:
    """Every metric by name, with its unit."""
    for name, section in ledger["workloads"].items():
        print(f"== {name}: {section['why']}")
        print(f"  end-to-end (median of {ledger['repeats']} untraced runs, [q1, q3])")
        for metric, entry in section["end_to_end"].items():
            print(
                f"    {metric:<34} {entry['value']:>14.6g} {entry['unit']:<6}"
                f" [{entry['q1']:.6g}, {entry['q3']:.6g}] n={entry['n']}"
            )
        print(f"  per-layer (median of {ledger['traced_repeats']} traced runs)")
        for metric, entry in section["per_layer"].items():
            value = "null" if entry["value"] is None else f"{entry['value']:.6g}"
            print(f"    {metric:<34} {value:>14} {entry['unit']}")
        failed = [check for check, passed in section["checks"].items() if not passed]
        print(f"  checks: {'FAILED ' + ', '.join(failed) if failed else 'all passed'}")
    host = ledger["host"]
    print(
        f"host: nproc={host['nproc']} python={host['python']} commit={host['commit']} "
        f"calibration_s before={host['calibration_s']['before']:.4f} "
        f"after={host['calibration_s']['after']:.4f} "
        f"runs_median={host['calibration_s']['runs_median']:.4f}"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.ledger")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeats", type=int, default=DEFAULT_REPEATS)
    parser.add_argument("--tiny", action="store_true", help="smoke-test input sizes")
    parser.add_argument("--out", type=Path, default=spec.BASELINE)
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    try:
        ledger = run_suite(args.seed, args.repeats, args.tiny)
    except harness.ChildFailed as failure:
        print(f"ledger run failed: {failure}", file=sys.stderr)
        return 1
    report(ledger)
    args.out.write_text(json.dumps(ledger, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0 if ledger["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
