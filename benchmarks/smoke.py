"""Fast benchmark smoke target: ``python -m benchmarks.smoke``.

Runs one small deterministic stream through the three PIER strategies
(I-PCS, I-PBS, I-PES) on the serial engine and writes the resulting
observability snapshots to ``benchmarks/BENCH_smoke.json`` — the first data
point of the perf trajectory.  All recorded quantities are virtual-clock
derived (wall-clock fields are stripped), so the file is byte-for-byte
reproducible across hosts and any diff under git is a real behavior change.

The target *fails* (exit code 1) when the metric schema drifts from the
checked-in baseline: top-level keys, counter/gauge/phase names or per-round
sample fields that appear or disappear must be acknowledged by re-running
with ``--update`` and committing the refreshed baseline together with a
``docs/observability.md`` update.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Sequence

from repro.api import ERSession

BENCH_SCHEMA_VERSION = 1
DEFAULT_BASELINE = Path(__file__).parent / "BENCH_smoke.json"

CONFIG = {
    "dataset": "dblp_acm",
    "scale": 0.2,
    "n_increments": 10,
    "rate": 5.0,
    # ED is costly enough that a 10s virtual budget leaves the run
    # budget-bound (work_exhausted=False), so the baseline actually
    # exercises prioritization and deadline-cut accounting.
    "matcher": "ED",
    "budget": 10.0,
    "seed": 0,
    "systems": ["I-PCS", "I-PBS", "I-PES"],
}


def build_snapshot() -> dict:
    """Run the smoke configuration and collect one entry per system."""
    with ERSession(
        CONFIG["dataset"],
        systems=tuple(CONFIG["systems"]),
        matcher=CONFIG["matcher"],
        scale=CONFIG["scale"],
        n_increments=CONFIG["n_increments"],
        rate=CONFIG["rate"],
        budget=CONFIG["budget"],
        seed=CONFIG["seed"],
    ) as session:
        results = session.compare()
    systems: dict[str, dict] = {}
    for name, result in results.items():
        metrics = dict(result.details["metrics"])
        # Rebuild the snapshot without host-dependent wall-clock fields.
        metrics["phases"] = {
            phase: {key: value for key, value in totals.items() if key != "wall_s"}
            for phase, totals in metrics["phases"].items()
        }
        systems[name] = {
            "final_pc": result.final_pc,
            "comparisons_executed": result.comparisons_executed,
            "clock_end": result.clock_end,
            "increments_ingested": result.increments_ingested,
            "work_exhausted": result.work_exhausted,
            "metrics": metrics,
        }
    return {
        "bench_schema_version": BENCH_SCHEMA_VERSION,
        "config": CONFIG,
        "systems": systems,
    }


def schema_paths(obj: object, prefix: str = "") -> set[str]:
    """Flattened key paths describing the *structure* of a payload.

    Values are ignored; lists contribute the union of their element
    structures under ``[]`` so sample-count changes do not register.
    """
    paths: set[str] = set()
    if isinstance(obj, dict):
        for key, value in obj.items():
            path = f"{prefix}.{key}" if prefix else str(key)
            paths.add(path)
            paths |= schema_paths(value, path)
    elif isinstance(obj, list):
        for value in obj:
            paths |= schema_paths(value, f"{prefix}[]")
    return paths


def diff_schema(baseline: dict, current: dict) -> tuple[set[str], set[str]]:
    """(removed, added) schema paths between baseline and current payloads."""
    old = schema_paths(baseline)
    new = schema_paths(current)
    return old - new, new - old


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="benchmarks.smoke",
        description="run the benchmark smoke suite and check metric-schema drift",
    )
    parser.add_argument(
        "--out", type=Path, default=DEFAULT_BASELINE,
        help="baseline path (default: benchmarks/BENCH_smoke.json)",
    )
    parser.add_argument(
        "--update", action="store_true",
        help="accept schema drift and rewrite the baseline",
    )
    args = parser.parse_args(argv)

    payload = build_snapshot()
    for name, entry in payload["systems"].items():
        print(
            f"{name}: PC={entry['final_pc']:.3f} "
            f"comparisons={entry['comparisons_executed']} "
            f"clock_end={entry['clock_end']:.3f}s"
        )

    if args.out.exists() and not args.update:
        baseline = json.loads(args.out.read_text())
        removed, added = diff_schema(baseline, payload)
        if removed or added:
            print("\nmetric-schema drift detected against", args.out)
            for path in sorted(removed):
                print(f"  - removed: {path}")
            for path in sorted(added):
                print(f"  + added:   {path}")
            print("re-run with --update to accept the new schema")
            return 1

    args.out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"\nwrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
