"""Chaos benchmark gate: ``python -m benchmarks.chaos``.

The three PIER strategies (I-PCS, I-PBS, I-PES) run through a *perturbed*
stream — seeded drops, redeliveries, reorders, bursts, profile corruption —
with a :class:`~repro.resilience.faults.FaultyMatcher` injecting transient
failures and latency spikes, on a serial engine configured with retry,
cost-ceiling quarantine, load shedding, and periodic checkpoints.  Seeded,
so bit-reproducible.  (Worker-process failures are driven by real signals
in ``tests/test_supervision.py``.)

The resulting observability snapshots are written to
``benchmarks/BENCH_chaos.json`` (wall-clock fields stripped, so the file is
byte-for-byte reproducible across hosts).

The target *fails* (exit code 1) when

* any strategy raises an uncaught exception under chaos — the resilience
  layer is expected to absorb every injected fault; or
* the metric schema drifts from the checked-in baseline (same contract as
  ``benchmarks.smoke``: re-run with ``--update`` and commit the refreshed
  baseline together with a ``docs/observability.md`` update).
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from pathlib import Path
from typing import Sequence

from repro.api import EngineOptions, ERSession
from repro.resilience import FaultSpec, ResilienceConfig, RetryPolicy

from benchmarks.smoke import diff_schema

BENCH_SCHEMA_VERSION = 1
DEFAULT_BASELINE = Path(__file__).parent / "BENCH_chaos.json"

CONFIG = {
    "dataset": "dblp_acm",
    "scale": 0.2,
    "n_increments": 12,
    "rate": 5.0,
    "matcher": "ED",
    "budget": 10.0,
    "seed": 0,
    "fault_seed": 7,
    "systems": ["I-PCS", "I-PBS", "I-PES"],
    # Candidate-generation substrate; chaos pins token blocking (the LSH
    # tier is exercised and gated in tests/test_lsh.py).
    "blocking": "token",
    # max_attempts=2 (not the default 3) so retry exhaustion — and with it
    # the quarantine path — actually triggers at the injected failure rate.
    "resilience": {
        "max_attempts": 2,
        "cost_ceiling": 0.5,
        "shed_watermark": 8,
        "checkpoint_every": 2.0,
    },
}


def build_snapshot() -> dict:
    """Run the chaos configuration; raises if any strategy fails to finish."""
    knobs = CONFIG["resilience"]
    resilience = ResilienceConfig(
        retry=RetryPolicy(max_attempts=knobs["max_attempts"]),
        cost_ceiling=knobs["cost_ceiling"],
        shed_watermark=knobs["shed_watermark"],
        checkpoint_every=knobs["checkpoint_every"],
    )
    with ERSession(
        CONFIG["dataset"],
        systems=tuple(CONFIG["systems"]),
        matcher=CONFIG["matcher"],
        scale=CONFIG["scale"],
        n_increments=CONFIG["n_increments"],
        rate=CONFIG["rate"],
        budget=CONFIG["budget"],
        seed=CONFIG["seed"],
        faults=FaultSpec.chaos(CONFIG["fault_seed"]),
        resilience=resilience,
        engine=EngineOptions(blocking=CONFIG["blocking"]),
    ) as session:
        results = session.compare()
        report = session.fault_reports[0]
    print(report.summary())
    systems: dict[str, dict] = {}
    for name, result in results.items():
        metrics = dict(result.details["metrics"])
        metrics["phases"] = {
            phase: {key: value for key, value in totals.items() if key != "wall_s"}
            for phase, totals in metrics["phases"].items()
        }
        resilience_report = dict(result.details["resilience"])
        resilience_report["quarantined_pairs"] = len(resilience_report["quarantined_pairs"])
        systems[name] = {
            "final_pc": result.final_pc,
            "comparisons_executed": result.comparisons_executed,
            "clock_end": result.clock_end,
            "increments_ingested": result.increments_ingested,
            "work_exhausted": result.work_exhausted,
            "resilience": resilience_report,
            "metrics": metrics,
        }
    return {
        "bench_schema_version": BENCH_SCHEMA_VERSION,
        "config": CONFIG,
        "faults": {
            "dropped": len(report.dropped),
            "duplicated": len(report.duplicated),
            "emptied": len(report.emptied),
            "reordered_swaps": report.reordered_swaps,
            "coalesced_bursts": report.coalesced_bursts,
            "corrupted_profiles": report.corrupted_profiles,
        },
        "systems": systems,
    }


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="benchmarks.chaos",
        description="run the PIER strategies under seeded chaos and check metric-schema drift",
    )
    parser.add_argument(
        "--out", type=Path, default=DEFAULT_BASELINE,
        help="baseline path (default: benchmarks/BENCH_chaos.json)",
    )
    parser.add_argument(
        "--update", action="store_true",
        help="accept schema drift and rewrite the baseline",
    )
    args = parser.parse_args(argv)

    try:
        payload = build_snapshot()
    except Exception:
        traceback.print_exc()
        print("\nchaos run raised — the resilience layer must absorb injected faults")
        return 1

    for name, entry in payload["systems"].items():
        resil = entry["resilience"]
        print(
            f"{name}: PC={entry['final_pc']:.3f} "
            f"comparisons={entry['comparisons_executed']} "
            f"retries={resil['retries']} "
            f"quarantined={resil['quarantined_pairs']} "
            f"shed={resil['shed_increments']} "
            f"checkpoints={resil['checkpoints_taken']}"
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
