"""Chaos benchmark gate: ``python -m benchmarks.chaos``.

Two chaos surfaces, both seeded and bit-reproducible:

**Stream + matcher chaos** — the three PIER strategies (I-PCS, I-PBS,
I-PES) run through a *perturbed* stream — seeded drops, redeliveries,
reorders, bursts, profile corruption — with a
:class:`~repro.resilience.faults.FaultyMatcher` injecting transient
failures and latency spikes, on a serial engine configured with retry,
cost-ceiling quarantine, load shedding, and periodic checkpoints.

**Worker-fleet chaos** — the same engine on a 2-worker matching fleet
whose workers are condemned on an explicit seeded schedule
(:class:`~repro.resilience.faults.WorkerFaultSpec`): SIGKILL mid-round, a
hang past the reply deadline, a corrupt reply.  The supervision layer
(:mod:`repro.parallel.supervision`) must absorb every fault — each
scenario's curve, stripped metrics, and mid-run checkpoint fingerprint
are asserted *bit-identical* to the serial (``workers=1``) reference, and
the fleet must heal back to full configured width afterwards.

The resulting observability snapshots are written to
``benchmarks/BENCH_chaos.json`` (wall-clock fields stripped, so the file is
byte-for-byte reproducible across hosts).

The target *fails* (exit code 1) when

* any strategy raises an uncaught exception under chaos — the resilience
  layer is expected to absorb every injected fault; or
* a worker-fault scenario diverges from the serial reference, leaves the
  fleet short-handed, or fires different supervision counters than its
  schedule implies; or
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
from repro.parallel import strip_parallel_telemetry
from repro.resilience import FaultSpec, ResilienceConfig, RetryPolicy, WorkerFaultSpec

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

#: Worker-fleet chaos scenarios: explicit ``(slot, request ordinal)``
#: schedules (at most one fault per slot, so hand-off arithmetic — and with
#: it every supervision counter below — is fully deterministic).  The
#: ``expect`` counters are the schedule spelled out: the gate fails if the
#: run's supervision telemetry differs.
WORKER_FAULT_CONFIG = {
    "dataset": "dblp_acm",
    "scale": 0.2,
    "n_increments": 12,
    "rate": 5.0,
    "matcher": "ED",
    "budget": 10.0,
    "seed": 0,
    "system": "I-PES",
    "workers": 2,
    "checkpoint_every": 2.0,
    "reply_timeout_s": 1.0,
    "min_shard": 1,
    # A slot gets one request per *hand-off* (emission rounds are buffered;
    # this run scores ~2k pairs, fewer than one full hand-off, so its
    # hand-offs are the joins: one before each cadence checkpoint, one at
    # the end of the drain — five here).  Every fault fires at ordinal 2,
    # the join before the second checkpoint — before any eviction can
    # change the request distribution — so each scenario's supervision
    # counters are identical on every host.
    "scenarios": {
        "kill": {
            "spec": {"kill_on": [[0, 2], [1, 2]]},
            "expect": {"evictions": 2, "reassigned_chunks": 2, "reply_timeouts": 0},
        },
        "hang": {
            "spec": {"hang_on": [[1, 2]], "hang_s": 30.0},
            "expect": {"evictions": 1, "reassigned_chunks": 1, "reply_timeouts": 1},
        },
        "corrupt": {
            "spec": {"corrupt_on": [[0, 2], [1, 2]]},
            "expect": {"evictions": 2, "reassigned_chunks": 2, "reply_timeouts": 0},
        },
    },
}


def _comparable_surface(result) -> dict:
    """Everything observable about a run except wall clocks and the
    parallel telemetry (the documented worker-count divergence surface)."""
    metrics = strip_parallel_telemetry(result.details["metrics"])
    metrics["phases"] = {
        phase: {key: value for key, value in totals.items() if key != "wall_s"}
        for phase, totals in metrics["phases"].items()
    }
    return {
        "curve": result.curve.points,
        "duplicates": result.duplicates,
        "comparisons_executed": result.comparisons_executed,
        "clock_end": result.clock_end,
        "match_events": result.match_events,
        "metrics": metrics,
    }


def _checkpoint_fingerprint(checkpoint):
    """The deterministic portion of a mid-run checkpoint (wall clocks go);
    ``metrics_state`` is compared without stripping — supervision telemetry
    must never leak into a checkpoint."""
    if checkpoint is None:
        return None
    metrics_state = dict(checkpoint.metrics_state)
    metrics_state["phases"] = {
        phase: (virtual_s, count)
        for phase, (virtual_s, _wall_s, count) in metrics_state["phases"].items()
    }
    return (
        checkpoint.engine,
        checkpoint.clock,
        checkpoint.rounds,
        checkpoint.ingested,
        checkpoint.duplicates,
        checkpoint.recorder_state,
        checkpoint.estimator_state,
        metrics_state,
    )


def _worker_chaos_session(worker_faults: WorkerFaultSpec | None, workers: int) -> ERSession:
    config = WORKER_FAULT_CONFIG
    return ERSession(
        config["dataset"],
        systems=(config["system"],),
        matcher=config["matcher"],
        scale=config["scale"],
        n_increments=config["n_increments"],
        rate=config["rate"],
        budget=config["budget"],
        seed=config["seed"],
        checkpoint_every=config["checkpoint_every"],
        worker_faults=worker_faults,
        engine=EngineOptions(
            workers=workers,
            reply_timeout_s=config["reply_timeout_s"],
            min_shard=config["min_shard"],
        ),
    )


def build_worker_faults_section() -> dict:
    """Run every worker-fault scenario against the serial reference.

    Raises when any scenario breaks the supervision invariant — results
    and checkpoint fingerprints must be bit-identical to ``workers=1``
    under every fault schedule, with the fleet healed to full width.
    """
    config = WORKER_FAULT_CONFIG
    with _worker_chaos_session(None, workers=1) as session:
        reference = session.run()
        reference_fingerprint = _checkpoint_fingerprint(session.last_checkpoint)
    reference_surface = _comparable_surface(reference)

    scenarios: dict[str, dict] = {}
    for name, scenario in config["scenarios"].items():
        raw = scenario["spec"]
        spec = WorkerFaultSpec(
            kill_on=tuple(map(tuple, raw.get("kill_on", ()))),
            hang_on=tuple(map(tuple, raw.get("hang_on", ()))),
            corrupt_on=tuple(map(tuple, raw.get("corrupt_on", ()))),
            hang_s=raw.get("hang_s", 30.0),
        )
        with _worker_chaos_session(spec, workers=config["workers"]) as session:
            result = session.run()
            fingerprint = _checkpoint_fingerprint(session.last_checkpoint)
            pool = session._pool
            if pool is None:
                raise RuntimeError(
                    "worker pool unavailable: the worker-fault scenarios "
                    "need a live fleet to condemn"
                )
            recovered = pool.heal() == pool.size
        counters = result.details["metrics"]["counters"]
        observed = {
            "evictions": counters["parallel.supervision.evictions"],
            "reassigned_chunks": counters["parallel.supervision.reassigned_chunks"],
            "reply_timeouts": counters["parallel.supervision.reply_timeouts"],
        }
        results_identical = _comparable_surface(result) == reference_surface
        checkpoint_identical = fingerprint == reference_fingerprint
        if not results_identical:
            raise AssertionError(
                f"worker-fault scenario {name!r} changed the result surface "
                "— supervision must change where pairs are scored, never what"
            )
        if not checkpoint_identical:
            raise AssertionError(
                f"worker-fault scenario {name!r} changed the mid-run "
                "checkpoint fingerprint"
            )
        if not recovered:
            raise AssertionError(
                f"worker-fault scenario {name!r} left the fleet short-handed"
            )
        if observed != scenario["expect"]:
            raise AssertionError(
                f"worker-fault scenario {name!r} supervision counters "
                f"{observed} != scheduled {scenario['expect']}"
            )
        scenarios[name] = {
            "schedule": raw,
            "supervision": observed,
            "results_identical": results_identical,
            "checkpoint_identical": checkpoint_identical,
            "fleet_recovered": recovered,
        }
    return {
        "config": {key: value for key, value in config.items() if key != "scenarios"},
        "scenarios": scenarios,
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
        "worker_faults": build_worker_faults_section(),
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
    for name, entry in payload["worker_faults"]["scenarios"].items():
        supervision = entry["supervision"]
        print(
            f"worker-faults/{name}: evictions={supervision['evictions']} "
            f"rescued={supervision['reassigned_chunks']} "
            f"reply_timeouts={supervision['reply_timeouts']} "
            f"bit_identical={entry['results_identical'] and entry['checkpoint_identical']} "
            f"fleet_recovered={entry['fleet_recovered']}"
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
