"""The entry point ``BENCHMARK.json`` names: one workload, one result line.

    python3 benchmarks/ledger/run.py --workload W --seed N --seconds S --trace 0|1

Runs fresh children of the workload for ``S`` seconds — with ``--trace 0`` at
least one on each of three datasets derived from the seed, so set-up time is
a median and no number hangs on one draw of the generator — checks their
outputs, and prints as the last line of stdout one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` — every end-to-end metric with
``--trace 0``, every per-layer metric with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
#: Datasets one invocation measures.  Across seeds the data moves the
#: numbers more than the host does (comparisons to exhaustion differ by
#: ~8 %, ``cmp_to_pc90`` on ``blocks_js`` by ~11 %); the mean over three
#: datasets brings that under a third of every bound.
DATASETS_PER_RUN = 3


def measure(workload_name: str, seed: int, seconds: float, trace: bool, tiny: bool) -> dict:
    from benchmarks.ledger import harness, spec

    workload = spec.WORKLOADS[workload_name]
    seeds = [seed * DATASETS_PER_RUN + index for index in range(DATASETS_PER_RUN)]
    if trace:
        # Layer numbers carry no bound, and a traced child costs twice a
        # plain one (it replays its inputs through the sub-layers).
        seeds = seeds[:1]
    # A workload that must agree with another one gets that one run beside
    # it on the first dataset (traced when its layer numbers are the base
    # of a ratio).
    reference = (
        [harness.spawn(workload.same_output_as, seeds[0], trace=trace, tiny=tiny)]
        if workload.same_output_as
        else []
    )
    # Tracing overhead is a traced wall against an untraced one: a traced
    # invocation pays for one plain child on its first dataset.
    untraced = [harness.spawn(workload.name, seeds[0], tiny=tiny)] if trace else []
    # Children cycle through the datasets, one at a time, until the time is
    # up: a dataset met again must reproduce its first run exactly.
    began = time.monotonic()
    runs: list[dict] = []
    while len(runs) < len(seeds) or time.monotonic() - began < seconds:
        runs.append(
            harness.spawn(
                workload.name, seeds[len(runs) % len(seeds)], trace=trace, tiny=tiny,
                # The in-process replay check of the socket workload is paid
                # once per invocation.
                verify_replay=workload.is_service and not runs,
            )
        )
    if trace:
        table = harness.per_layer(runs, reference, untraced)
        # Three end-to-end metrics ride in per_layer (see README).
        for name in spec.LISTED_PER_LAYER:
            values = [run[name] for run in runs if run.get(name) is not None]
            table[name] = {"value": statistics.median(values) if values else None}
        names = spec.contract()["per_layer"]
    else:
        table = harness.end_to_end(workload.name, runs)
        names = spec.contract()["end_to_end"]
    runs += untraced
    checks = harness.verify(runs, reference)
    metrics = {}
    for metric in names:
        value = table.get(metric["name"], {}).get("value")
        # The driver wants a number for every metric on every workload; a
        # layer that does not run on this one reads 0.
        metrics[metric["name"]] = {
            "value": 0.0 if value is None else value, "unit": metric["unit"]
        }
    return {
        "correct": all(checks.values()),
        "attempted": sum(run["attempted"] for run in runs),
        "failed": sum(run["failed"] for run in runs),
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python3 benchmarks/ledger/run.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test input sizes")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT))
    from benchmarks.ledger import harness, spec

    if args.workload not in spec.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(spec.WORKLOADS)}",
              file=sys.stderr)
        return 2
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    except harness.ChildFailed as failure:
        print(f"benchmark run failed: {failure}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
