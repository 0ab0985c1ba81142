"""One timed run of one workload, in a process of its own.

``python -m benchmarks.ledger.run_one <workload> --seed N`` generates the
inputs from the seed, sets the program up, runs it to work exhaustion and
prints one JSON object (the last line of stdout) with the run's end-to-end
numbers, its output fingerprint and its correctness checks.  ``--trace``
adds the per-layer numbers and writes the span file; ``--verify-replay``
adds the in-process replay check of the socket workload.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from time import perf_counter

from benchmarks.ledger import measure, spec, workloads
from benchmarks.ledger.stats import REFERENCE_CALIBRATION_S


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.ledger.run_one")
    parser.add_argument("workload", choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--tiny", action="store_true", help="smoke-test input sizes")
    parser.add_argument("--verify-replay", action="store_true")
    parser.add_argument(
        "--spawned-at", type=float, default=None,
        help="the parent's time.time() just before it started this process",
    )
    args = parser.parse_args(argv)
    spawned_at = args.spawned_at if args.spawned_at is not None else time.time()
    workload = spec.WORKLOADS[args.workload]

    started = perf_counter()
    dataset = workloads.make_dataset(workload, args.seed, args.tiny)
    generate_s = perf_counter() - started
    if workload.is_service:
        record = measure.service_record(
            workload, dataset, args.seed, args.tiny, args.trace, args.verify_replay
        )
    else:
        record = measure.session_record(workload, dataset, args.trace)
    record["setup_s"] = record.pop("ready_at") - spawned_at
    record["workload"] = workload.name
    record["seed"] = args.seed
    if args.trace:
        record["layers"]["datasets.generate_s"] = generate_s
        record["layers"]["host.calibration_s"] = REFERENCE_CALIBRATION_S / record["host_speed"]
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
