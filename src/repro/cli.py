"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``datasets``
    List the available synthetic benchmark datasets with their statistics.
``run``
    Run one algorithm over one dataset stream and print the PC progress,
    summary, and optionally export the curve as JSON/CSV.
``compare``
    Run several algorithms over the same stream and print the comparison
    tables (a small interactive version of the Figure 7 benchmark).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from repro.api import EngineOptions, ERSession
from repro.datasets.registry import available_datasets, load_dataset
from repro.evaluation.experiments import SYSTEM_NAMES
from repro.evaluation.io import run_result_to_json, write_curve_csv
from repro.evaluation.reporting import format_table, pc_over_time_table, summary_table
from repro.resilience.config import ResilienceConfig

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Progressive Entity Resolution over Incremental Data (EDBT 2023) — reproduction CLI",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("datasets", help="list available datasets")

    def add_stream_arguments(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--dataset", default="dblp_acm", choices=available_datasets())
        sub.add_argument("--scale", type=float, default=1.0, help="dataset size multiplier")
        sub.add_argument(
            "--increments", "--n-increments", dest="n_increments", type=int,
            default=100, metavar="N",
            help="number of increments the dataset is split into (Python "
                 "API name: n_increments); batch baselines "
                 "(PPS/PBS/BATCH/…-PSN) in the static setting (no --rate) "
                 "ignore this and receive the whole dataset as a single "
                 "increment, matching how the paper runs them",
        )
        sub.add_argument(
            "--rate", type=float, default=None,
            help="increment arrival rate in dD/s (omit for the static setting)",
        )
        sub.add_argument("--matcher", default="JS", choices=["JS", "ED"])
        sub.add_argument("--budget", type=float, default=120.0, help="virtual time budget [s]")
        sub.add_argument("--seed", type=int, default=0)
        sub.add_argument(
            "--pipelined", action="store_true",
            help="use the two-stage pipelined engine instead of the serial one",
        )
        sub.add_argument(
            "--checkpoint-every", type=float, default=None, metavar="SECONDS",
            help="checkpoint engine state every SECONDS of virtual time",
        )
        sub.add_argument(
            "--workers", type=int, default=1, metavar="N",
            help="shard matcher evaluation (run) and comparison cells "
                 "(compare) across N worker processes; results are "
                 "bit-identical for every N, also when a worker fails "
                 "(the rest of the run then scores in-process); "
                 "--workers 1 is the serial escape hatch",
        )

    run_parser = subparsers.add_parser("run", help="run one algorithm over a stream")
    run_parser.add_argument("--algorithm", default="I-PES", choices=list(SYSTEM_NAMES))
    add_stream_arguments(run_parser)
    run_parser.add_argument("--json", metavar="PATH", help="write the run result as JSON")
    run_parser.add_argument("--csv", metavar="PATH", help="write the PC curve as CSV")
    run_parser.add_argument(
        "--metrics", metavar="PATH",
        help="write the observability snapshot (counters, phase timers, "
             "per-round gauges) as JSON",
    )

    compare_parser = subparsers.add_parser("compare", help="compare algorithms on one stream")
    compare_parser.add_argument(
        "--algorithms",
        nargs="+",
        default=["I-PES", "I-PCS", "I-PBS", "I-BASE"],
        choices=list(SYSTEM_NAMES),
    )
    add_stream_arguments(compare_parser)

    return parser


def _session(args, systems) -> ERSession:
    """The one place CLI arguments become an :class:`ERSession`."""
    return ERSession(
        args.dataset,
        systems=systems,
        matcher=args.matcher,
        engine=EngineOptions(pipelined=args.pipelined, workers=args.workers),
        scale=args.scale,
        n_increments=args.n_increments,
        rate=args.rate,
        budget=args.budget,
        seed=args.seed,
        # Only a given flag builds a config: ``resilience=None`` keeps
        # ``compare --workers N`` fanning out across processes.
        resilience=(
            None
            if args.checkpoint_every is None
            else ResilienceConfig(checkpoint_every=args.checkpoint_every)
        ),
    )


def _command_datasets() -> int:
    rows = []
    for name in available_datasets():
        dataset = load_dataset(name, scale=1.0)
        description = dataset.describe()
        rows.append(
            [
                name,
                description["kind"],
                description["profiles"],
                description["matches"],
            ]
        )
    print(format_table(["dataset", "kind", "#profiles", "#matches"], rows))
    return 0


def _command_run(args) -> int:
    with _session(args, (args.algorithm,)) as session:
        result = session.run()
    times = [args.budget * f for f in (0.05, 0.1, 0.25, 0.5, 0.75, 1.0)]
    print(pc_over_time_table({args.algorithm: result}, times))
    print()
    print(summary_table({args.algorithm: result}))
    if args.json:
        with open(args.json, "w") as handle:
            handle.write(run_result_to_json(result))
        print(f"\nwrote {args.json}")
    if args.csv:
        write_curve_csv(result, args.csv)
        print(f"wrote {args.csv}")
    if args.metrics:
        snapshot = result.details.get("metrics", {})
        with open(args.metrics, "w") as handle:
            json.dump(snapshot, handle, indent=2)
        print(f"wrote {args.metrics}")
    return 0


def _command_compare(args) -> int:
    with _session(args, tuple(args.algorithms)) as session:
        results = session.compare()
    times = [args.budget * f for f in (0.05, 0.1, 0.25, 0.5, 0.75, 1.0)]
    print(pc_over_time_table(results, times))
    print()
    print(summary_table(results))
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "datasets":
        return _command_datasets()
    if args.command == "run":
        return _command_run(args)
    if args.command == "compare":
        return _command_compare(args)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
