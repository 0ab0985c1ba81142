"""Shared utilities for the figure/table reproduction benchmarks.

Every benchmark in this directory reproduces one artifact of the paper's
evaluation section (Table 1, Figures 1-2 and 4-8).  The pattern is:

* the experiment runs once inside ``benchmark.pedantic`` (so
  ``pytest benchmarks/ --benchmark-only`` also reports its wall time);
* the reproduced series/table is printed and appended to
  ``benchmarks/results/<name>.txt`` so the output survives pytest's
  capture and can be pasted into EXPERIMENTS.md.
"""

from __future__ import annotations

from pathlib import Path

from repro.api import ERSession

RESULTS_DIR = Path(__file__).parent / "results"


def report(name: str, text: str) -> None:
    """Print a reproduction artifact and persist it under results/."""
    banner = f"\n===== {name} =====\n"
    print(banner + text)
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(banner.lstrip("\n") + text + "\n")


def compare(config):
    """Run every system of an ``ExperimentConfig``; results keyed by name."""
    with ERSession.from_config(config) as session:
        return session.compare()


def run_once(benchmark, func):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(func, rounds=1, iterations=1, warmup_rounds=0)
