"""Ablation: the adaptive ``findK`` budget vs fixed emission budgets.

Algorithm 1 chooses K dynamically from the measured input/service rates.
This ablation pins K to fixed values and compares early quality on a fast
stream with the expensive matcher — the regime where adaptivity matters
(too-large K delays ingestion, too-small K wastes idle capacity).
"""

from __future__ import annotations

from repro.api import ERSession
from repro.core.increments import make_stream_plan, split_into_increments
from repro.datasets.registry import load_dataset
from repro.evaluation.reporting import format_table
from repro.pier.base import PierSystem
from repro.pier.ipes import IPES
from repro.priority.rates import AdaptiveK
from repro.streaming.engine import StreamingEngine

from benchmarks.helpers import report, run_once

BUDGET = 90.0


def _controller(kind: str) -> AdaptiveK:
    if kind == "adaptive":
        return AdaptiveK()
    fixed = int(kind)
    return AdaptiveK(initial=fixed, minimum=fixed, maximum=fixed)


def _run_all():
    dataset = load_dataset("dbpedia", scale=0.3)
    increments = split_into_increments(dataset, 300, seed=0)
    plan = make_stream_plan(increments, rate=32.0)
    session = ERSession(dataset, matcher="ED")
    rows = []
    aucs = {}
    for kind in ("adaptive", "4", "64", "1024", "16384"):
        system = PierSystem(IPES(), clean_clean=True, adaptive_k=_controller(kind))
        engine = StreamingEngine(session.build_matcher(), budget=BUDGET)
        result = engine.run(system, plan, dataset.ground_truth)
        auc = result.curve.area_under_curve(BUDGET)
        aucs[kind] = auc
        rows.append(
            [
                f"K={kind}",
                f"{auc:.3f}",
                f"{result.final_pc:.3f}",
                result.comparisons_executed,
                f"{result.stream_consumed_at:.1f}s"
                if result.stream_consumed_at is not None
                else "never",
            ]
        )
    table = format_table(
        ["budget policy", "early AUC", "final PC", "comparisons", "stream consumed"],
        rows,
    )
    return table, aucs


def test_ablation_adaptive_k(benchmark):
    table, aucs = run_once(benchmark, _run_all)
    report("ablation_adaptive_k", table)
    # The adaptive controller must be competitive with the best fixed K
    # (which is unknown a priori) ...
    best_fixed = max(value for kind, value in aucs.items() if kind != "adaptive")
    assert aucs["adaptive"] >= best_fixed - 0.1
    # ... and clearly beat at least one badly chosen fixed K.
    worst_fixed = min(value for kind, value in aucs.items() if kind != "adaptive")
    assert aucs["adaptive"] > worst_fixed
