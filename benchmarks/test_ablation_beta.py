"""Ablation: the block-ghosting parameter β.

β controls how many of a profile's blocks survive cleaning (keep blocks up
to ``|b_min|/β``): larger β prunes harder.  It is the central
selection-vs-quality knob shared by I-BASE and all PIER strategies — the
paper inherits it from the ICDE 2021 pipeline without sweeping it, so this
ablation quantifies the tradeoff: eventual PC of the per-increment
selection vs the number of comparisons generated.
"""

from __future__ import annotations

from repro.api import ERSession
from repro.core.increments import make_stream_plan, split_into_increments
from repro.datasets.registry import load_dataset
from repro.evaluation.reporting import format_table
from repro.incremental.ibase import IBaseSystem
from repro.pier.base import PierSystem
from repro.pier.ipes import IPES
from repro.streaming.engine import StreamingEngine

from benchmarks.helpers import report, run_once

BETAS = (0.5, 0.3, 0.2, 0.1)
BUDGET = 120.0


def _run_all():
    dataset = load_dataset("movies", scale=0.2)
    increments = split_into_increments(dataset, 60, seed=0)
    plan = make_stream_plan(increments, rate=8.0)
    session = ERSession(dataset, matcher="JS")
    rows = []
    ibase_pc = {}
    ibase_cmp = {}
    for beta in BETAS:
        ibase = IBaseSystem(clean_clean=True, beta=beta)
        result = StreamingEngine(session.build_matcher(), budget=BUDGET).run(
            ibase, plan, dataset.ground_truth
        )
        ibase_pc[beta] = result.final_pc
        ibase_cmp[beta] = result.comparisons_executed
        rows.append(["I-BASE", beta, f"{result.final_pc:.3f}", result.comparisons_executed])

        # For PIER the idle refill masks β's effect on *eventual* quality,
        # so report its early quality instead (selection drives the start).
        pes = PierSystem(IPES(beta=beta), clean_clean=True)
        pes_result = StreamingEngine(session.build_matcher(), budget=BUDGET).run(
            pes, plan, dataset.ground_truth
        )
        rows.append(
            [
                "I-PES",
                beta,
                f"{pes_result.curve.pc_at_time(plan.last_arrival):.3f} (PC@stream-end)",
                pes_result.comparisons_executed,
            ]
        )
    table = format_table(["system", "beta", "final PC / early PC", "comparisons"], rows)
    return table, ibase_pc, ibase_cmp


def test_ablation_beta(benchmark):
    table, ibase_pc, ibase_cmp = run_once(benchmark, _run_all)
    report("ablation_beta", table)
    # Smaller β keeps more blocks → strictly more selected comparisons …
    assert ibase_cmp[0.1] > ibase_cmp[0.5]
    # … and a (weakly) higher eventual PC for the non-refilling baseline.
    assert ibase_pc[0.1] >= ibase_pc[0.5]
