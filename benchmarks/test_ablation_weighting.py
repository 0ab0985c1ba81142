"""Ablation: weighting schemes inside the PIER strategies.

The paper uses CBS everywhere ("the fastest to compute") and names the
choice of weighting scheme as the main sensitivity of I-PCS — with I-PES
"compensating poor performance of weighting schemes".  Its future work asks
for "a heuristic for determining the best appropriate method".  This
ablation quantifies the sensitivity: I-PCS and I-PES under CBS, ECBS, JS
and ARCS on the heterogeneous dbpedia analogue.
"""

from __future__ import annotations

import pytest

from repro.api import ERSession
from repro.core.increments import make_stream_plan, split_into_increments
from repro.datasets.registry import load_dataset
from repro.evaluation.reporting import format_table
from repro.metablocking.weights import make_scheme
from repro.pier.base import PierSystem
from repro.pier.ipcs import IPCS
from repro.pier.ipes import IPES
from repro.streaming.engine import StreamingEngine

from benchmarks.helpers import report, run_once

SCHEMES = ("cbs", "ecbs", "js", "arcs")
BUDGET = 90.0


def _run_all():
    dataset = load_dataset("dbpedia", scale=0.25)
    increments = split_into_increments(dataset, 100, seed=0)
    plan = make_stream_plan(increments, rate=None)
    session = ERSession(dataset, matcher="ED")
    rows = []
    spread = {}
    for strategy_name, factory in (("I-PCS", IPCS), ("I-PES", IPES)):
        aucs = []
        for scheme_name in SCHEMES:
            system = PierSystem(
                factory(scheme=make_scheme(scheme_name)), clean_clean=True
            )
            engine = StreamingEngine(session.build_matcher(), budget=BUDGET)
            result = engine.run(system, plan, dataset.ground_truth)
            auc = result.curve.area_under_curve(BUDGET)
            aucs.append(auc)
            rows.append(
                [strategy_name, scheme_name.upper(), f"{auc:.3f}", f"{result.final_pc:.3f}"]
            )
        spread[strategy_name] = max(aucs) - min(aucs)
    table = format_table(["strategy", "scheme", "early AUC", "final PC"], rows)
    return table, spread


def test_ablation_weighting_schemes(benchmark):
    table, spread = run_once(benchmark, _run_all)
    text = table + (
        f"\n\nAUC spread across schemes:  I-PCS={spread['I-PCS']:.3f}"
        f"  I-PES={spread['I-PES']:.3f}"
    )
    report("ablation_weighting", text)
    # I-PES is designed to be less sensitive to the weighting scheme than
    # the purely comparison-centric I-PCS.
    assert spread["I-PES"] <= spread["I-PCS"] + 0.05
