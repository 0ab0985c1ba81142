"""Extension: irregular (Poisson) arrivals and pipelined execution.

The paper's problem statement allows increments "at a possibly varying
rate"; its deployment is task parallel.  This benchmark checks both
extensions: PIER's adaptivity carries over from fixed-rate to Poisson
arrivals of the same mean rate, and the two-stage pipelined engine consumes
the stream no later than the serial engine.
"""

from __future__ import annotations

from repro.api import ERSession
from repro.core.increments import (
    make_poisson_stream_plan,
    make_stream_plan,
    split_into_increments,
)
from repro.datasets.registry import load_dataset
from repro.evaluation.reporting import summary_table
from repro.streaming.engine import StreamingEngine
from repro.streaming.pipelined import PipelinedStreamingEngine

from benchmarks.helpers import report, run_once

BUDGET = 60.0
RATE = 16.0


def _run_all():
    dataset = load_dataset("dbpedia", scale=0.3)
    increments = split_into_increments(dataset, 120, seed=0)
    fixed_plan = make_stream_plan(increments, rate=RATE)
    poisson_plan = make_poisson_stream_plan(increments, rate=RATE, seed=5)
    session = ERSession(dataset, systems=("I-PES",), matcher="ED")
    results = {}
    for label, plan, engine_factory in (
        ("fixed/serial", fixed_plan, StreamingEngine),
        ("poisson/serial", poisson_plan, StreamingEngine),
        ("poisson/pipelined", poisson_plan, PipelinedStreamingEngine),
    ):
        engine = engine_factory(session.build_matcher(), budget=BUDGET)
        results[label] = engine.run(
            session.build_system("I-PES"), plan, dataset.ground_truth
        )
    return results


def test_extension_varying_rate_and_pipelining(benchmark):
    results = run_once(benchmark, _run_all)
    report("extension_varying_rate", summary_table(results))

    fixed = results["fixed/serial"]
    poisson = results["poisson/serial"]
    pipelined = results["poisson/pipelined"]

    # Adaptivity carries over: similar quality under irregular arrivals.
    assert abs(poisson.final_pc - fixed.final_pc) < 0.2
    # The pipelined engine never consumes the stream later than the serial
    # engine, and never loses quality.
    assert pipelined.stream_consumed_at is not None
    if poisson.stream_consumed_at is not None:
        assert pipelined.stream_consumed_at <= poisson.stream_consumed_at + 1e-9
    assert pipelined.curve.area_under_curve(BUDGET) >= poisson.curve.area_under_curve(
        BUDGET
    ) - 0.05
