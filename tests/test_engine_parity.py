"""Engine/kernel parity tests over the shared execution core.

Three guarantees introduced by the unified execution core are pinned here,
for all four incremental strategies on both engines:

* **kernel parity** — a run with the batched matcher kernel is bit-identical
  to one whose rounds run through the pair-at-a-time oracle
  (``tests/reference/scalar_execution.py``): same progress curve,
  duplicates, clocks, counters and gauges — for ED, JS, and ED under a cost
  ceiling that quarantines pairs while the deadline cuts rounds;
* **schema parity** — serial and pipelined runs export the *same* metric
  schema (counter/gauge/phase name sets) on healthy runs, because the core
  preseeds the union surface for both;
* **checkpoint parity** — the checkpoint a run takes at a given cadence has
  the same fingerprint whichever of the two executed it, so resumes can
  freely cross between the oracle and the kernel.
"""

from __future__ import annotations

import pytest

from repro.core.increments import make_stream_plan, split_into_increments
from repro.resilience import ResilienceConfig, SimulatedCrash
from repro.streaming.engine import StreamingEngine
from repro.streaming.pipelined import PipelinedStreamingEngine

from tests.conftest import build_matcher, build_system
from tests.reference.scalar_execution import ScalarPipelinedEngine, ScalarStreamingEngine

STRATEGIES = ["I-PCS", "I-PBS", "I-PES", "I-BASE"]
ENGINES = {"serial": StreamingEngine, "pipelined": PipelinedStreamingEngine}
#: Each engine's twin whose rounds run through the pair-at-a-time oracle.
ORACLES = {StreamingEngine: ScalarStreamingEngine, PipelinedStreamingEngine: ScalarPipelinedEngine}
BUDGET = 8.0


@pytest.fixture(scope="module")
def dataset(small_dblp_acm):
    return small_dblp_acm


@pytest.fixture(scope="module")
def plan(small_dblp_acm):
    increments = split_into_increments(small_dblp_acm, 8, seed=0)
    return make_stream_plan(increments, rate=5.0)


#: Kernel-parity cases: ``(matcher, budget, cost ceiling)``.  At 1.47 s JS
#: is cut mid-round on every PIER strategy; ED under a 6 ms ceiling has
#: pairs quarantined on every strategy and rounds cut on the PIER ones
#: (I-BASE runs out of work first).
KERNEL_CASES = {
    "ED": ("ED", BUDGET, None),
    "JS": ("JS", 1.47, None),
    "ED-ceiling": ("ED", BUDGET, 0.006),
}


def _engine(engine_cls, batch_matching):
    return engine_cls if batch_matching else ORACLES[engine_cls]


def _run(
    engine_cls, dataset, plan, strategy, batch_matching, matcher_name="ED", budget=BUDGET,
    **kwargs,
):
    engine = _engine(engine_cls, batch_matching)(
        build_matcher(matcher_name), budget=budget, **kwargs
    )
    return engine.run(build_system(strategy, dataset), plan, dataset.ground_truth)


def _comparable(result):
    """Everything observable about a run except wall-clock timings."""
    metrics = dict(result.details["metrics"])
    metrics["phases"] = {
        phase: {key: value for key, value in totals.items() if key != "wall_s"}
        for phase, totals in metrics["phases"].items()
    }
    return {
        "curve": result.curve.points,
        "duplicates": result.duplicates,
        "comparisons_executed": result.comparisons_executed,
        "clock_end": result.clock_end,
        "stream_consumed_at": result.stream_consumed_at,
        "work_exhausted": result.work_exhausted,
        "increments_ingested": result.increments_ingested,
        "match_events": result.match_events,
        "metrics": metrics,
    }


@pytest.mark.parametrize("engine_name", list(ENGINES))
@pytest.mark.parametrize(
    "strategy, case",
    [
        # The ED cases keep the bare strategy as their id.
        pytest.param(strategy, case, id=strategy if case == "ED" else f"{strategy}-{case}")
        for case in KERNEL_CASES
        for strategy in STRATEGIES
    ],
)
def test_batched_kernel_bit_identical(dataset, plan, strategy, case, engine_name):
    engine_cls = ENGINES[engine_name]
    matcher_name, budget, ceiling = KERNEL_CASES[case]
    options = dict(matcher_name=matcher_name, budget=budget)
    if ceiling is not None:
        options["resilience"] = ResilienceConfig(cost_ceiling=ceiling)
    batched = _run(engine_cls, dataset, plan, strategy, batch_matching=True, **options)
    scalar = _run(engine_cls, dataset, plan, strategy, batch_matching=False, **options)
    assert _comparable(batched) == _comparable(scalar)
    # The case reaches the branches it is here for.
    counters = batched.details["metrics"]["counters"]
    if ceiling is not None:
        assert counters["engine.quarantined_pairs"] > 0
    if case != "ED" and strategy != "I-BASE":
        assert counters["engine.comparisons_cut_by_deadline"] > 0


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_metric_schema_parity_across_engines(dataset, plan, strategy):
    serial = _run(StreamingEngine, dataset, plan, strategy, batch_matching=True)
    pipelined = _run(PipelinedStreamingEngine, dataset, plan, strategy, batch_matching=True)
    serial_metrics = serial.details["metrics"]
    pipelined_metrics = pipelined.details["metrics"]
    assert set(serial_metrics["counters"]) == set(pipelined_metrics["counters"])
    assert set(serial_metrics["gauges"]) == set(pipelined_metrics["gauges"])
    assert set(serial_metrics["phases"]) == set(pipelined_metrics["phases"])


def _virtual_metrics_state(metrics_state):
    """Checkpoint metrics with host wall-clock fields removed.

    The phase dump is ``(virtual_s, wall_s, count)`` per phase; only the
    virtual components are deterministic across runs.
    """
    state = dict(metrics_state)
    state["phases"] = {
        name: (virtual_s, count)
        for name, (virtual_s, _wall_s, count) in state["phases"].items()
    }
    return state


def _checkpoint_fingerprint(checkpoint):
    """The deterministic, directly comparable portion of a checkpoint."""
    return (
        checkpoint.engine,
        checkpoint.budget,
        checkpoint.plan_fingerprint,
        checkpoint.clock,
        checkpoint.ingest_clock,
        checkpoint.next_arrival,
        checkpoint.consumed_at,
        checkpoint.rounds,
        checkpoint.ingested,
        checkpoint.shed,
        checkpoint.duplicates_dropped,
        checkpoint.seen_increments,
        checkpoint.duplicates,
        checkpoint.quarantined,
        checkpoint.recorder_state,
        checkpoint.estimator_state,
        _virtual_metrics_state(checkpoint.metrics_state),
    )


def _crash_checkpoint(engine_cls, dataset, plan, strategy, batch_matching):
    engine = _engine(engine_cls, batch_matching)(
        build_matcher("ED"),
        budget=BUDGET,
        resilience=ResilienceConfig(checkpoint_every=1.0, crash_at=4.0),
    )
    with pytest.raises(SimulatedCrash) as exc:
        engine.run(build_system(strategy, dataset), plan, dataset.ground_truth)
    assert exc.value.checkpoint is not None
    return exc.value.checkpoint


@pytest.mark.parametrize("engine_name", list(ENGINES))
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_checkpoint_fingerprint_parity(dataset, plan, strategy, engine_name):
    engine_cls = ENGINES[engine_name]
    batched = _crash_checkpoint(engine_cls, dataset, plan, strategy, batch_matching=True)
    scalar = _crash_checkpoint(engine_cls, dataset, plan, strategy, batch_matching=False)
    assert _checkpoint_fingerprint(batched) == _checkpoint_fingerprint(scalar)


@pytest.mark.parametrize("engine_name", list(ENGINES))
def test_resume_crosses_kernels(dataset, plan, engine_name):
    """A checkpoint taken on the oracle resumes bit-identically on the
    batched kernel — the two share one execution semantics."""
    engine_cls = ENGINES[engine_name]
    checkpoint = _crash_checkpoint(engine_cls, dataset, plan, "I-PES", batch_matching=False)
    resumed = engine_cls(
        build_matcher("ED"), budget=BUDGET, resilience=ResilienceConfig(checkpoint_every=1.0)
    ).run(build_system("I-PES", dataset), plan, dataset.ground_truth, resume_from=checkpoint)
    uninterrupted = _run(engine_cls, dataset, plan, "I-PES", batch_matching=True)
    assert resumed.duplicates == uninterrupted.duplicates
    assert resumed.clock_end == uninterrupted.clock_end
    assert resumed.final_pc == uninterrupted.final_pc
    # The curve tails beyond the recovery point coincide.
    recovered_tail = [p for p in resumed.curve.points if p.time > checkpoint.clock]
    reference_tail = [p for p in uninterrupted.curve.points if p.time > checkpoint.clock]
    assert recovered_tail == reference_tail
