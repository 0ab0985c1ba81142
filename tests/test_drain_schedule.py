"""A drain's horizon is a pause, not a deadline.

``PushRun.drain(until)`` runs the engine loop until the first loop top
whose clock has reached ``until``; only the engine's budget cuts work.  So
over the same fed increments, where the drains fall cannot change a run:

* every system on both engines, fed the whole plan and then drained once
  to the budget, at every arrival, or in fine steps, ends byte-identical —
  duplicates, comparisons, curve, end clock, metrics and the final
  checkpoint (component states compared as pickled bytes);
* a pause is a loop-top cut, like a checkpoint: a crash at a cut early,
  midway or late in the run, resumed from its checkpoint, ends equal to
  the run that was never interrupted, on every system and both engines;
* a tenant that auto-drains to every ingest's arrival (I-PES/ED on a
  Clean-Clean stream) runs every comparison one drain runs, and cuts
  none while the budget is not reached.  When horizons were deadlines the
  same tenant cut the round in flight at each arrival and lost its
  claimed pairs for good.
"""

from __future__ import annotations

import dataclasses
import pickle

import pytest

from repro.api import EngineOptions, ERSession
from repro.core.increments import split_into_increments
from repro.datasets.registry import load_dataset
from repro.evaluation.experiments import SYSTEM_NAMES
from repro.resilience import ResilienceConfig
from repro.service import TenantConfig, TenantSession

from tests.reference.crash import SimulatedCrash, crash_at

BUDGET = 6.0
FINE_STEP = 0.05


def _session(dataset, name, pipelined, resilience=None):
    return ERSession(
        dataset, systems=(name,), matcher="ED", n_increments=10, rate=5.0,
        budget=BUDGET, engine=EngineOptions(pipelined=pipelined), resilience=resilience,
    )


def _fine_steps():
    return [FINE_STEP * step for step in range(1, int(BUDGET / FINE_STEP) + 1)]


def _drained(dataset, name, pipelined, schedule):
    """Feed the whole plan, drain at ``schedule(plan)``'s horizons and then
    to the budget; return the run's observables and final checkpoint."""
    with _session(dataset, name, pipelined) as session:
        plan = session.plan_for(name)
        push = session.push(name)
        push.feed_plan(plan)
        for horizon in schedule(plan):
            push.drain(horizon)
        push.drain(BUDGET)
        checkpoint = push.checkpoint()
        return _observable(push.results()), _checkpoint_bytes(checkpoint)


def _observable(result):
    """Everything a run reports except wall-clock timings."""
    metrics = dict(result.details["metrics"])
    metrics["phases"] = {
        phase: {key: value for key, value in totals.items() if key != "wall_s"}
        for phase, totals in metrics["phases"].items()
    }
    return {
        "duplicates": sorted(result.duplicates),
        "comparisons_executed": result.comparisons_executed,
        "curve": result.curve.points,
        "clock_end": result.clock_end,
        "work_exhausted": result.work_exhausted,
        "increments_ingested": result.increments_ingested,
        "match_events": result.match_events,
        "metrics": metrics,
    }


def _checkpoint_bytes(checkpoint):
    """The checkpoint pickled, with its phase wall times taken out."""
    metrics_state = dict(checkpoint.metrics_state)
    metrics_state["phases"] = {
        name: (virtual_s, count)
        for name, (virtual_s, _wall_s, count) in metrics_state["phases"].items()
    }
    return pickle.dumps(dataclasses.replace(checkpoint, metrics_state=metrics_state))


SCHEDULES = {
    "each-arrival": lambda plan: [at for at in plan.arrival_times if at > 0.0],
    "fine-steps": lambda plan: _fine_steps(),
}


@pytest.mark.parametrize("pipelined", [False, True], ids=["serial", "pipelined"])
@pytest.mark.parametrize("name", SYSTEM_NAMES)
def test_where_drains_fall_changes_nothing(small_dblp_acm, name, pipelined):
    once, once_checkpoint = _drained(small_dblp_acm, name, pipelined, lambda plan: [])
    assert once["comparisons_executed"] > 0
    for schedule in SCHEDULES.values():
        result, checkpoint = _drained(small_dblp_acm, name, pipelined, schedule)
        assert result == once
        assert checkpoint == once_checkpoint


@pytest.mark.parametrize("pipelined", [False, True], ids=["serial", "pipelined"])
@pytest.mark.parametrize("name", SYSTEM_NAMES)
def test_a_crash_at_any_cut_resumes_equal(small_dblp_acm, name, pipelined):
    cadence = ResilienceConfig(checkpoint_every=0.25)
    with _session(small_dblp_acm, name, pipelined, cadence) as session:
        uninterrupted = _observable(session.run())
        for share in (0.2, 0.5, 0.8):
            with crash_at(share * uninterrupted["clock_end"]), pytest.raises(
                SimulatedCrash
            ) as crash:
                session.run()
            assert crash.value.checkpoint is not None, share
            resumed = session.run(resume_from=crash.value.checkpoint)
            assert _observable(resumed) == uninterrupted, share


def test_a_drain_returns_at_the_loop_top_past_its_horizon(small_dblp_acm):
    """The round in flight finishes: the clock may stand past the horizon,
    and nothing was cut there."""
    with _session(small_dblp_acm, "I-PES", pipelined=False) as session:
        push = session.push()
        push.feed_plan(session.plan_for("I-PES"))
        clocks = [push.drain(horizon) for horizon in _fine_steps()[:40]]
        assert any(clock > horizon for clock, horizon in zip(clocks, _fine_steps()))
        assert all(clock >= horizon for clock, horizon in zip(clocks, _fine_steps()))
        assert push.checkpoint().budget == BUDGET
        counters = push.results().details["metrics"]["counters"]
        assert counters["engine.comparisons_cut_by_deadline"] == 0


@pytest.fixture(scope="module")
def stream():
    """The service benchmark's shape: dblp_acm x0.3, 200 ingests 0.05 s apart."""
    dataset = load_dataset("dblp_acm", scale=0.3)
    increments = split_into_increments(dataset, 200, seed=0)
    return dataset, [(0.05 * i, increment.profiles) for i, increment in enumerate(increments)]


def test_a_tenant_drained_at_every_ingest_runs_every_comparison(stream):
    dataset, arrivals = stream
    config = TenantConfig(tenant_id="t", system="I-PES", matcher="ED", kind="clean-clean")
    tenant = TenantSession(config)
    for at, profiles in arrivals:
        tenant.ingest(profiles, at=at)
    tenant.drain(config.budget)
    auto = tenant.results()
    tenant.close()

    with ERSession(
        dataset, systems=("I-PES",), matcher="ED", budget=config.budget
    ) as session:
        push = session.push()
        for at, profiles in arrivals:
            push.ingest(profiles, at=at)
        push.drain(config.budget)
        once = push.results()

    assert once.work_exhausted and once.clock_end < config.budget
    assert auto.work_exhausted and auto.clock_end < config.budget
    assert auto.comparisons_executed == once.comparisons_executed
    assert auto.duplicates == once.duplicates
    for result in (auto, once):
        assert result.details["metrics"]["counters"]["engine.comparisons_cut_by_deadline"] == 0
