"""Tests for the push-mode run surface (``PushRun``, opened by ``ERSession.push``).

Push mode is the API redesign behind the service: ``run()`` is now the
degenerate push schedule (feed the whole plan, drain once to the budget,
collect results), so the engine-parity suites already exercise the path on
every run.  Pinned here, beyond that by-construction guarantee:

* feeding increments one by one equals feeding a prepared plan;
* a multi-drain schedule is deterministic (same schedule, same results,
  same checkpoint fingerprints) across independent runs;
* feed/drain argument validation (regressing arrivals, non-finite times,
  non-monotonic horizons);
* ``results()`` is terminal — further feeds and drains raise;
* checkpoint/resume across push runs, including the migration shape
  (explicit ``start()`` binding the restore to the re-fed arrivals);
* ``session.push()`` is the engine's ``PushRun`` itself, and its
  ``ingest`` numbers increments after every index fed so far, ``feed``
  included.
"""

from __future__ import annotations

import math

import pytest

from repro.api import EngineOptions, ERSession
from repro.core.profile import EntityProfile
from repro.matching.matcher import JaccardMatcher
from repro.streaming.engine import StreamingEngine

BUDGET = 8.0


@pytest.fixture(scope="module")
def dataset(small_dblp_acm):
    return small_dblp_acm


def _session(dataset, **kwargs):
    defaults = dict(
        systems=("I-PES",),
        matcher="JS",
        n_increments=8,
        rate=5.0,
        budget=BUDGET,
    )
    defaults.update(kwargs)
    return ERSession(dataset, **defaults)


def _comparable(result):
    metrics = dict(result.details["metrics"])
    metrics["phases"] = {
        phase: {key: value for key, value in totals.items() if key != "wall_s"}
        for phase, totals in metrics["phases"].items()
    }
    metrics.pop("rounds", None)
    return {
        "curve": result.curve.points,
        "duplicates": result.duplicates,
        "comparisons_executed": result.comparisons_executed,
        "clock_end": result.clock_end,
        "work_exhausted": result.work_exhausted,
        "increments_ingested": result.increments_ingested,
        "match_events": result.match_events,
        "metrics": metrics,
    }


def _checkpoint_fingerprint(checkpoint):
    state = dict(checkpoint.metrics_state)
    state["phases"] = {
        name: (virtual_s, count)
        for name, (virtual_s, _wall_s, count) in state["phases"].items()
    }
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
        checkpoint.recorder_state,
        checkpoint.estimator_state,
        state,
    )


# ----------------------------------------------------------------------
# Parity with the classic run
# ----------------------------------------------------------------------
@pytest.mark.parametrize("pipelined", [False, True], ids=["serial", "pipelined"])
def test_manual_push_equals_run(dataset, pipelined):
    with _session(dataset, engine=EngineOptions(pipelined=pipelined)) as session:
        classic = session.run()
    with _session(dataset, engine=EngineOptions(pipelined=pipelined)) as session:
        push = session.push()
        push.feed_plan(session.plan_for("I-PES"))
        push.drain(BUDGET)
        pushed = push.results()
    assert _comparable(pushed) == _comparable(classic)


def test_feeding_one_by_one_equals_feeding_a_plan(dataset):
    with _session(dataset) as session:
        plan = session.plan_for("I-PES")
        whole = session.push()
        whole.feed_plan(plan)
        whole.drain(BUDGET)
        piecewise = session.push()
        for at, increment in plan:
            piecewise.feed(increment, at=at)
        piecewise.drain(BUDGET)
        assert _comparable(piecewise.results()) == _comparable(whole.results())


def test_multi_drain_schedule_is_deterministic(dataset):
    def run_schedule():
        with _session(dataset) as session:
            push = session.push()
            push.feed_plan(session.plan_for("I-PES"))
            for horizon in (2.0, 5.0, BUDGET):
                push.drain(horizon)
                assert push.horizon == horizon
            fingerprint = _checkpoint_fingerprint(push.checkpoint())
            return _comparable(push.results()), fingerprint

    first, first_ckpt = run_schedule()
    second, second_ckpt = run_schedule()
    assert first == second
    assert first_ckpt == second_ckpt


def test_progressive_observation_between_drains(dataset):
    with _session(dataset) as session:
        push = session.push()
        assert not push.started
        push.feed_plan(session.plan_for("I-PES"))
        backlog_before = push.backlog
        assert backlog_before == 8
        push.drain(BUDGET / 2)
        assert push.started
        assert push.clock <= BUDGET / 2
        mid_matches = len(push.matches)
        mid_comparisons = push.comparisons_executed
        push.drain(BUDGET)
        result = push.results()
        assert push.comparisons_executed >= mid_comparisons
        assert len(result.duplicates) >= mid_matches


# ----------------------------------------------------------------------
# Ingestion of raw profiles
# ----------------------------------------------------------------------
def test_ingest_wraps_profiles_into_numbered_increments(dataset):
    profiles = list(dataset.profiles[:9])
    with ERSession(
        type(dataset)("push_toy", profiles, dataset.ground_truth, dataset.kind),
        systems=("I-PES",),
        matcher="JS",
        budget=BUDGET,
    ) as session:
        push = session.push()
        push.ingest(profiles[:3], at=0.0)
        push.ingest(profiles[3:6], at=0.5)
        push.ingest(profiles[6:], at=1.0)
        assert push.increments_fed == 3
        push.drain(BUDGET)
        result = push.results()
        assert result.increments_ingested == 3


def test_ingest_default_arrival_is_now(dataset):
    with _session(dataset) as session:
        push = session.push()
        assert push.ingest(dataset.profiles[:2]) == 0.0
        push.drain(1.5)
        # "Now" is the later of the clock and the last arrival.
        assert push.ingest(dataset.profiles[2:4]) == pytest.approx(push.clock)


def test_feeding_a_started_run_does_not_slow_down(dataset, monkeypatch):
    """``feed`` once refreshed the plan fingerprint — O(plan) — on every
    call into a started run: O(n²) over a tenant's life.  5k feeds must not
    compute it once; the checkpoint, where it is read, computes it exactly
    once and still sees every one of them."""
    import sys

    from repro.core.increments import Increment
    from repro.resilience.checkpoint import plan_token

    computed = []

    def counting_plan_token(plan):
        computed.append(len(plan))
        return plan_token(plan)

    # Wherever the product imported the function to, not only where it is today.
    for name, module in list(sys.modules.items()):
        if name.startswith("repro.") and getattr(module, "plan_token", None) is plan_token:
            monkeypatch.setattr(module, "plan_token", counting_plan_token)

    with _session(dataset) as session:
        push = session.push()
        push.ingest(dataset.profiles[:2], at=0.0)
        push.drain(0.5)
        assert push.started
        for index in range(1, 5001):
            push.feed(Increment(index=index, profiles=()), at=1.0)
        assert computed == []
        assert push.increments_fed == 5001
        assert push.checkpoint().plan_fingerprint == plan_token(push.plan)
        assert computed == [5001]


# ----------------------------------------------------------------------
# Validation
# ----------------------------------------------------------------------
def test_feed_rejects_regressing_and_non_finite_arrivals(dataset):
    with _session(dataset) as session:
        push = session.push()
        push.ingest(dataset.profiles[:2], at=2.0)
        with pytest.raises(ValueError, match="non-decreasing"):
            push.ingest(dataset.profiles[2:4], at=1.0)
        with pytest.raises(ValueError, match="finite"):
            push.ingest(dataset.profiles[2:4], at=math.inf)
        with pytest.raises(ValueError, match="finite"):
            push.ingest(dataset.profiles[2:4], at=math.nan)
        with pytest.raises(ValueError, match="non-negative"):
            push.ingest(dataset.profiles[2:4], at=-1.0)


def test_drain_rejects_non_monotonic_horizons(dataset):
    with _session(dataset) as session:
        push = session.push()
        push.feed_plan(session.plan_for("I-PES"))
        with pytest.raises(ValueError, match="positive"):
            push.drain(0.0)
        push.drain(4.0)
        with pytest.raises(ValueError, match="non-decreasing"):
            push.drain(2.0)


def test_nan_horizon_and_budget_are_refused(dataset):
    """NaN passes ``<= 0``: taken as a horizon, no later arrival would ever
    exceed it, and a tenant's automatic drains would stop for good."""
    with _session(dataset) as session:
        push = session.push()
        push.feed_plan(session.plan_for("I-PES"))
        with pytest.raises(ValueError, match="positive"):
            push.drain(math.nan)
        assert push.horizon is None
        assert push.drain(4.0) > 0.0
    with pytest.raises(ValueError, match="positive"):
        StreamingEngine(JaccardMatcher(), budget=math.nan)


def test_results_is_terminal(dataset):
    with _session(dataset) as session:
        push = session.push()
        push.feed_plan(session.plan_for("I-PES"))
        push.drain(BUDGET)
        result = push.results()
        assert push.finished
        assert push.results() is result
        with pytest.raises(RuntimeError, match="finalized"):
            push.ingest(dataset.profiles[:2])
        with pytest.raises(RuntimeError, match="finalized"):
            push.drain(BUDGET)
        with pytest.raises(RuntimeError, match="finalized"):
            push.checkpoint()


# ----------------------------------------------------------------------
# Checkpoint / resume
# ----------------------------------------------------------------------
def test_push_checkpoint_resume_is_bit_identical(dataset):
    with _session(dataset) as session:
        plan = session.plan_for("I-PES")
        reference = session.push()
        reference.feed_plan(plan)
        reference.drain(4.0)
        reference.drain(BUDGET)
        expected = _comparable(reference.results())

    with _session(dataset) as session:
        push = session.push()
        push.feed_plan(session.plan_for("I-PES"))
        push.drain(4.0)
        checkpoint = push.checkpoint()

    with _session(dataset) as session:
        resumed = session.push(resume_from=checkpoint)
        resumed.feed_plan(session.plan_for("I-PES"))
        resumed.drain(BUDGET)
        assert _comparable(resumed.results()) == expected


def test_start_binds_restore_before_further_feeds(dataset):
    """The migration shape: re-feed the logged arrivals, start(), go on."""
    with _session(dataset) as session:
        plan = list(session.plan_for("I-PES"))
        # The reference follows the same feed/drain schedule uninterrupted:
        # what the engine does during a drain depends on the arrivals fed
        # by then, so the prefix must match the migrated run's log exactly.
        reference = session.push()
        for at, increment in plan[:4]:
            reference.feed(increment, at=at)
        reference.drain(1.0)
        for at, increment in plan[4:]:
            reference.feed(increment, at=at)
        reference.drain(BUDGET)
        expected = _comparable(reference.results())

    with _session(dataset) as session:
        push = session.push()
        fed = plan[:4]
        for at, increment in fed:
            push.feed(increment, at=at)
        push.drain(1.0)
        checkpoint = push.checkpoint()

    with _session(dataset) as session:
        resumed = session.push(resume_from=checkpoint)
        for at, increment in fed:
            resumed.feed(increment, at=at)
        # Materialize the restore against exactly the re-fed arrivals —
        # the feeds below must not grow the plan past its fingerprint.
        resumed.start()
        assert resumed.started
        for at, increment in plan[4:]:
            resumed.feed(increment, at=at)
        resumed.drain(BUDGET)
        assert _comparable(resumed.results()) == expected


# ----------------------------------------------------------------------
# The one handle
# ----------------------------------------------------------------------
def test_session_push_returns_the_engines_push_run(dataset):
    from repro.execution.push import PushRun

    with _session(dataset) as session:
        assert isinstance(session.push(), PushRun)


def test_ingest_numbers_after_every_index_fed(dataset):
    from repro.core.increments import Increment

    with _session(dataset) as session:
        push = session.push()
        push.ingest(dataset.profiles[:2], at=0.0)
        push.feed(Increment(index=5, profiles=tuple(dataset.profiles[2:4])), at=0.5)
        push.ingest(dataset.profiles[4:6], at=1.0)
        push.feed(Increment(index=3, profiles=tuple(dataset.profiles[6:8])), at=1.5)
        push.ingest(dataset.profiles[8:10], at=2.0)
        assert [increment.index for increment in push.plan.increments] == [0, 5, 6, 3, 7]
        assert push.last_checkpoint is None
