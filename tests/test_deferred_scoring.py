"""The cost-side / result-side seam, checked against the in-process run.

With a worker fleet the batched kernel charges an emission round when it
runs and scores it off the round: the round's pairs are buffered, handed
to the fleet a few thousand at a time, and *settled* — duplicates, match
counts, kernel outcome counters — at the next join point.  The oracle is
the same schedule on ``workers=1``, which runs both sides back to back
inside every round and never touches a pool.

Checked at **every** join point of a schedule, not only at its end: the
end of each drain, each cadence checkpoint inside a drain, each explicit
``checkpoint()``, each ``matches`` poll, and ``results()``.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.execution.core as core
from repro.core.increments import make_stream_plan, split_into_increments
from repro.evaluation.experiments import _build_matcher, _build_system
from repro.matching.matcher import EditDistanceMatcher
from repro.parallel import strip_parallel_telemetry
from repro.resilience import ResilienceConfig
from repro.streaming.engine import StreamingEngine
from repro.streaming.pipelined import PipelinedStreamingEngine

from tests.conftest import pool_or_skip
from tests.reference.crash import SimulatedCrash, crash_at

STRATEGIES = ["I-PCS", "I-PBS", "I-PES", "I-BASE"]
ENGINES = {"serial": StreamingEngine, "pipelined": PipelinedStreamingEngine}


@pytest.fixture(scope="module")
def dataset(small_dblp_acm):
    return small_dblp_acm


@pytest.fixture(scope="module")
def plan(small_dblp_acm):
    return make_stream_plan(split_into_increments(small_dblp_acm, 8, seed=0), rate=5.0)


@pytest.fixture(scope="module")
def ed_pool():
    pool = pool_or_skip("ED")
    yield pool
    pool.close()


def _without_wall(metrics_state):
    state = dict(metrics_state)
    state["phases"] = {
        name: (virtual_s, count)
        for name, (virtual_s, _wall_s, count) in state["phases"].items()
    }
    return state


def _checkpoint_fingerprint(checkpoint):
    """Every deterministic field of a checkpoint the seam could reach."""
    return (
        checkpoint.engine,
        checkpoint.budget,
        checkpoint.plan_fingerprint,
        checkpoint.clock,
        checkpoint.ingest_clock,
        checkpoint.next_arrival,
        checkpoint.rounds,
        checkpoint.ingested,
        checkpoint.duplicates,
        checkpoint.matcher_state,
        checkpoint.recorder_state,
        checkpoint.estimator_state,
        _without_wall(checkpoint.metrics_state),
    )


def _observe(run, pool):
    """The result side (and the cost side next to it) at a join point."""
    state = run._state
    assert state.unscored == [] and state.in_flight is None
    assert pool is None or pool._outstanding is None
    matcher = state.matcher
    return {
        "duplicates": frozenset(state.duplicates),
        "matcher": (
            matcher.comparisons_executed,
            matcher.matches_found,
            matcher.total_cost,
            dict(matcher.kernel_counts),
        ),
        # After ``results()`` the registry also holds the ``parallel.*``
        # telemetry, which is what legitimately differs by worker count.
        "metrics": None if run.finished else _without_wall(state.metrics.dump_state()),
    }


def _reported_metrics(result):
    metrics = strip_parallel_telemetry(result.details["metrics"])
    metrics["phases"] = {
        phase: {key: value for key, value in totals.items() if key != "wall_s"}
        for phase, totals in metrics["phases"].items()
    }
    return metrics


def _walk(engine_cls, matcher, dataset, plan, strategy, schedule, *, pool=None, **engine_kwargs):
    """Run ``schedule`` — ``(horizon, poll matches?, take a checkpoint?)``
    steps — and return what was observable at each join point, in order."""
    engine = engine_cls(
        matcher, budget=schedule[-1][0], workers=1 if pool is None else pool.size,
        pool=pool, **engine_kwargs,
    )
    seen = []
    take_checkpoint = engine._take_checkpoint

    def recording_take_checkpoint(state):
        checkpoint = take_checkpoint(state)
        seen.append(("checkpoint", _checkpoint_fingerprint(checkpoint), _observe(run, pool)))
        return checkpoint

    engine._take_checkpoint = recording_take_checkpoint
    run = engine.open_push(_build_system(strategy, dataset), dataset.ground_truth)
    run.feed_plan(plan)
    for horizon, poll, checkpoint in schedule:
        run.drain(horizon)
        seen.append(("drain", run.clock, _observe(run, pool)))
        if poll:
            seen.append(("matches", run.matches))
        if checkpoint:
            run.checkpoint()
    result = run.results()
    seen.append(
        ("results", result.duplicates, result.curve.points, _reported_metrics(result),
         _observe(run, pool))
    )
    return seen, result


_schedules = st.lists(
    st.tuples(st.floats(0.2, 3.5), st.booleans(), st.booleans()), min_size=1, max_size=5
).map(
    lambda steps: [
        (sum(step[0] for step in steps[: index + 1]), poll, checkpoint)
        for index, (_, poll, checkpoint) in enumerate(steps)
    ]
)


@given(
    strategy=st.sampled_from(STRATEGIES),
    engine_name=st.sampled_from(sorted(ENGINES)),
    schedule=_schedules,
    checkpoint_every=st.sampled_from([None, 0.6, 2.0]),
    hand_off_pairs=st.sampled_from([50, 400, core.HAND_OFF_PAIRS]),
)
@settings(
    max_examples=20, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
def test_every_join_point_equals_the_in_process_run(
    dataset, plan, ed_pool, strategy, engine_name, schedule, checkpoint_every, hand_off_pairs
):
    engine_cls = ENGINES[engine_name]
    kwargs = dict(resilience=ResilienceConfig(checkpoint_every=checkpoint_every))
    in_process, _ = _walk(
        engine_cls, _build_matcher("ED"), dataset, plan, strategy, schedule, **kwargs
    )
    saved = core.HAND_OFF_PAIRS
    core.HAND_OFF_PAIRS = hand_off_pairs
    try:
        pooled, result = _walk(
            engine_cls, _build_matcher("ED"), dataset, plan, strategy, schedule,
            pool=ed_pool, **kwargs,
        )
    finally:
        core.HAND_OFF_PAIRS = saved
    assert pooled == in_process
    # The fleet did score the run: every comparison went through a hand-off.
    counters = result.details["metrics"]["counters"]
    assert counters["parallel.pairs_sharded"] == result.comparisons_executed
    assert counters["parallel.fallbacks"] == 0
    assert ed_pool.evictions == 0


# ----------------------------------------------------------------------
# Two tenants on one pool: a hand-off never spans an owner switch
# ----------------------------------------------------------------------
@pytest.mark.parametrize("matcher_name", ["JS", "ED"])
def test_interleaved_tenants_never_share_a_hand_off(
    small_dblp_acm, small_movies, matcher_name, monkeypatch
):
    """Tenants on different datasets reuse pids for different texts, so a
    reply read under the wrong owner — or worker caches not reset between
    owners — would show up as wrong matches."""
    monkeypatch.setattr(core, "HAND_OFF_PAIRS", 120)
    tenants = {"dblp_acm": small_dblp_acm, "movies": small_movies}
    plans = {
        name: make_stream_plan(split_into_increments(data, 6, seed=0), rate=3.0)
        for name, data in tenants.items()
    }
    horizons = [1.0, 2.5, 4.0, 6.0]

    def open_run(name, pool):
        engine = StreamingEngine(
            _build_matcher(matcher_name), budget=horizons[-1],
            workers=1 if pool is None else pool.size, pool=pool,
        )
        run = engine.open_push(_build_system("I-PES", tenants[name]), tenants[name].ground_truth)
        run.feed_plan(plans[name])
        return engine, run

    solo = {}
    for name in tenants:
        _, run = open_run(name, None)
        solo[name] = []
        for horizon in horizons:
            run.drain(horizon)
            solo[name].append(run.matches)

    pool = pool_or_skip(matcher_name)
    try:
        events = []
        scatter, gather = pool.scatter, pool.gather

        def recording_scatter(pairs):
            events.append(("scatter", pool.owner))
            return scatter(pairs)

        def recording_gather(ticket):
            events.append(("gather", pool.owner))
            return gather(ticket)

        pool.scatter, pool.gather = recording_scatter, recording_gather
        runs = {name: open_run(name, pool) for name in tenants}
        for index, horizon in enumerate(horizons):
            for name, (engine, run) in runs.items():
                run.drain(horizon)
                assert pool._outstanding is None
                assert run.matches == solo[name][index], (name, horizon)
        # Strictly alternating, each gather under the owner that scattered.
        assert len(events) > 4 * len(horizons)
        assert [kind for kind, _ in events[0::2]] == ["scatter"] * (len(events) // 2)
        assert [kind for kind, _ in events[1::2]] == ["gather"] * (len(events) // 2)
        assert all(sent[1] is collected[1] for sent, collected in zip(events[0::2], events[1::2]))
        assert {owner for _, owner in events} == {engine for engine, _ in runs.values()}
        assert pool.evictions == 0 and pool.healthy
    finally:
        pool.close()


# ----------------------------------------------------------------------
# A gather that fails: no charged pair is dropped, no exception is masked
# ----------------------------------------------------------------------
def _pooled_run(dataset, plan, **engine_kwargs):
    pool = pool_or_skip("ED")
    engine = StreamingEngine(
        _build_matcher("ED"), budget=8.0, workers=pool.size, pool=pool, **engine_kwargs
    )
    run = engine.open_push(_build_system("I-PES", dataset), dataset.ground_truth)
    run.feed_plan(plan)
    return pool, engine, run


def _assert_every_charged_pair_is_scored(run, pool):
    state = run._state
    assert state.unscored == [] and state.in_flight is None
    assert pool._outstanding is None
    matcher = state.matcher
    assert matcher.comparisons_executed > 0
    # The ED funnel counts every *scored* pair in exactly one stage.
    assert sum(matcher.kernel_counts.values()) == matcher.comparisons_executed


@pytest.mark.parametrize("failure", [KeyboardInterrupt, RuntimeError])
def test_a_failed_gather_drops_no_charged_pair(dataset, plan, failure, monkeypatch):
    """An interrupt in a poll, a pool closed under the run: ``gather``
    raises with up to a hand-off of pairs charged and more buffered.  They
    are scored in-process before the exception leaves the drain."""
    monkeypatch.setattr(core, "HAND_OFF_PAIRS", 100)
    pool, _, run = _pooled_run(dataset, plan)
    try:
        gather = pool.gather
        tickets = []

        def failing_gather(ticket):
            tickets.append(ticket)
            scores = gather(ticket)  # the pipes end up clean, as after gather's own finally
            if len(tickets) == 3:
                raise failure("in the poll")
            return scores

        pool.gather = failing_gather
        with pytest.raises(failure, match="in the poll"):
            run.drain(8.0)
        assert len(tickets) == 3  # raised mid-drive, from an emission round
        _assert_every_charged_pair_is_scored(run, pool)
    finally:
        pool.close()


def test_a_failed_join_does_not_mask_the_crash(dataset, plan, monkeypatch):
    monkeypatch.setattr(core, "HAND_OFF_PAIRS", 100)
    pool, engine, run = _pooled_run(dataset, plan)
    try:
        join = engine._join
        in_flight_at_join = []

        def failing_gather(ticket):
            pool.close()
            raise RuntimeError("pool closed under the run")

        def join_on_a_closed_pool(state):
            in_flight_at_join.append(state.in_flight is not None)
            pool.gather = failing_gather
            join(state)

        engine._join = join_on_a_closed_pool
        with crash_at(4.0), pytest.raises(SimulatedCrash):
            run.drain(8.0)
        assert in_flight_at_join == [True]
        _assert_every_charged_pair_is_scored(run, pool)
    finally:
        pool.close()


# ----------------------------------------------------------------------
# Mutation check: the cost side cannot move to the join
# ----------------------------------------------------------------------
class _ChargesAtTheJoin(EditDistanceMatcher):
    """The mutant: costs are accounted when the scores arrive, not when the
    round runs.  Harmless without a fleet (both halves run back to back);
    with one, ``mean_cost`` lags by up to a hand-off and ``findK`` sees it."""

    _owed: tuple = ()

    def account_costs(self, costs):
        self._owed += tuple(costs)

    def account_scores(self, similarities):
        owed, self._owed = self._owed, ()
        super().account_costs(list(owed))
        return super().account_scores(similarities)


def _round_log_k(result):
    return [sample["k"] for sample in result.details["metrics"]["rounds"]["samples"]]


def test_charging_at_the_join_is_caught_by_the_round_log(dataset, plan, ed_pool, monkeypatch):
    monkeypatch.setattr(core, "HAND_OFF_PAIRS", 400)
    schedule = [(8.0, False, False)]
    reference = _build_matcher("ED")
    mutant = _ChargesAtTheJoin(reference.threshold, reference.cost_model)

    _, in_process = _walk(StreamingEngine, reference, dataset, plan, "I-PES", schedule)
    _, pooled = _walk(
        StreamingEngine, _build_matcher("ED"), dataset, plan, "I-PES", schedule, pool=ed_pool
    )
    _, mutated = _walk(StreamingEngine, mutant, dataset, plan, "I-PES", schedule, pool=ed_pool)

    assert _round_log_k(pooled) == _round_log_k(in_process)
    assert len(set(_round_log_k(in_process))) > 1  # K does adapt on this run
    assert _round_log_k(mutated) != _round_log_k(in_process)
