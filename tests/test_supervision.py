"""Worker failure: real process faults, driven by the test.

The contract under test: a failure changes *where* pairs are scored, never
*what* is scored.  A worker is SIGKILLed between hand-offs or with one in
flight, SIGSTOPped past the reply deadline, or its reply is garbled through
a substituted slot connection.  In every case

* the failing hand-off is re-scored in-process, so results, the PC curve
  and the mid-run checkpoint fingerprint equal the serial run's;
* the pool is ``broken`` for good — every worker killed, none respawned —
  and every later hand-off is scored in-process and counted in
  ``parallel.fallbacks``;
* no child process is left alive after ``close()``.

A pool that cannot start is in ``test_parallel.py``; the server's
replacement of a broken pool is in ``test_service.py``.
"""

from __future__ import annotations

import multiprocessing
import os
import random
import signal
import time

import pytest

from repro.api import ERSession
from repro.core.increments import make_stream_plan, split_into_increments
from repro.evaluation.experiments import _build_matcher, _build_system
from repro.parallel import WorkerPoolError, strip_parallel_telemetry
from repro.resilience import ResilienceConfig
from repro.streaming.engine import StreamingEngine
from repro.streaming.pipelined import PipelinedStreamingEngine

from tests.conftest import ShortReplies, by_pid, pool_or_skip
from tests.reference.crash import SimulatedCrash, crash_at

STRATEGIES = ["I-PCS", "I-PBS", "I-PES", "I-BASE"]
BUDGET = 8.0


@pytest.fixture(scope="module")
def dataset(small_dblp_acm):
    return small_dblp_acm


@pytest.fixture(scope="module")
def plan(small_dblp_acm):
    increments = split_into_increments(small_dblp_acm, 8, seed=0)
    return make_stream_plan(increments, rate=5.0)


@pytest.fixture(scope="module")
def sample_pairs(dataset):
    rng = random.Random(5)
    profiles = dataset.profiles
    return by_pid([
        (profiles[rng.randrange(len(profiles))], profiles[rng.randrange(len(profiles))])
        for _ in range(90)
    ])


@pytest.fixture
def small_hand_offs(monkeypatch):
    """Hand-offs of 200 pairs instead of 2048.  These runs score ~1.6k
    pairs — at full size one hand-off, made by the drain's join — so this
    is what gives them a hand-off *sequence*: eight or so, all but the last
    scattered from an emission round while the master goes on emitting."""
    monkeypatch.setattr("repro.execution.core.HAND_OFF_PAIRS", 200)


@pytest.fixture
def short_deadline(monkeypatch):
    """A stopped worker is given up on after 0.3 s instead of a minute."""
    monkeypatch.setattr("repro.parallel.pool.REPLY_TIMEOUT_S", 0.3)


def _comparable(result):
    metrics = strip_parallel_telemetry(result.details["metrics"])
    metrics["phases"] = {
        phase: {key: value for key, value in totals.items() if key != "wall_s"}
        for phase, totals in metrics["phases"].items()
    }
    return {
        "curve": result.curve.points,
        "duplicates": result.duplicates,
        "comparisons_executed": result.comparisons_executed,
        "clock_end": result.clock_end,
        "match_events": result.match_events,
        "metrics": metrics,
    }


def _checkpoint_fingerprint(checkpoint):
    metrics_state = dict(checkpoint.metrics_state)
    metrics_state["phases"] = {
        phase: (virtual_s, count)
        for phase, (virtual_s, _wall_s, count) in metrics_state["phases"].items()
    }
    return (
        checkpoint.engine,
        checkpoint.clock,
        checkpoint.rounds,
        checkpoint.ingested,
        checkpoint.duplicates,
        checkpoint.recorder_state,
        checkpoint.estimator_state,
        metrics_state,
    )


def _run(engine_cls, dataset, plan, strategy, *, pool=None, **kwargs):
    engine = engine_cls(
        _build_matcher("ED"), budget=BUDGET, workers=1 if pool is None else pool.size,
        pool=pool, **kwargs,
    )
    result = engine.run(_build_system(strategy, dataset), plan, dataset.ground_truth)
    return result, engine.last_checkpoint


def _reference_scores(pairs, lookup):
    return _build_matcher("ED")._batch_scores(pairs, lookup)


def _kill(pool, slot=0):
    os.kill(pool._processes[slot].pid, signal.SIGKILL)


def _fault_in_flight(pool, kind, *, at=2, slot=0):
    """Make ``slot``'s worker fail hand-off number ``at`` after its chunk is
    sent: ``kill`` (SIGKILL), ``hang`` (SIGSTOP, past the reply deadline)
    or ``corrupt`` (its reply arrives one similarity short).  The worker is
    stopped before the chunk is sent, so the chunk reaches its pipe but
    never the worker — the fault lands with the hand-off in flight on
    every host."""
    scatter = pool.scatter
    pid = pool._processes[slot].pid
    scattered = 0

    def faulty_scatter(pairs, profiles):
        nonlocal scattered
        scattered += 1
        if scattered != at:
            return scatter(pairs, profiles)
        if kind == "corrupt":
            pool._connections[slot] = ShortReplies(pool._connections[slot])
            return scatter(pairs, profiles)
        os.kill(pid, signal.SIGSTOP)
        ticket = scatter(pairs, profiles)
        if kind == "kill":
            os.kill(pid, signal.SIGKILL)
        return ticket

    pool.scatter = faulty_scatter


def _assert_broken(pool, counters=None):
    """Broken for good, and every worker of the fleet counted as lost."""
    assert pool.broken and not pool.healthy
    assert pool.evictions == pool.size
    if counters is not None:
        assert counters["parallel.supervision.evictions"] == pool.size


def _assert_no_child_alive():
    assert multiprocessing.active_children() == []


# ----------------------------------------------------------------------
# Pool level: one failure of each kind
# ----------------------------------------------------------------------
def test_sigkill_mid_round_is_absorbed(sample_pairs):
    """A worker SIGKILLed between hand-offs: the next hand-off still
    merges bit-identically, the pool is broken for good, and a later
    scatter refuses (the caller scores in-process)."""
    pool = pool_or_skip("ED")
    try:
        reference = _reference_scores(*sample_pairs)
        pool.begin_run()
        assert pool.batch_scores(*sample_pairs) == reference
        _kill(pool)
        assert pool.batch_scores(*sample_pairs) == reference
        assert pool.broken
        with pytest.raises(WorkerPoolError):
            pool.scatter(*sample_pairs)
        pool.begin_run()  # a new run may still claim it; it scores nothing
        with pytest.raises(WorkerPoolError):
            pool.batch_scores(*sample_pairs)
        _assert_broken(pool)
    finally:
        pool.close()
    _assert_no_child_alive()


def test_respawn_budget_exhaustion_breaks_the_pool(sample_pairs):
    """Nothing respawns, so the first worker lost exhausts the fleet: the
    surviving worker is killed with it rather than left scoring alone, and
    every later hand-off is refused for good."""
    pool = pool_or_skip("ED")
    try:
        reference = _reference_scores(*sample_pairs)
        pool.begin_run()
        assert pool.batch_scores(*sample_pairs) == reference
        survivor = pool._processes[0]
        _kill(pool, 1)
        assert pool.batch_scores(*sample_pairs) == reference
        assert not survivor.is_alive()
        assert pool._processes == []
        _assert_broken(pool)
        for _ in range(2):
            with pytest.raises(WorkerPoolError):
                pool.batch_scores(*sample_pairs)
    finally:
        pool.close()
    _assert_no_child_alive()


def test_hung_worker_hits_reply_deadline(sample_pairs, short_deadline):
    """A SIGSTOPped worker is given up on at the reply deadline — the
    master never waits for it — and its chunk is rescued."""
    pool = pool_or_skip("ED")
    try:
        reference = _reference_scores(*sample_pairs)
        pool.begin_run()
        assert pool.batch_scores(*sample_pairs) == reference
        os.kill(pool._processes[1].pid, signal.SIGSTOP)
        started = time.monotonic()
        assert pool.batch_scores(*sample_pairs) == reference
        assert 0.3 <= time.monotonic() - started < 10.0
        _assert_broken(pool)
    finally:
        pool.close()
    _assert_no_child_alive()


def test_corrupt_reply_is_rejected_and_rescued(sample_pairs):
    """A short similarity list must never merge (it would misalign every
    later pair): the reply is rejected and the chunk re-scored in-process."""
    pool = pool_or_skip("ED")
    try:
        reference = _reference_scores(*sample_pairs)
        pool.begin_run()
        pool._connections[0] = ShortReplies(pool._connections[0])
        assert pool.batch_scores(*sample_pairs) == reference
        _assert_broken(pool)
    finally:
        pool.close()
    _assert_no_child_alive()


def test_begin_run_is_refused_while_a_hand_off_is_outstanding(sample_pairs):
    pool = pool_or_skip("ED")
    try:
        pool.begin_run()
        ticket = pool.scatter(*sample_pairs)
        with pytest.raises(RuntimeError, match="hand-off"):
            pool.begin_run()
        with pytest.raises(RuntimeError, match="hand-off"):
            pool.scatter(*sample_pairs)
        assert pool.gather(ticket) == _reference_scores(*sample_pairs)
        pool.begin_run()
        assert pool.healthy and pool.evictions == 0
    finally:
        pool.close()


def test_reply_already_in_the_pipe_is_not_a_timeout(sample_pairs, monkeypatch):
    """The reply deadline runs from the scatter; a master that comes back
    after it must still take the reply that has been waiting for it."""
    monkeypatch.setattr("repro.parallel.pool.REPLY_TIMEOUT_S", 0.2)
    pool = pool_or_skip("ED")
    try:
        pool.begin_run()
        pool.batch_scores(*sample_pairs)  # warm: the next reply takes milliseconds
        ticket = pool.scatter(*sample_pairs)
        time.sleep(0.6)
        assert pool.gather(ticket) == _reference_scores(*sample_pairs)
        assert pool.healthy and pool.evictions == 0
    finally:
        pool.close()


# ----------------------------------------------------------------------
# Engine level: bit-identity, all strategies × both engines
# ----------------------------------------------------------------------
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_chaos_invariance_serial_engine(dataset, plan, strategy, small_hand_offs):
    """A worker SIGKILLed with the second hand-off in flight: the run, its
    mid-run checkpoints and their fingerprints equal the serial run's."""
    serial, serial_ckpt = _run(
        StreamingEngine, dataset, plan, strategy,
        resilience=ResilienceConfig(checkpoint_every=2.0),
    )
    pool = pool_or_skip("ED")
    try:
        _fault_in_flight(pool, "kill")
        chaotic, chaotic_ckpt = _run(
            StreamingEngine, dataset, plan, strategy, pool=pool,
            resilience=ResilienceConfig(checkpoint_every=2.0),
        )
        assert _comparable(chaotic) == _comparable(serial)
        assert _checkpoint_fingerprint(chaotic_ckpt) == _checkpoint_fingerprint(serial_ckpt)
        counters = chaotic.details["metrics"]["counters"]
        assert counters["parallel.fallbacks"] > 0
        _assert_broken(pool, counters)
    finally:
        pool.close()
    _assert_no_child_alive()


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_chaos_invariance_pipelined_engine(dataset, plan, strategy, small_hand_offs):
    serial, _ = _run(PipelinedStreamingEngine, dataset, plan, strategy)
    pool = pool_or_skip("ED")
    try:
        _fault_in_flight(pool, "kill")
        chaotic, _ = _run(PipelinedStreamingEngine, dataset, plan, strategy, pool=pool)
        assert _comparable(chaotic) == _comparable(serial)
        counters = chaotic.details["metrics"]["counters"]
        assert counters["parallel.fallbacks"] > 0
        _assert_broken(pool, counters)
    finally:
        pool.close()
    _assert_no_child_alive()


@pytest.mark.parametrize("engine_cls", [StreamingEngine, PipelinedStreamingEngine])
@pytest.mark.parametrize("kind", ["kill", "hang", "corrupt"])
def test_fault_on_a_hand_off_in_flight_while_the_master_emits(
    dataset, plan, kind, engine_cls, small_hand_offs, short_deadline, monkeypatch
):
    """The faulted hand-off is scattered from an emission round, the master
    goes on prioritising, and the failure is met — and the hand-off
    rescued — at the next hand-off's gather, before the drain's own join.
    Every hand-off after it is scored in-process, as a fallback."""
    serial, _ = _run(engine_cls, dataset, plan, "I-PES")
    pool = pool_or_skip("ED")
    broken_at_join = []
    join = engine_cls._join

    def spy(engine, state):
        broken_at_join.append(pool.broken)
        join(engine, state)

    monkeypatch.setattr(engine_cls, "_join", spy)
    try:
        _fault_in_flight(pool, kind)
        chaotic, _ = _run(engine_cls, dataset, plan, "I-PES", pool=pool)
        assert broken_at_join == [True]
        assert _comparable(chaotic) == _comparable(serial)
        counters = chaotic.details["metrics"]["counters"]
        assert counters["parallel.rounds_sharded"] == 2
        assert counters["parallel.fallbacks"] >= 2
        _assert_broken(pool, counters)
    finally:
        pool.close()
    _assert_no_child_alive()


def test_supervision_telemetry_counts_the_schedule(dataset, plan, small_hand_offs):
    """The counters add up exactly: a healthy run makes N hand-offs; with
    a worker lost at the second, two are gathered (the second rescued),
    N - 2 fall back, and every worker of the fleet counts as lost."""
    pool = pool_or_skip("ED")
    try:
        healthy, _ = _run(StreamingEngine, dataset, plan, "I-PES", pool=pool)
        hand_offs = healthy.details["metrics"]["counters"]["parallel.rounds_sharded"]
        assert hand_offs > 3
        _fault_in_flight(pool, "kill")
        chaotic, _ = _run(StreamingEngine, dataset, plan, "I-PES", pool=pool)
        counters = chaotic.details["metrics"]["counters"]
        assert counters["parallel.rounds_sharded"] == 2
        assert counters["parallel.fallbacks"] == hand_offs - 2
        assert healthy.details["metrics"]["counters"]["parallel.supervision.evictions"] == 0
        assert _comparable(chaotic) == _comparable(healthy)
        _assert_broken(pool, counters)
    finally:
        pool.close()
    _assert_no_child_alive()


def test_hand_off_does_not_outlive_a_crashed_drain(dataset, plan, monkeypatch):
    """A crash leaves ``_drive`` with a hand-off in flight.  Its reply must
    not stay in the pipe: the next run on the pool would read it as its
    own and call it garbled, breaking a healthy pool (results would still
    be right, through the rescue — which is why only the pool can tell)."""
    monkeypatch.setattr("repro.execution.core.HAND_OFF_PAIRS", 100)
    uninterrupted, uninterrupted_ckpt = _run(
        StreamingEngine, dataset, plan, "I-PES",
        resilience=ResilienceConfig(checkpoint_every=3.0),
    )
    pool = pool_or_skip("ED")
    try:
        engine = StreamingEngine(
            _build_matcher("ED"), budget=BUDGET, workers=pool.size, pool=pool,
            resilience=ResilienceConfig(checkpoint_every=3.0),
        )
        in_flight_at_join = []
        join = StreamingEngine._join

        def spy(engine, state):
            in_flight_at_join.append(state.in_flight is not None)
            join(engine, state)

        monkeypatch.setattr(StreamingEngine, "_join", spy)
        with crash_at(4.0), pytest.raises(SimulatedCrash) as crash:
            engine.run(_build_system("I-PES", dataset), plan, dataset.ground_truth)
        monkeypatch.setattr(StreamingEngine, "_join", join)
        # [the cadence checkpoint's join, the crashing drain's]: the crash
        # did hit with a hand-off in flight.
        assert in_flight_at_join == [True, True]
        assert pool._outstanding is None
        resumed_engine = StreamingEngine(
            _build_matcher("ED"), budget=BUDGET, workers=pool.size, pool=pool,
            resilience=ResilienceConfig(checkpoint_every=3.0),
        )
        resumed = resumed_engine.run(
            _build_system("I-PES", dataset), plan, dataset.ground_truth,
            resume_from=crash.value.checkpoint,
        )
        assert pool.healthy and pool.evictions == 0
        assert _comparable(resumed) == _comparable(uninterrupted)
        assert _checkpoint_fingerprint(resumed_engine.last_checkpoint) == (
            _checkpoint_fingerprint(uninterrupted_ckpt)
        )
    finally:
        pool.close()


def test_crash_resume_across_fault_schedule(dataset, plan, small_hand_offs):
    """A run that loses a worker and then crashes resumes from its
    checkpoint on a fresh fleet that loses a worker too, and still ends
    bit-identical to the uninterrupted serial run."""
    pool = pool_or_skip("ED")
    try:
        _fault_in_flight(pool, "kill")
        engine = StreamingEngine(
            _build_matcher("ED"), budget=BUDGET, workers=pool.size, pool=pool,
            resilience=ResilienceConfig(checkpoint_every=1.0),
        )
        with crash_at(4.0), pytest.raises(SimulatedCrash) as crash:
            engine.run(_build_system("I-PES", dataset), plan, dataset.ground_truth)
        checkpoint = crash.value.checkpoint
        assert checkpoint is not None
        _assert_broken(pool)
    finally:
        pool.close()

    resume_pool = pool_or_skip("ED")
    try:
        _kill(resume_pool, 1)
        resumed = StreamingEngine(
            _build_matcher("ED"), budget=BUDGET, workers=resume_pool.size, pool=resume_pool,
        ).run(
            _build_system("I-PES", dataset), plan, dataset.ground_truth,
            resume_from=checkpoint,
        )
        _assert_broken(resume_pool)
    finally:
        resume_pool.close()
    _assert_no_child_alive()
    uninterrupted, _ = _run(StreamingEngine, dataset, plan, "I-PES")
    assert resumed.duplicates == uninterrupted.duplicates
    assert resumed.clock_end == uninterrupted.clock_end
    assert resumed.final_pc == uninterrupted.final_pc


def test_session_chaos_run_matches_clean_run(dataset):
    """At the session level: the run that loses a worker and the session's
    next run, on the broken pool, both equal the serial run."""

    def session(workers):
        return ERSession(
            dataset, systems=("I-PES",), matcher="ED", n_increments=8, rate=5.0,
            budget=BUDGET, workers=workers,
        )

    with session(1) as serial_session:
        serial = serial_session.run()
    with session(2) as chaotic_session:
        push = chaotic_session.push()  # starts the session's fleet
        pool = chaotic_session._pool
        if pool is None:
            pytest.skip("process pool unavailable on this host")
        pool.min_shard = 1
        _kill(pool)
        push.feed_plan(chaotic_session.plan_for("I-PES"))
        push.drain(BUDGET)
        # One drain, fewer pairs than a full hand-off: the join's is the
        # only hand-off, and the one that meets the dead worker.
        chaotic = push.results()
        after = chaotic_session.run()
    _assert_no_child_alive()
    assert _comparable(chaotic) == _comparable(serial)
    assert _comparable(after) == _comparable(serial)
    counters = chaotic.details["metrics"]["counters"]
    assert counters["parallel.supervision.evictions"] == 2
    assert (counters["parallel.rounds_sharded"], counters["parallel.fallbacks"]) == (1, 0)
    counters = after.details["metrics"]["counters"]
    assert counters["parallel.supervision.evictions"] == 0
    assert (counters["parallel.rounds_sharded"], counters["parallel.fallbacks"]) == (0, 1)
