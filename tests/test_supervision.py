"""Tests for the self-healing worker fleet (``repro.parallel.supervision``).

The contract under test is the supervision invariant: faults change
*where* pairs are scored, never *what* is scored.  Under any schedule of
worker SIGKILLs, hangs past the reply deadline, or corrupt replies,

* every round's merged scores are bit-identical to the serial kernel
  (condemned chunks are rescued in-process at their merge position);
* only the faulted worker is evicted — the fleet is never condemned for
  one bad pipe — and the slot respawns with capped jittered backoff;
* results, metrics-at-checkpoint, and checkpoint fingerprints coincide
  byte-for-byte with the serial run across all four strategies and both
  engines;
* the pool turns ``broken`` (terminal) only after every slot exhausts its
  respawn budget;
* shm segments published by a master that never reaches ``close()`` are
  swept at exit, and debris left by a SIGKILLed master is reaped at the
  next pool start.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
import time

import pytest

from repro.api import EngineOptions, ERSession
from repro.cli import build_parser
from repro.core.increments import make_stream_plan, split_into_increments
from repro.evaluation.experiments import _build_matcher, _build_system
from repro.parallel import (
    SupervisionConfig,
    WorkerPool,
    strip_parallel_telemetry,
    sweep_stale_segments,
)
from repro.parallel.pool import WorkerPoolError, _create_segment
from repro.parallel.supervision import (
    ALIVE,
    DEAD,
    EVICTED,
    default_handshake_timeout,
    default_reply_timeout,
)
from repro.resilience import ResilienceConfig, RetryPolicy, SimulatedCrash, WorkerFaultSpec
from repro.streaming.engine import StreamingEngine
from repro.streaming.pipelined import PipelinedStreamingEngine

STRATEGIES = ["I-PCS", "I-PBS", "I-PES", "I-BASE"]
BUDGET = 8.0

#: Fast supervision for chaos tests: tight reply deadline (the hang fault
#: sleeps well past it), immediate unjittered respawns, default budget.
FAST_SUPERVISION = SupervisionConfig(
    reply_timeout_s=1.0,
    respawn_backoff=RetryPolicy(base_backoff=0.001, backoff_factor=1.0, max_backoff=0.001),
)


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
    return [
        (profiles[rng.randrange(len(profiles))], profiles[rng.randrange(len(profiles))])
        for _ in range(90)
    ]


def _faulted_pool(worker_faults, *, workers=2, supervision=FAST_SUPERVISION):
    pool = WorkerPool.create(
        workers,
        _build_matcher("ED"),
        min_shard=1,
        supervision=supervision,
        worker_faults=worker_faults,
    )
    if pool is None:
        pytest.skip("process pool unavailable on this host")
    return pool


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


def _run(engine_cls, dataset, plan, strategy, *, workers=1, pool=None, **kwargs):
    engine = engine_cls(
        _build_matcher("ED"), budget=BUDGET, workers=workers, pool=pool, **kwargs
    )
    result = engine.run(_build_system(strategy, dataset), plan, dataset.ground_truth)
    engine.close_pool()
    return result, engine.last_checkpoint


# ----------------------------------------------------------------------
# RetryPolicy: capped exponential backoff with seeded jitter
# ----------------------------------------------------------------------
def test_backoff_without_jitter_is_capped_exponential():
    policy = RetryPolicy(base_backoff=0.05, backoff_factor=2.0, max_backoff=2.0)
    assert [policy.backoff(attempt) for attempt in range(1, 8)] == [
        0.05, 0.1, 0.2, 0.4, 0.8, 1.6, 2.0,
    ]


def test_jittered_backoff_sequence_is_pinned():
    """The seeded jitter stream is part of the public contract: respawn
    scheduling must replay identically for a fixed ``respawn_seed``."""
    policy = RetryPolicy(
        base_backoff=0.05, backoff_factor=2.0, max_backoff=2.0, jitter=0.25
    )
    rng = random.Random(0)
    sequence = [policy.backoff(attempt, rng) for attempt in range(1, 6)]
    assert sequence == pytest.approx(
        [
            0.05861054628812621,
            0.11289772014701512,
            0.19205715808308452,
            0.35178335005859274,
            0.8045098885474435,
        ],
        abs=0.0,
    )
    # Jitter stays within the documented multiplicative band.
    for attempt, value in enumerate(sequence, start=1):
        capped = min(0.05 * 2.0 ** (attempt - 1), 2.0)
        assert capped * 0.75 <= value <= capped * 1.25


def test_backoff_validates_inputs():
    with pytest.raises(ValueError):
        RetryPolicy(jitter=1.0)
    with pytest.raises(ValueError):
        RetryPolicy(jitter=-0.1)
    with pytest.raises(ValueError):
        RetryPolicy().backoff(0)


# ----------------------------------------------------------------------
# Deadlines: environment and EngineOptions overrides
# ----------------------------------------------------------------------
def test_deadlines_resolve_from_environment(monkeypatch):
    monkeypatch.setenv("REPRO_HANDSHAKE_TIMEOUT_S", "11.5")
    monkeypatch.setenv("REPRO_REPLY_TIMEOUT_S", "2.25")
    assert default_handshake_timeout() == 11.5
    assert default_reply_timeout() == 2.25
    config = SupervisionConfig()
    assert config.resolved_handshake_timeout() == 11.5
    assert config.resolved_reply_timeout() == 2.25


def test_reply_deadline_zero_disables(monkeypatch):
    monkeypatch.setenv("REPRO_REPLY_TIMEOUT_S", "0")
    assert default_reply_timeout() is None
    assert SupervisionConfig().resolved_reply_timeout() is None
    assert SupervisionConfig(reply_timeout_s=float("inf")).resolved_reply_timeout() is None


def test_garbage_environment_falls_back_to_defaults(monkeypatch):
    monkeypatch.setenv("REPRO_HANDSHAKE_TIMEOUT_S", "soon")
    monkeypatch.setenv("REPRO_REPLY_TIMEOUT_S", "later")
    assert default_handshake_timeout() == 30.0
    assert default_reply_timeout() == 60.0


def test_explicit_config_beats_environment(monkeypatch):
    monkeypatch.setenv("REPRO_HANDSHAKE_TIMEOUT_S", "11.5")
    monkeypatch.setenv("REPRO_REPLY_TIMEOUT_S", "2.25")
    config = SupervisionConfig(handshake_timeout_s=5.0, reply_timeout_s=7.0)
    assert config.resolved_handshake_timeout() == 5.0
    assert config.resolved_reply_timeout() == 7.0


def test_engine_options_build_supervision_config():
    options = EngineOptions(reply_timeout_s=3.0, handshake_timeout_s=9.0, max_respawns=1)
    supervision = options.supervision()
    assert supervision.resolved_reply_timeout() == 3.0
    assert supervision.resolved_handshake_timeout() == 9.0
    assert supervision.resolved_max_respawns() == 1
    with pytest.raises(ValueError):
        EngineOptions(handshake_timeout_s=0.0)
    with pytest.raises(ValueError):
        EngineOptions(max_respawns=-1)


def test_cli_exposes_supervision_knobs():
    args = build_parser().parse_args(
        [
            "run", "--workers", "4", "--reply-timeout", "2.5",
            "--handshake-timeout", "12", "--max-respawns", "5",
            "--worker-faults", "7",
        ]
    )
    assert args.reply_timeout_s == 2.5
    assert args.handshake_timeout_s == 12.0
    assert args.max_respawns == 5
    assert args.worker_faults == 7


def test_session_coerces_worker_fault_seed(dataset):
    session = ERSession(dataset, systems=("I-PES",), n_increments=4, worker_faults=3)
    try:
        assert session.worker_fault_spec == WorkerFaultSpec.chaos(3)
    finally:
        session.close()


# ----------------------------------------------------------------------
# WorkerFaultSpec: seeded schedules
# ----------------------------------------------------------------------
def test_worker_fault_spec_validation():
    with pytest.raises(ValueError):
        WorkerFaultSpec(kill_rate=1.2)
    with pytest.raises(ValueError):
        WorkerFaultSpec(kill_rate=0.6, hang_rate=0.6)
    with pytest.raises(ValueError):
        WorkerFaultSpec(hang_s=-1.0)
    assert WorkerFaultSpec().is_noop
    assert not WorkerFaultSpec(kill_on=((0, 1),)).is_noop
    assert not WorkerFaultSpec.chaos(7).is_noop


def test_explicit_schedules_fire_on_first_incarnation_only():
    spec = WorkerFaultSpec(kill_on=((0, 2),), hang_on=((1, 1),), corrupt_on=((0, 3),))
    rng = spec.rng_for(0, 0)
    assert spec.action(0, 0, 1, rng) is None
    assert spec.action(0, 0, 2, rng) == "kill"
    assert spec.action(0, 0, 3, rng) == "corrupt"
    assert spec.action(1, 0, 1, spec.rng_for(1, 0)) == "hang"
    # The respawned incarnation does not replay its predecessor's death.
    replacement = spec.rng_for(0, 1)
    assert all(spec.action(0, 1, ordinal, replacement) is None for ordinal in (1, 2, 3))


def test_rate_draws_are_deterministic_per_incarnation():
    spec = WorkerFaultSpec(seed=9, kill_rate=0.2, hang_rate=0.2, corrupt_rate=0.2)

    def schedule(slot, incarnation):
        rng = spec.rng_for(slot, incarnation)
        return [spec.action(slot, incarnation, ordinal, rng) for ordinal in range(1, 30)]

    assert schedule(0, 0) == schedule(0, 0)
    assert schedule(0, 0) != schedule(1, 0)
    assert schedule(0, 0) != schedule(0, 1)
    kinds = set(schedule(0, 0)) | set(schedule(1, 0)) | set(schedule(2, 0))
    assert {"kill", "hang", "corrupt"} <= kinds


# ----------------------------------------------------------------------
# Pool level: eviction, rescue, respawn — per fault kind
# ----------------------------------------------------------------------
def _reference_scores(sample_pairs):
    return _build_matcher("ED")._batch_scores(sample_pairs)


def test_sigkill_mid_round_is_absorbed(sample_pairs):
    """Slot 0's worker SIGKILLs itself on its first scoring request: the
    round still merges bit-identically, only that slot is evicted, and the
    fleet heals back to full width."""
    pool = _faulted_pool(WorkerFaultSpec(kill_on=((0, 1),)))
    try:
        reference = _reference_scores(sample_pairs)
        pool.begin_run()
        assert pool.batch_scores(sample_pairs) == reference
        assert pool.evictions == 1
        assert pool.reassigned_chunks == 1
        assert pool.reply_timeouts == 0
        assert pool.healthy
        assert pool.heal() == pool.size
        assert pool.respawns == 1
        # The healed fleet scores the next round fault-free.
        assert pool.batch_scores(sample_pairs) == reference
        assert pool.reassigned_chunks == 1
    finally:
        pool.close()


def test_hung_worker_hits_reply_deadline(sample_pairs):
    """A worker sleeping past the fleet-wide reply deadline is detected as
    hung, evicted, and its chunk rescued — the master never waits out the
    full hang."""
    pool = _faulted_pool(WorkerFaultSpec(hang_on=((1, 1),), hang_s=30.0))
    try:
        reference = _reference_scores(sample_pairs)
        pool.begin_run()
        assert pool.batch_scores(sample_pairs) == reference
        assert pool.reply_timeouts == 1
        assert pool.evictions == 1
        assert pool.reassigned_chunks == 1
        assert pool.heal() == pool.size
    finally:
        pool.close()


def test_corrupt_reply_is_rejected_and_rescued(sample_pairs):
    """A truncated similarity list must never merge (it would misalign
    every later pair): the garbled worker is evicted and the chunk
    re-scored in-process."""
    pool = _faulted_pool(WorkerFaultSpec(corrupt_on=((0, 1), (1, 2))))
    try:
        reference = _reference_scores(sample_pairs)
        pool.begin_run()
        assert pool.batch_scores(sample_pairs) == reference
        assert pool.evictions == 1
        assert pool.reassigned_chunks == 1
        assert pool.heal() == pool.size
        # Slot 1's second-request corruption fires in round two.
        assert pool.batch_scores(sample_pairs) == reference
        assert pool.evictions == 2
        assert pool.reassigned_chunks == 2
        assert pool.heal() == pool.size
        assert pool.respawns == 2
    finally:
        pool.close()


def test_single_bad_pipe_does_not_condemn_the_fleet(sample_pairs):
    """A reset/scatter pipe failure evicts one slot; the pool stays
    healthy and ``broken`` remains reserved for a fully dead fleet."""
    pool = _faulted_pool(None)
    try:
        reference = _reference_scores(sample_pairs)
        pool._slots[0].connection.close()
        pool.begin_run()
        assert pool._slots[0].state in (EVICTED, DEAD)
        assert pool._slots[1].state == ALIVE
        assert pool.healthy
        assert not pool.broken
        assert pool.batch_scores(sample_pairs) == reference
        assert pool.heal() == pool.size
    finally:
        pool.close()


def test_respawn_budget_exhaustion_breaks_the_pool(sample_pairs):
    """With ``max_respawns=0`` every eviction is terminal for its slot;
    when the whole fleet is dead the pool turns ``broken`` and scoring
    raises for good."""
    supervision = SupervisionConfig(
        reply_timeout_s=1.0,
        max_respawns=0,
        respawn_backoff=FAST_SUPERVISION.respawn_backoff,
    )
    pool = _faulted_pool(
        WorkerFaultSpec(kill_on=((0, 1), (1, 2))), supervision=supervision
    )
    try:
        reference = _reference_scores(sample_pairs)
        pool.begin_run()
        assert pool.batch_scores(sample_pairs) == reference
        assert pool._slots[0].state == DEAD
        assert pool.healthy  # slot 1 is still scoring
        assert pool.batch_scores(sample_pairs) == reference
        assert pool._slots[1].state == DEAD
        assert pool.broken
        assert not pool.healthy
        with pytest.raises(WorkerPoolError):
            pool.batch_scores(sample_pairs)
    finally:
        pool.close()


def test_supervision_telemetry_counts_the_schedule(sample_pairs):
    """Eviction/respawn/rescue counters match the explicit fault schedule
    exactly — the determinism that makes chaos benchmarks assertable."""
    pool = _faulted_pool(
        WorkerFaultSpec(kill_on=((0, 1),), corrupt_on=((1, 2),), hang_on=((0, 3),), hang_s=30.0)
    )
    try:
        reference = _reference_scores(sample_pairs)
        pool.begin_run()
        for _round in range(4):
            assert pool.batch_scores(sample_pairs) == reference
            pool.heal()
        # kill @ (0,1) and corrupt @ (1,2) fired; hang @ (0,3) did not:
        # slot 0's replacement runs incarnation 1, where explicit
        # schedules no longer apply.
        assert pool.evictions == 2
        assert pool.reassigned_chunks == 2
        assert pool.reply_timeouts == 0
        assert pool.respawns == 2
        assert pool.alive_count == pool.size
    finally:
        pool.close()


# ----------------------------------------------------------------------
# Crash-safe shm lifecycle
# ----------------------------------------------------------------------
def _shm_available():
    return os.path.isdir("/dev/shm") and os.access("/dev/shm", os.W_OK)


def test_atexit_sweep_unlinks_unclosed_segments():
    """A master that exits without ``close()`` must not leak segments: the
    atexit sweep unlinks everything still tracked."""
    if not _shm_available():
        pytest.skip("/dev/shm unavailable on this host")
    script = (
        "import sys; sys.path.insert(0, 'src');"
        "from repro.parallel.pool import _create_segment;"
        "print(_create_segment(32).name)"
    )
    completed = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, cwd=os.path.dirname(os.path.dirname(__file__)),
    )
    assert completed.returncode == 0, completed.stderr
    name = completed.stdout.strip().splitlines()[-1]
    assert name.startswith("repro_shm_")
    assert not os.path.exists(os.path.join("/dev/shm", name))


def test_stale_segments_of_dead_masters_are_reaped():
    """Debris named by a no-longer-running pid (a SIGKILLed master) is
    unlinked by the startup sweep."""
    if not _shm_available():
        pytest.skip("/dev/shm unavailable on this host")
    child = subprocess.Popen([sys.executable, "-c", "pass"])
    child.wait()
    stale = os.path.join("/dev/shm", f"repro_shm_{child.pid}_1")
    with open(stale, "wb") as handle:
        handle.write(b"\0" * 16)
    try:
        assert sweep_stale_segments() >= 1
        assert not os.path.exists(stale)
    finally:
        if os.path.exists(stale):  # pragma: no cover - sweep failed
            os.unlink(stale)


def test_live_segments_are_not_reaped():
    """The sweep never touches segments of running masters — including our
    own freshly published one."""
    if not _shm_available():
        pytest.skip("/dev/shm unavailable on this host")
    segment = _create_segment(16)
    try:
        sweep_stale_segments()
        assert os.path.exists(os.path.join("/dev/shm", segment.name))
    finally:
        from repro.parallel.pool import _release_segment

        _release_segment(segment)


# ----------------------------------------------------------------------
# Engine level: bit-identity under chaos, all strategies × both engines
# ----------------------------------------------------------------------
#: One kill, one corrupt, one hang early in the run, each on its own slot
#: of a three-worker fleet: explicit schedules bind a slot's *first*
#: incarnation only and every fault ends in an eviction, so a slot can
#: deliver at most one.  Ordinals count *hand-offs* (a slot gets one
#: request per hand-off): the faults land on a run's first three.
ENGINE_FAULTS = WorkerFaultSpec(
    kill_on=((0, 1),), corrupt_on=((1, 2),), hang_on=((2, 3),), hang_s=30.0
)
ENGINE_FLEET = 3


@pytest.fixture
def small_hand_offs(monkeypatch):
    """Hand-offs of 200 pairs instead of 2048.  These runs score ~1.6k
    pairs — at full size one hand-off, made by the drain's join — so this
    is what gives them a hand-off *sequence*: eight or so, all but the last
    scattered from an emission round while the master goes on emitting."""
    monkeypatch.setattr("repro.execution.core.HAND_OFF_PAIRS", 200)


def _assert_whole_schedule_fired(pool):
    """Every entry of ``ENGINE_FAULTS``, and nothing else."""
    assert pool.evictions == 3, "fault schedule did not fire as pinned"
    assert pool.reassigned_chunks == 3
    assert pool.reply_timeouts == 1


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_chaos_invariance_serial_engine(dataset, plan, strategy, small_hand_offs):
    serial, serial_ckpt = _run(
        StreamingEngine, dataset, plan, strategy, checkpoint_every=2.0
    )
    pool = _faulted_pool(ENGINE_FAULTS, workers=ENGINE_FLEET)
    try:
        chaotic, chaotic_ckpt = _run(
            StreamingEngine, dataset, plan, strategy,
            workers=pool.size, pool=pool, checkpoint_every=2.0,
        )
        _assert_whole_schedule_fired(pool)
        assert _comparable(chaotic) == _comparable(serial)
        assert _checkpoint_fingerprint(chaotic_ckpt) == _checkpoint_fingerprint(serial_ckpt)
        counters = chaotic.details["metrics"]["counters"]
        assert counters["parallel.supervision.evictions"] == pool.evictions
        assert counters["parallel.supervision.reassigned_chunks"] == pool.reassigned_chunks
        assert pool.heal() == pool.size
    finally:
        pool.close()


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_chaos_invariance_pipelined_engine(dataset, plan, strategy, small_hand_offs):
    serial, _ = _run(PipelinedStreamingEngine, dataset, plan, strategy)
    pool = _faulted_pool(ENGINE_FAULTS, workers=ENGINE_FLEET)
    try:
        chaotic, _ = _run(
            PipelinedStreamingEngine, dataset, plan, strategy,
            workers=pool.size, pool=pool,
        )
        _assert_whole_schedule_fired(pool)
        assert _comparable(chaotic) == _comparable(serial)
    finally:
        pool.close()


@pytest.mark.parametrize("engine_cls", [StreamingEngine, PipelinedStreamingEngine])
@pytest.mark.parametrize("kind", ["kill", "hang", "corrupt"])
def test_fault_on_a_hand_off_in_flight_while_the_master_emits(
    dataset, plan, kind, engine_cls, small_hand_offs, monkeypatch
):
    """The faulted hand-off (slot 0's second request) is scattered from an
    emission round, the master goes on prioritising, and the eviction and
    rescue happen at the next hand-off's gather — before the drain's own
    join ever runs."""
    serial, _ = _run(engine_cls, dataset, plan, "I-PES")
    pool = _faulted_pool(WorkerFaultSpec(**{f"{kind}_on": ((0, 2),)}, hang_s=30.0))
    evictions_at_join = []
    join = engine_cls._join

    def spy(engine, state):
        evictions_at_join.append(pool.evictions)
        join(engine, state)

    monkeypatch.setattr(engine_cls, "_join", spy)
    try:
        chaotic, _ = _run(
            engine_cls, dataset, plan, "I-PES", workers=pool.size, pool=pool
        )
        assert evictions_at_join == [1]
        assert pool.evictions == 1
        assert pool.reassigned_chunks == 1
        assert pool.reply_timeouts == (1 if kind == "hang" else 0)
        assert _comparable(chaotic) == _comparable(serial)
        counters = chaotic.details["metrics"]["counters"]
        assert counters["parallel.rounds_sharded"] > 3
        assert counters["parallel.pairs_sharded"] == chaotic.comparisons_executed
        assert pool.heal() == pool.size
    finally:
        pool.close()


def test_hand_off_does_not_outlive_a_crashed_drain(dataset, plan, monkeypatch):
    """A crash leaves ``_drive`` with a hand-off in flight.  Its reply must
    not stay in the pipe: the next run on the pool would read it as its
    own, call it garbled and evict a healthy worker (results would still be
    right, through the rescue — which is why only the counters can tell)."""
    monkeypatch.setattr("repro.execution.core.HAND_OFF_PAIRS", 100)
    uninterrupted, uninterrupted_ckpt = _run(
        StreamingEngine, dataset, plan, "I-PES", checkpoint_every=3.0
    )
    pool = _faulted_pool(None)
    try:
        engine = StreamingEngine(
            _build_matcher("ED"), budget=BUDGET, workers=pool.size, pool=pool,
            resilience=ResilienceConfig(checkpoint_every=3.0, crash_at=4.0),
        )
        in_flight_at_join = []
        join = StreamingEngine._join

        def spy(engine, state):
            in_flight_at_join.append(state.in_flight is not None)
            join(engine, state)

        monkeypatch.setattr(StreamingEngine, "_join", spy)
        with pytest.raises(SimulatedCrash) as crash:
            engine.run(_build_system("I-PES", dataset), plan, dataset.ground_truth)
        monkeypatch.setattr(StreamingEngine, "_join", join)
        # [the cadence checkpoint's join, the crashing drain's]: the crash
        # did hit with a hand-off in flight.
        assert in_flight_at_join == [True, True]
        assert pool._outstanding is None
        resumed_engine = StreamingEngine(
            _build_matcher("ED"), budget=BUDGET, workers=pool.size, pool=pool,
            checkpoint_every=3.0,
        )
        resumed = resumed_engine.run(
            _build_system("I-PES", dataset), plan, dataset.ground_truth,
            resume_from=crash.value.checkpoint,
        )
        assert pool.evictions == 0
        assert pool.reassigned_chunks == 0
        assert _comparable(resumed) == _comparable(uninterrupted)
        assert _checkpoint_fingerprint(resumed_engine.last_checkpoint) == (
            _checkpoint_fingerprint(uninterrupted_ckpt)
        )
    finally:
        pool.close()


def test_begin_run_is_refused_while_a_hand_off_is_outstanding(sample_pairs):
    pool = _faulted_pool(None)
    try:
        pool.begin_run()
        ticket = pool.scatter(sample_pairs)
        with pytest.raises(RuntimeError, match="hand-off"):
            pool.begin_run()
        with pytest.raises(RuntimeError, match="hand-off"):
            pool.scatter(sample_pairs)
        assert pool.gather(ticket) == _reference_scores(sample_pairs)
        pool.begin_run()
        assert pool.evictions == 0
    finally:
        pool.close()


def test_reply_already_in_the_pipe_is_not_a_timeout(sample_pairs):
    """The reply deadline runs from the scatter; a master that comes back
    after it must still take the reply that has been waiting for it."""
    supervision = SupervisionConfig(
        reply_timeout_s=0.2, respawn_backoff=FAST_SUPERVISION.respawn_backoff
    )
    pool = _faulted_pool(None, supervision=supervision)
    try:
        pool.begin_run()
        pool.batch_scores(sample_pairs)  # warm: the next reply takes milliseconds
        ticket = pool.scatter(sample_pairs)
        time.sleep(0.6)
        assert pool.gather(ticket) == _reference_scores(sample_pairs)
        assert pool.reply_timeouts == 0
        assert pool.evictions == 0
    finally:
        pool.close()


def test_crash_resume_across_fault_schedule(dataset, plan, small_hand_offs):
    """A run that crashes mid-chaos resumes from its checkpoint on a fresh
    faulted fleet and still ends bit-identical to the uninterrupted serial
    run."""
    pool = _faulted_pool(ENGINE_FAULTS, workers=ENGINE_FLEET)
    try:
        engine = StreamingEngine(
            _build_matcher("ED"),
            budget=BUDGET,
            workers=pool.size,
            pool=pool,
            resilience=ResilienceConfig(checkpoint_every=1.0, crash_at=4.0),
        )
        with pytest.raises(SimulatedCrash) as crash:
            engine.run(_build_system("I-PES", dataset), plan, dataset.ground_truth)
        checkpoint = crash.value.checkpoint
        assert checkpoint is not None
        _assert_whole_schedule_fired(pool)  # all of it before the crash
    finally:
        pool.close()

    resume_pool = _faulted_pool(WorkerFaultSpec(kill_on=((1, 1),)))
    try:
        resumed = StreamingEngine(
            _build_matcher("ED"), budget=BUDGET,
            workers=resume_pool.size, pool=resume_pool,
        ).run(
            _build_system("I-PES", dataset), plan, dataset.ground_truth,
            resume_from=checkpoint,
        )
        assert resume_pool.evictions == 1
    finally:
        resume_pool.close()
    uninterrupted, _ = _run(StreamingEngine, dataset, plan, "I-PES")
    assert resumed.duplicates == uninterrupted.duplicates
    assert resumed.clock_end == uninterrupted.clock_end
    assert resumed.final_pc == uninterrupted.final_pc


def test_session_chaos_run_matches_clean_run(dataset):
    """The ERSession-level knob: a seeded chaos fleet produces the same
    result surface as the serial run."""
    def session_for(workers, worker_faults):
        return ERSession(
            dataset,
            systems=("I-PES",),
            matcher="ED",
            n_increments=8,
            rate=5.0,
            budget=BUDGET,
            worker_faults=worker_faults,
            # min_shard=1 so even the small test batches shard; the
            # production threshold only changes *when* the pool is
            # consulted, never the results.
            engine=EngineOptions(workers=workers, reply_timeout_s=1.0, min_shard=1),
        )

    with session_for(1, None) as session:
        serial = session.run()
    # One drain, fewer pairs than a full hand-off: the join's is the only one.
    with session_for(2, WorkerFaultSpec(kill_on=((0, 1),))) as session:
        chaotic = session.run()
        if session._pool is None:
            pytest.skip("process pool unavailable on this host")
    assert _comparable(chaotic) == _comparable(serial)
    counters = chaotic.details["metrics"]["counters"]
    assert counters["parallel.supervision.evictions"] == 1
    assert counters["parallel.supervision.reassigned_chunks"] == 1
