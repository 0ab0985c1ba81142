"""Tests for the process-parallel matching fleet (``repro.parallel``).

The contract under test is the tentpole guarantee: parallelism is an
executor choice, never a semantics choice.  Whatever the worker count,

* a run's progress curve, duplicates, comparison count, and virtual
  clocks are bit-identical to the serial run;
* the exported metric snapshot differs only in the ``parallel.*``
  telemetry and the wall-only ``scatter`` phase
  (:func:`strip_parallel_telemetry` removes exactly that surface);
* mid-run checkpoints carry byte-identical ``metrics_state`` — parallel
  telemetry flushes at finalize, after the last possible checkpoint;
* a pool that cannot start or breaks degrades to in-process scoring with
  the same results, counted in ``parallel.fallbacks``;
* a profile crosses to a worker once per run (the chunks of a hand-off
  carry what their worker has not received this epoch).

Worker failures (kill, stop, garbled reply) are in ``test_supervision.py``.
"""

from __future__ import annotations

import itertools
import multiprocessing
import random

import pytest

from repro.api import ERSession
from repro.core.increments import make_stream_plan, split_into_increments
from repro.evaluation.experiments import ExperimentConfig, _build_matcher, _build_system
from repro.parallel import WorkerPool, strip_parallel_telemetry
from repro.parallel.cells import run_cells
from repro.resilience import ResilienceConfig
from repro.streaming.engine import StreamingEngine
from repro.streaming.pipelined import PipelinedStreamingEngine

from tests.conftest import ShortReplies, by_pid, make_profile, pool_or_skip
from tests.reference.crash import SimulatedCrash, crash_at

STRATEGIES = ["I-PCS", "I-PBS", "I-PES", "I-BASE"]
ENGINES = {"serial": StreamingEngine, "pipelined": PipelinedStreamingEngine}
BUDGET = 8.0


@pytest.fixture(scope="module")
def dataset(small_dblp_acm):
    return small_dblp_acm


@pytest.fixture(scope="module")
def plan(small_dblp_acm):
    increments = split_into_increments(small_dblp_acm, 8, seed=0)
    return make_stream_plan(increments, rate=5.0)


@pytest.fixture(scope="module")
def ed_pool():
    """One shared 2-worker ED pool for the whole module (spawn is slow)."""
    pool = pool_or_skip("ED")
    yield pool
    pool.close()


def _comparable(result):
    """Everything observable about a run except wall clocks and the
    parallel telemetry (the documented divergence surface)."""
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
        "stream_consumed_at": result.stream_consumed_at,
        "work_exhausted": result.work_exhausted,
        "increments_ingested": result.increments_ingested,
        "match_events": result.match_events,
        "metrics": metrics,
    }


def _checkpoint_fingerprint(checkpoint):
    """The deterministic portion of a checkpoint — only wall clocks go.

    Notably ``metrics_state`` is compared *without* any parallel
    stripping: mid-run telemetry never reaches the registry, so the
    checkpoint bytes must already coincide across worker counts.
    """
    metrics_state = dict(checkpoint.metrics_state)
    metrics_state["phases"] = {
        phase: (virtual_s, count)
        for phase, (virtual_s, _wall_s, count) in metrics_state["phases"].items()
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
        metrics_state,
    )


def _run(engine_cls, dataset, plan, strategy, *, workers=1, pool=None, **kwargs):
    engine = engine_cls(
        _build_matcher("ED"), budget=BUDGET, workers=workers, pool=pool, **kwargs
    )
    result = engine.run(_build_system(strategy, dataset), plan, dataset.ground_truth)
    return result, engine.last_checkpoint


# ----------------------------------------------------------------------
# Pool unit level: sharded scoring is the in-process kernel, verbatim
# ----------------------------------------------------------------------
@pytest.mark.parametrize("matcher_name", ["JS", "ED"])
def test_pool_batch_scores_bit_identical(dataset, matcher_name):
    rng = random.Random(3)
    profiles = dataset.profiles
    pairs, lookup = by_pid([
        (profiles[rng.randrange(len(profiles))], profiles[rng.randrange(len(profiles))])
        for _ in range(150)
    ])
    reference = _build_matcher(matcher_name)._batch_scores(pairs, lookup)
    pool = pool_or_skip(matcher_name)
    try:
        pool.begin_run()
        assert pool.batch_scores(pairs, lookup) == reference
        # A second round reuses the workers' profile caches; still identical.
        assert pool.batch_scores(pairs[::-1], lookup) == reference[::-1]
    finally:
        pool.close()


class _RecordingConnection:
    """A slot connection that keeps every message the master sends."""

    def __init__(self, connection):
        self.connection = connection
        self.messages = []

    def send(self, message):
        self.messages.append(message)
        self.connection.send(message)

    def __getattr__(self, name):
        return getattr(self.connection, name)


def test_pool_ships_each_profile_once_per_run(dataset, ed_pool):
    """A chunk carries only the profiles its worker has not received this
    epoch; a new run (``begin_run``) re-ships them under the next epoch."""
    rng = random.Random(11)
    profiles = dataset.profiles
    pairs, lookup = by_pid([
        (profiles[rng.randrange(len(profiles))], profiles[rng.randrange(len(profiles))])
        for _ in range(120)
    ])
    reference = _build_matcher("ED")._batch_scores(pairs, lookup)
    ed_pool.begin_run()
    recorders = ed_pool._connections[:] = [
        _RecordingConnection(connection) for connection in ed_pool._connections
    ]
    try:
        assert ed_pool.batch_scores(pairs, lookup) == reference
        assert ed_pool.batch_scores(pairs[::-1], lookup) == reference[::-1]
        ed_pool.begin_run()
        assert ed_pool.batch_scores(pairs, lookup) == reference
    finally:
        ed_pool._connections[:] = [recorder.connection for recorder in recorders]
    for slot, recorder in enumerate(recorders):
        (epoch, first, pid_pairs), (same_epoch, again, _), (next_epoch, fresh, _) = (
            recorder.messages
        )
        chunk_pids = {pid for pair in pid_pairs for pid in pair}
        assert sorted(profile.pid for profile in first) == sorted(chunk_pids), slot
        assert same_epoch == epoch and next_epoch == epoch + 1
        assert {profile.pid for profile in again}.isdisjoint(chunk_pids)
        assert {profile.pid for profile in fresh} == chunk_pids


def test_pool_pickle_fallback_bit_identical(dataset):
    """Profiles reach the workers pickled inside the chunks (the only
    transport), and a pool that breaks falls back to its in-process rescue
    replica: both score bit-identically to one in-process call."""
    rng = random.Random(13)
    profiles = dataset.profiles
    pairs, lookup = by_pid([
        (profiles[rng.randrange(len(profiles))], profiles[rng.randrange(len(profiles))])
        for _ in range(80)
    ])
    reference = _build_matcher("ED")._batch_scores(pairs, lookup)
    pool = pool_or_skip("ED")
    try:
        pool.begin_run()
        assert pool.batch_scores(pairs, lookup) == reference
        pool._connections[0] = ShortReplies(pool._connections[0])
        assert pool.batch_scores(pairs[::-1], lookup) == reference[::-1]
        assert pool.broken
        similarities, _counts = pool._score_in_process(pairs, lookup)
        assert similarities == reference
    finally:
        pool.close()


def _colliding_rounds():
    """Two 8-profile datasets under the same pids 0–7, each as a pid pair
    list whose halves (= the two workers' chunks) both touch every pid, and
    its lookup."""
    texts_a = [f"alice smith springfield illinois {i}" for i in range(8)]
    texts_b = [f"alice smith springfeld ilinois {i * i}" for i in range(8)]
    rounds = []
    for texts in (texts_a, texts_b):
        profiles = [make_profile(pid, text) for pid, text in enumerate(texts)]
        half = list(itertools.combinations(profiles, 2))
        rounds.append(by_pid(half + half[::-1]))
    return rounds


# The ids name the transport too: profiles travel inline, pickled in the chunks.
@pytest.mark.parametrize("path", ["workers", "rescue"], ids=["workers-inline", "rescue-inline"])
def test_second_run_with_colliding_pids_is_not_scored_from_the_first(path):
    """Regression: the matcher's derived cache is keyed by pid; worker
    replicas (and the pool's in-process rescue replica) kept it across
    ``begin_run``, so a second dataset reusing the pids was scored from the
    first one's texts.  On the rescue path a garbled reply hands the first
    run's second chunk to the rescue replica (and breaks the pool); the
    replica, reset by ``begin_run``, then scores the second run."""
    first, second = _colliding_rounds()
    reference = _build_matcher("ED")._batch_scores(*first)
    assert _build_matcher("ED")._batch_scores(*second) != reference
    pool = pool_or_skip("ED")
    try:
        if path == "rescue":
            pool._connections[1] = ShortReplies(pool._connections[1])
        pool.begin_run()
        assert pool.batch_scores(*first) == reference
        pool.begin_run()
        if path == "workers":
            assert pool.batch_scores(*second) == _build_matcher("ED")._batch_scores(*second)
        else:
            assert pool.broken
            similarities, _counts = pool._score_in_process(*second)
            assert similarities == _build_matcher("ED")._batch_scores(*second)
    finally:
        pool.close()


def test_pool_create_refuses_single_worker():
    assert WorkerPool.create(1, _build_matcher("JS")) is None


def test_pool_close_is_idempotent():
    pool = pool_or_skip("JS")
    workers = set(pool._processes)
    pool.close()
    pool.close()
    assert not pool.healthy
    assert workers.isdisjoint(multiprocessing.active_children())


# ----------------------------------------------------------------------
# Engine level: worker-count invariance across strategies and engines
# ----------------------------------------------------------------------
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_worker_count_invariance_serial_engine(dataset, plan, strategy, ed_pool):
    serial, serial_ckpt = _run(
        StreamingEngine, dataset, plan, strategy,
        resilience=ResilienceConfig(checkpoint_every=2.0),
    )
    sharded, sharded_ckpt = _run(
        StreamingEngine,
        dataset,
        plan,
        strategy,
        workers=ed_pool.size,
        pool=ed_pool,
        resilience=ResilienceConfig(checkpoint_every=2.0),
    )
    assert _comparable(sharded) == _comparable(serial)
    assert _checkpoint_fingerprint(sharded_ckpt) == _checkpoint_fingerprint(serial_ckpt)
    counters = sharded.details["metrics"]["counters"]
    assert counters["parallel.rounds_sharded"] > 0
    assert counters["parallel.fallbacks"] == 0
    assert sharded.details["metrics"]["gauges"]["parallel.workers"] == ed_pool.size
    assert serial.details["metrics"]["gauges"]["parallel.workers"] == 1.0


def test_worker_count_invariance_pipelined_engine(dataset, plan, ed_pool):
    serial, _ = _run(PipelinedStreamingEngine, dataset, plan, "I-PES")
    sharded, _ = _run(
        PipelinedStreamingEngine,
        dataset,
        plan,
        "I-PES",
        workers=ed_pool.size,
        pool=ed_pool,
    )
    assert _comparable(sharded) == _comparable(serial)
    assert sharded.details["metrics"]["counters"]["parallel.rounds_sharded"] > 0


@pytest.mark.parametrize("engine_name", list(ENGINES))
@pytest.mark.parametrize("matcher_name", ["JS", "ED"])
@pytest.mark.parametrize("path", ["workers", "in-process"])
def test_pps_local_worker_count_invariance(dataset, plan, engine_name, matcher_name, path):
    """Regression: PPS-LOCAL empties its profile store at every increment,
    while a pool run scores its charged pid pairs only at a hand-off or a
    join, several ingests later.  The pool (``workers``) and the master's
    own tail scoring (``in-process``, every hand-off under ``min_shard``)
    once looked those pids up in the live store, which had dropped them;
    the engine now resolves a pair's profiles when it charges the pair."""
    engine_cls = ENGINES[engine_name]
    pool = pool_or_skip(matcher_name)
    if path == "in-process":
        pool.min_shard = len(dataset) ** 2

    def run(**kwargs):
        engine = engine_cls(_build_matcher(matcher_name), budget=BUDGET, **kwargs)
        system = _build_system("PPS-LOCAL", dataset)
        return engine.run(system, plan, dataset.ground_truth), system

    try:
        serial, _ = run()
        sharded, system = run(workers=pool.size, pool=pool)
    finally:
        pool.close()
    assert _comparable(sharded) == _comparable(serial)
    assert system.initializations > 1 and serial.duplicates
    sharded_rounds = sharded.details["metrics"]["counters"]["parallel.rounds_sharded"]
    assert (sharded_rounds > 0) == (path == "workers")


def test_sharded_run_merges_matcher_kernel_counters(dataset, plan, ed_pool):
    """The workers' staged-scoring outcomes merge back so
    ``matcher.kernel.*`` telemetry is bit-identical to the serial run (it
    is NOT stripped by :func:`strip_parallel_telemetry`); ``parallel.shm_bytes``
    is still exported, at 0 — profiles travel inside the hand-offs."""
    serial, _ = _run(StreamingEngine, dataset, plan, "I-PES")
    sharded, _ = _run(
        StreamingEngine, dataset, plan, "I-PES", workers=ed_pool.size, pool=ed_pool
    )
    counters = sharded.details["metrics"]["counters"]
    serial_counters = serial.details["metrics"]["counters"]
    kernel_keys = [key for key in counters if key.startswith("matcher.kernel.")]
    assert kernel_keys
    assert counters["matcher.kernel.dp_calls"] > 0
    for key in kernel_keys:
        assert counters[key] == serial_counters[key]
    assert counters["parallel.shm_bytes"] == serial_counters["parallel.shm_bytes"] == 0


def test_metric_schema_invariant_across_worker_counts(dataset, plan, ed_pool):
    serial, _ = _run(StreamingEngine, dataset, plan, "I-PES")
    sharded, _ = _run(
        StreamingEngine, dataset, plan, "I-PES", workers=ed_pool.size, pool=ed_pool
    )
    serial_metrics = serial.details["metrics"]
    sharded_metrics = sharded.details["metrics"]
    assert set(serial_metrics["counters"]) == set(sharded_metrics["counters"])
    assert set(serial_metrics["gauges"]) == set(sharded_metrics["gauges"])
    assert set(serial_metrics["phases"]) == set(sharded_metrics["phases"])


# ----------------------------------------------------------------------
# Degradation: a fleet that cannot start changes nothing but a counter
# ----------------------------------------------------------------------
def _session_run(dataset, workers):
    with ERSession(
        dataset, systems=("I-PES",), matcher="ED", n_increments=8, rate=5.0,
        budget=BUDGET, workers=workers,
    ) as session:
        return session.run()


def test_pool_startup_failure_degrades_in_process(dataset, monkeypatch):
    """No worker answers the handshake in time: ``create`` returns
    ``None`` with no child left behind, and the run scores in-process."""
    serial = _session_run(dataset, 1)
    monkeypatch.setattr("repro.parallel.pool.HANDSHAKE_TIMEOUT_S", 0.0)
    children = set(multiprocessing.active_children())
    assert WorkerPool.create(2, _build_matcher("ED")) is None
    assert set(multiprocessing.active_children()) == children
    degraded = _session_run(dataset, 4)
    assert _comparable(degraded) == _comparable(serial)
    counters = degraded.details["metrics"]["counters"]
    assert counters["parallel.fallbacks"] == 1
    assert counters["parallel.rounds_sharded"] == 0
    assert degraded.details["metrics"]["gauges"]["parallel.workers"] == 1.0
    assert set(multiprocessing.active_children()) == children


def test_closed_pool_is_bypassed(dataset, plan):
    pool = pool_or_skip("ED")
    pool.close()
    serial, _ = _run(StreamingEngine, dataset, plan, "I-PES")
    bypassed, _ = _run(
        StreamingEngine, dataset, plan, "I-PES", workers=2, pool=pool
    )
    assert _comparable(bypassed) == _comparable(serial)
    counters = bypassed.details["metrics"]["counters"]
    assert counters["parallel.rounds_sharded"] == 0
    assert counters["parallel.fallbacks"] > 0


# ----------------------------------------------------------------------
# Composition: checkpoints resume across fleets
# ----------------------------------------------------------------------
def test_resume_crosses_worker_counts(dataset, plan, ed_pool):
    """A checkpoint taken serially resumes bit-identically on a fleet."""
    engine = StreamingEngine(
        _build_matcher("ED"),
        budget=BUDGET,
        resilience=ResilienceConfig(checkpoint_every=1.0),
    )
    with crash_at(4.0), pytest.raises(SimulatedCrash) as exc:
        engine.run(_build_system("I-PES", dataset), plan, dataset.ground_truth)
    checkpoint = exc.value.checkpoint
    assert checkpoint is not None

    resumed = StreamingEngine(
        _build_matcher("ED"), budget=BUDGET, workers=ed_pool.size, pool=ed_pool
    ).run(
        _build_system("I-PES", dataset),
        plan,
        dataset.ground_truth,
        resume_from=checkpoint,
    )
    uninterrupted, _ = _run(StreamingEngine, dataset, plan, "I-PES")
    assert resumed.duplicates == uninterrupted.duplicates
    assert resumed.clock_end == uninterrupted.clock_end
    assert resumed.final_pc == uninterrupted.final_pc


# ----------------------------------------------------------------------
# Tier B: fanned-out comparison cells collate exactly like the serial loop
# ----------------------------------------------------------------------
def test_run_cells_parallel_collation_matches_serial():
    config = ExperimentConfig(
        dataset_name="dblp_acm",
        systems=("I-PES", "I-BASE"),
        matcher="JS",
        scale=0.2,
        n_increments=8,
        rate=5.0,
        budget=5.0,
    )
    serial = run_cells(config, config.systems, workers=1)
    fanned = run_cells(config, config.systems, workers=2)
    assert [_comparable(r) for r in fanned] == [_comparable(r) for r in serial]
