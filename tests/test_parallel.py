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
* a pool whose workers never answer the handshake, or that breaks,
  degrades to in-process scoring with the same results, counted in
  ``parallel.fallbacks``;
* a profile crosses to a worker once per run (the chunks of a hand-off
  carry what their worker has not received this epoch).

Worker failures (kill, stop, garbled reply) are in ``test_supervision.py``.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.api import ERSession
from repro.core.increments import make_stream_plan, split_into_increments
from repro.evaluation.experiments import ExperimentConfig, _build_matcher, _build_system
from repro.parallel import WorkerPool, strip_parallel_telemetry
from repro.parallel.cells import run_cells
from repro.resilience import ResilienceConfig
from repro.streaming.engine import StreamingEngine
from repro.streaming.pipelined import PipelinedStreamingEngine

from tests.conftest import (
    ShortReplies, assert_reaped, by_pid, make_profile, pool_or_skip, record_posts, worker_pids,
)
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


def test_pool_ships_each_profile_once_per_run(dataset, ed_pool):
    """A chunk carries the wire records of only the profiles its worker has
    not received this epoch — ``(pid, matcher.wire(profile))``, never the
    profile; a new run (``begin_run``) re-ships them under the next epoch."""
    rng = random.Random(11)
    profiles = dataset.profiles
    pairs, lookup = by_pid([
        (profiles[rng.randrange(len(profiles))], profiles[rng.randrange(len(profiles))])
        for _ in range(120)
    ])
    matcher = _build_matcher("ED")
    reference = matcher._batch_scores(pairs, lookup)
    ed_pool.begin_run()
    posted = record_posts(ed_pool)
    try:
        assert ed_pool.batch_scores(pairs, lookup) == reference
        assert ed_pool.batch_scores(pairs[::-1], lookup) == reference[::-1]
        ed_pool.begin_run()
        assert ed_pool.batch_scores(pairs, lookup) == reference
    finally:
        del ed_pool._post
    for slot, messages in enumerate(posted):
        (epoch, first, pid_pairs), (same_epoch, again, _), (next_epoch, fresh, _) = messages
        chunk_pids = {pid for pair in pid_pairs for pid in pair}
        assert sorted(pid for pid, _ in first) == sorted(chunk_pids), slot
        assert all(wire == matcher.wire(lookup[pid]) for pid, wire in first + fresh)
        assert same_epoch == epoch and next_epoch == epoch + 1
        assert {pid for pid, _ in again}.isdisjoint(chunk_pids)
        assert {pid for pid, _ in fresh} == chunk_pids


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
    pids = worker_pids(pool)
    pool.close()
    pool.close()
    assert not pool.healthy
    assert_reaped(pids)


def test_pool_closed_before_its_handshake_reaps_its_workers():
    """``create`` returns once the workers are launched; a pool closed
    before any hand-off read their handshake kills and reaps them."""
    pool = WorkerPool.create(2, _build_matcher("ED"))
    if pool is None:
        pytest.skip("process pool unavailable on this host")
    pids = worker_pids(pool)
    assert len(pids) == 2
    pool.close()
    assert_reaped(pids)


def test_workers_run_with_the_parents_interpreter_flags():
    """A parent run under ``-O -W error`` gets workers under the same flags,
    and they still answer the handshake."""
    script = (
        "from repro.evaluation.experiments import _build_matcher\n"
        "from repro.parallel import WorkerPool\n"
        "pool = WorkerPool.create(2, _build_matcher('ED'))\n"
        "pool.batch_scores([], {})\n"
        "print(pool.healthy, *pool._processes[0].args[1:pool._processes[0].args.index('-c')])\n"
        "pool.close()\n"
    )
    done = subprocess.run(
        [sys.executable, "-O", "-W", "error", "-c", script],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert done.returncode == 0, done.stderr
    healthy, *flags = done.stdout.split()
    assert healthy == "True"
    assert "-O" in flags and "-Werror" in flags


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
    """No worker answers the handshake by its deadline: ``create`` still
    returns the launched pool, the first hand-off finds the fleet silent
    and breaks it, and every hand-off of the run is scored in-process and
    counted as a fallback.  The workers are stopped right after launch —
    a start that hangs — so none can answer before the run looks."""
    serial = _session_run(dataset, 1)
    healthy = _session_run(dataset, 2)
    hand_offs = healthy.details["metrics"]["counters"]["parallel.rounds_sharded"]
    assert hand_offs >= 1
    monkeypatch.setattr("repro.parallel.pool.HANDSHAKE_TIMEOUT_S", 0.0)
    with ERSession(
        dataset, systems=("I-PES",), matcher="ED", n_increments=8, rate=5.0,
        budget=BUDGET, workers=2,
    ) as session:
        session.push()  # launches the session's fleet
        pool = session._pool
        if pool is None:
            pytest.skip("process pool unavailable on this host")
        pids = worker_pids(pool)
        for pid in pids:
            os.kill(pid, signal.SIGSTOP)
        degraded = session.run()
        assert pool.broken
        assert_reaped(pids)
    assert _comparable(degraded) == _comparable(serial)
    counters = degraded.details["metrics"]["counters"]
    assert counters["parallel.rounds_sharded"] == 0
    assert counters["parallel.fallbacks"] == hand_offs
    assert degraded.details["metrics"]["gauges"]["parallel.workers"] == 1.0


#: A caller's script with no ``__main__`` guard: a worker that imported the
#: caller's ``__main__`` would run this whole body again before answering.
UNGUARDED_SCRIPT = """\
import json
from repro.api import ERSession

print("body", flush=True)
with ERSession(
    "dblp_acm", scale=0.2, matcher="ED", n_increments=8, rate=5.0, budget=8.0, workers=2,
) as session:
    counters = session.run().details["metrics"]["counters"]
print(json.dumps({name: counters[name] for name in ("parallel.pairs_sharded", "parallel.fallbacks")}))
"""


def test_a_callers_script_runs_once_however_many_workers(tmp_path):
    """Regression: every ``spawn`` worker re-imported the caller's
    ``__main__``, so a script without a ``__main__`` guard ran once per
    process (each worker a whole in-process session of its own, since its
    nested fleet could not start).  Workers now never import it."""
    script = tmp_path / "unguarded.py"
    script.write_text(UNGUARDED_SCRIPT)
    src = str(Path(repro.__file__).parents[1])
    done = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": src}, cwd=tmp_path,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines.count("body") == 1, done.stdout
    counters = json.loads(lines[-1])
    assert counters["parallel.pairs_sharded"] > 0
    assert counters["parallel.fallbacks"] == 0


def test_a_worker_imports_only_the_pool_and_the_matcher():
    """A worker loads the pool, the matcher's module and what those import:
    no session, engine, harness or server, and nothing of its caller."""
    from multiprocessing.connection import Pipe

    from repro.parallel import pool as pool_module

    master, child = Pipe()
    fd = child.fileno()
    process = subprocess.Popen(
        [sys.executable, "-X", "importtime", "-c", pool_module._WORKER_BOOT, str(fd), *sys.path],
        pass_fds=(fd,), stdin=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    )
    child.close()
    matcher = _build_matcher("ED")
    master.send((type(matcher), pool_module._template_state(matcher)))
    assert master.recv() == ("ok", "ready")
    master.close()
    _, log = process.communicate(timeout=60)
    modules = {line.rsplit("|", 1)[1].strip() for line in log.splitlines() if "|" in line}
    assert {"repro.parallel.pool", "repro.matching.matcher"} <= modules
    heavy = ("repro.api", "repro.execution", "repro.evaluation", "repro.service",
             "repro.streaming", "repro.parallel.cells", "benchmarks", "tests", "pytest", "_pytest")
    assert not {m for m in modules for h in heavy if m == h or m.startswith(h + ".")}


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
