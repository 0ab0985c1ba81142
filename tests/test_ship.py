"""Profiles reach the fleet at ingest: :meth:`WorkerPool.ship`.

An engine with a pool ships each ingested increment's profiles to every
worker as their matcher's wire records (``(pid, matcher.wire(profile))``),
so the workers derive their records while the master emits.  The contract
under test:

* a shipped pid never travels again in a chunk of the same epoch, and a new
  epoch ships it again;
* a ship is skipped — the profiles then travel with the next chunk — while
  a hand-off is outstanding, for a caller that does not own the epoch, and
  before the whole fleet has answered the handshake;
* a ship never blocks, raises or breaks the pool: a stopped worker fed more
  than its pipe holds still lets the run finish, broken at the reply
  deadline, and a dead pipe or a wrong handshake reply is found and
  reported by the next hand-off, as it would have been without the ship.
"""

from __future__ import annotations

import os
import pickle
import random
import signal
import time
from contextlib import contextmanager

import pytest

from repro.core.dataset import Dataset, ERKind, GroundTruth
from repro.core.increments import make_stream_plan, split_into_increments
from repro.evaluation.experiments import _build_matcher, _build_system
from repro.parallel import WorkerPool, WorkerPoolError, strip_parallel_telemetry
from repro.streaming.engine import StreamingEngine

from tests.conftest import (
    ShortReplies, assert_reaped, by_pid, make_profile, pool_or_skip, record_posts,
)


@pytest.fixture(scope="module")
def dataset(small_dblp_acm):
    return small_dblp_acm


@pytest.fixture(scope="module")
def sample(dataset):
    """90 random pairs of the dataset by pid, their lookup, and the profiles
    the pairs touch."""
    rng = random.Random(7)
    profiles = dataset.profiles
    pairs, lookup = by_pid([
        (profiles[rng.randrange(len(profiles))], profiles[rng.randrange(len(profiles))])
        for _ in range(90)
    ])
    return pairs, lookup, list(lookup.values())


def _shipped_pids(messages):
    return {pid for _, records, pairs in messages if pairs is None for pid, _ in records}


def _chunk_pids(messages):
    return {pid for _, records, pairs in messages if pairs is not None for pid, _ in records}


# ----------------------------------------------------------------------
# What a ship sends, and when it sends nothing
# ----------------------------------------------------------------------
def test_shipped_profiles_are_never_resent_in_a_chunk(sample):
    pairs, lookup, profiles = sample
    reference = _build_matcher("ED")._batch_scores(pairs, lookup)
    pool = pool_or_skip("ED")
    owner = object()
    try:
        pool.begin_run(owner)
        posted = record_posts(pool)
        pool.ship(owner, profiles)
        pool.ship(owner, profiles)  # nothing new: nothing sent
        assert pool.batch_scores(pairs, lookup) == reference
        assert pool.healthy
    finally:
        pool.close()
    matcher = _build_matcher("ED")
    for messages in posted:
        (epoch, records, none), (same_epoch, chunk_records, chunk) = messages
        assert none is None and same_epoch == epoch and chunk is not None
        assert records == [(profile.pid, matcher.wire(profile)) for profile in profiles]
        assert chunk_records == []


def test_an_epoch_bump_ships_again(sample):
    pairs, lookup, profiles = sample
    reference = _build_matcher("ED")._batch_scores(pairs, lookup)
    pool = pool_or_skip("ED")
    owner = object()
    try:
        pool.begin_run(owner)
        pool.ship(owner, profiles)
        posted = record_posts(pool)
        pool.begin_run(owner)
        pool.ship(owner, profiles)
        assert pool.batch_scores(pairs, lookup) == reference
    finally:
        pool.close()
    for messages in posted:
        (epoch, records, _), (same_epoch, chunk_records, _) = messages
        assert {pid for pid, _ in records} == set(lookup) and chunk_records == []
        assert same_epoch == epoch == pool._epoch


def test_a_ship_is_skipped_while_a_hand_off_is_outstanding(sample):
    pairs, lookup, profiles = sample
    first, rest = pairs[:30], pairs[30:]
    reference = _build_matcher("ED")._batch_scores(pairs, lookup)
    pool = pool_or_skip("ED")
    owner = object()
    try:
        pool.begin_run(owner)
        posted = record_posts(pool)
        ticket = pool.scatter(first, lookup)
        pool.ship(owner, profiles)
        assert all(len(messages) == 1 for messages in posted)  # the chunks only
        similarities = pool.gather(ticket)
        similarities += pool.batch_scores(rest, lookup)
        assert similarities == reference
    finally:
        pool.close()
    # Everything the skipped ship held travelled with a chunk instead.
    assert set().union(*map(_chunk_pids, posted)) == set(lookup)
    assert not set().union(*map(_shipped_pids, posted))


def test_a_ship_is_skipped_for_a_caller_that_does_not_own_the_epoch(sample):
    pairs, lookup, profiles = sample
    pool = pool_or_skip("ED")
    try:
        pool.begin_run(owner=object())
        posted = record_posts(pool)
        pool.ship(object(), profiles)
        assert posted == [[], []]
        assert pool._sent == [set(), set()]
        assert pool.batch_scores(pairs, lookup) == _build_matcher("ED")._batch_scores(
            pairs, lookup
        )
    finally:
        pool.close()


def test_a_ship_is_skipped_before_the_handshake(sample):
    """Workers stopped right after launch cannot have answered: the ship
    polls without waiting, sends nothing, and the first chunk carries the
    profiles once the handshake is read."""
    pairs, lookup, profiles = sample
    pool = WorkerPool.create(2, _build_matcher("ED"))
    if pool is None:
        pytest.skip("process pool unavailable on this host")
    pids = [process.pid for process in pool._processes]
    try:
        for pid in pids:
            os.kill(pid, signal.SIGSTOP)
        owner = object()
        pool.begin_run(owner)
        posted = record_posts(pool)
        started = time.monotonic()
        pool.ship(owner, profiles)
        assert time.monotonic() - started < 1.0
        assert posted == [[], []] and pool._ready_by is not None
        for pid in pids:
            os.kill(pid, signal.SIGCONT)
        pool.min_shard = 1
        assert pool.batch_scores(pairs, lookup) == _build_matcher("ED")._batch_scores(
            pairs, lookup
        )
        assert pool.healthy
        assert set().union(*map(_chunk_pids, posted)) == set(lookup)
    finally:
        pool.close()
    assert_reaped(pids)


# ----------------------------------------------------------------------
# A ship never blocks, raises or breaks the pool
# ----------------------------------------------------------------------
def test_a_ship_to_a_dead_worker_leaves_the_rescue_to_the_next_hand_off(sample):
    pairs, lookup, profiles = sample
    reference = _build_matcher("ED")._batch_scores(pairs, lookup)
    pool = pool_or_skip("ED")
    pids = [process.pid for process in pool._processes]
    owner = object()
    try:
        pool.begin_run(owner)
        os.kill(pids[0], signal.SIGKILL)
        pool._processes[0].wait()  # its end of the pipe is closed now
        pool.ship(owner, profiles)
        assert pool.healthy and pool.evictions == 0
        assert pool.batch_scores(pairs, lookup) == reference
        assert pool.broken and pool.evictions == pool.size
    finally:
        pool.close()
    assert_reaped(pids)


class _WrongHandshake:
    """Stands in for one slot connection: the worker's ready reply is read
    as something else."""

    def __init__(self, connection):
        self.connection = connection
        self.answered = False

    def recv(self):
        message = self.connection.recv()
        if not self.answered:
            self.answered = True
            return ("ok", "not ready")
        return message

    def __getattr__(self, name):
        return getattr(self.connection, name)


def test_a_wrong_handshake_read_by_a_ship_is_reported_by_the_next_hand_off(sample):
    pairs, lookup, profiles = sample
    pool = WorkerPool.create(2, _build_matcher("ED"))
    if pool is None:
        pytest.skip("process pool unavailable on this host")
    pids = [process.pid for process in pool._processes]
    owner = object()
    try:
        pool._connections[0] = _WrongHandshake(pool._connections[0])
        for connection in pool._connections:
            if not connection.poll(30.0):
                pytest.skip("the workers did not start in time")
        pool.begin_run(owner)
        pool.ship(owner, profiles)
        assert pool.healthy and pool._connections[0].answered
        started = time.monotonic()
        with pytest.raises(WorkerPoolError, match="handshake"):
            pool.scatter(pairs, lookup)
        assert time.monotonic() - started < 5.0  # found, not waited for
        assert pool.broken and pool.evictions == pool.size
    finally:
        pool.close()
    assert_reaped(pids)


class _Blocked(Exception):
    """Not an ``OSError``: no handler of a failed write can swallow it."""


@contextmanager
def _alarm(seconds):
    """Turn a blocked call into a failure instead of a hung test."""

    def blocked(signum, frame):
        raise _Blocked(f"still blocked after {seconds} s")

    previous = signal.signal(signal.SIGALRM, blocked)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _wide_profiles_dataset(n_profiles=600, width=10):
    """Profiles of ``width`` 200-character tokens of their own plus one
    shared by each group of four, so a JS wire record (the token set) is
    ~2 kB and every group is a block of six comparisons."""
    padding = "y" * 190
    profiles = [
        make_profile(
            pid, " ".join([f"w{pid}x{k}{padding}" for k in range(width)] + [f"g{pid // 4}"])
        )
        for pid in range(n_profiles)
    ]
    truth = GroundTruth([(pid, pid + 1) for pid in range(0, n_profiles, 4)])
    return Dataset("wide", profiles, truth, ERKind.DIRTY)


def _comparable(result):
    metrics = strip_parallel_telemetry(result.details["metrics"])
    metrics["phases"] = {
        phase: {key: value for key, value in totals.items() if key != "wall_s"}
        for phase, totals in metrics["phases"].items()
    }
    return result.curve.points, result.duplicates, result.comparisons_executed, metrics


def test_a_stopped_worker_fed_a_megabyte_of_profiles_lets_the_run_finish(monkeypatch):
    """A ready worker is SIGSTOPped, then the run's ingests ship it far more
    than its pipe holds: the ships return at once, the hand-off cannot
    reach it and breaks the pool at the reply deadline, and the rescue
    gives the serial results."""
    monkeypatch.setattr("repro.parallel.pool.REPLY_TIMEOUT_S", 0.3)
    dataset = _wide_profiles_dataset()
    plan = make_stream_plan(split_into_increments(dataset, 10, seed=0), rate=5.0)

    def run(pool):
        engine = StreamingEngine(
            _build_matcher("JS"), budget=8.0, workers=1 if pool is None else 2, pool=pool
        )
        return engine.run(_build_system("I-PES", dataset), plan, dataset.ground_truth)

    serial = run(None)
    pool = pool_or_skip("JS")
    pids = [process.pid for process in pool._processes]
    try:
        os.kill(pids[1], signal.SIGSTOP)
        posted = record_posts(pool)
        with _alarm(30):
            sharded = run(pool)
        shipped = [pickle.dumps(message) for message in posted[1] if message[2] is None]
        assert sum(map(len, shipped)) >= 1 << 20
        assert pool.broken and pool.evictions == pool.size
    finally:
        pool.close()
    assert_reaped(pids)
    assert _comparable(sharded) == _comparable(serial)
    counters = sharded.details["metrics"]["counters"]
    assert counters["parallel.rounds_sharded"] == 1 and counters["parallel.fallbacks"] == 0


# ----------------------------------------------------------------------
# A broken pool has reaped what it killed
# ----------------------------------------------------------------------
def test_a_broken_pool_has_waited_on_every_worker_it_killed(sample):
    """The pool's ``Popen`` objects are kept alive here, so no finalizer
    can reap a worker the break only killed: each must already carry its
    exit status when the hand-off returns."""
    pairs, lookup, _ = sample
    pool = pool_or_skip("ED")
    processes = list(pool._processes)
    try:
        pool.begin_run()
        pool._connections[0] = ShortReplies(pool._connections[0])
        assert pool.batch_scores(pairs, lookup) == _build_matcher("ED")._batch_scores(
            pairs, lookup
        )
        assert pool.broken
        assert all(process.returncode is not None for process in processes)
    finally:
        pool.close()
    assert_reaped([process.pid for process in processes])
