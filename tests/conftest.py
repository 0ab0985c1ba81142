"""Shared fixtures: small deterministic datasets and profile factories."""

from __future__ import annotations

import os

import pytest

from repro.api import ERSession
from repro.core.dataset import Dataset, ERKind, GroundTruth
from repro.core.profile import EntityProfile
from repro.datasets.registry import load_dataset

from tests.reference.scalar_execution import PairOutcome, by_pid


def make_profile(pid: int, text: str, source: int = 0, attr: str = "value") -> EntityProfile:
    """Tiny helper: a profile with a single attribute."""
    return EntityProfile(pid, {attr: text}, source=source)


def dequeue_one(strategy):
    """The best comparison of ``strategy``'s index, removed, or ``None`` if
    it is empty: an emission round of one, with nothing executed yet."""
    batch, _ = strategy.dequeue_batch(1, set())
    return batch[0] if batch else None


def build_matcher(name: str = "JS"):
    """The experiment matcher ``name``, as every :class:`ERSession` builds it."""
    return ERSession("dblp_acm", matcher=name).build_matcher()


def build_system(name: str, dataset: Dataset):
    """System ``name`` for ``dataset``, as every :class:`ERSession` builds it."""
    return ERSession(dataset).build_system(name)


def batched_results(matcher, pairs) -> list[PairOutcome]:
    """One ``matcher.evaluate_batch`` call over ``pairs`` (profile pairs,
    handed over by pid), given the costs the engine passes
    (``estimate_cost_batch``), read back as the oracle's per-pair records
    (``tests/reference/scalar_execution.py``): flags from
    ``evaluate_batch``, similarities from the one ``_batch_scores`` call it
    makes, costs as passed in."""
    pid_pairs, profiles = by_pid(pairs)
    costs = matcher.estimate_cost_batch(pid_pairs, profiles)
    kernel = matcher._batch_scores
    scored: list[float] = []

    def spy(batch, lookup):
        scored.extend(kernel(batch, lookup))
        return scored

    matcher._batch_scores = spy
    try:
        flags = matcher.evaluate_batch(pid_pairs, profiles, costs)
    finally:
        del matcher._batch_scores
    assert len(scored) == len(flags) == len(costs)
    return list(map(PairOutcome._make, zip(flags, scored, costs)))


#: Two inputs of ~13.5k co-block pairs, as ``load_dataset`` arguments: large
#: enough for a probabilistic dedup to have lost some (with a scalable Bloom
#: filter in I-PBS the token runs executed 13,506 of 13,512 and 13,766 of
#: 13,770), small enough for ``tests/reference/blocking_graph.py``.
BLOCKING_GRAPH_DATASETS = {
    "dirty": ("census_2m", 0.15, 5),
    "clean-clean": ("dblp_acm", 0.3, 5),
}


def rounds_within_work(result, slack: int = 2) -> bool:
    """An engine issues no more emission rounds than it has work for: one
    per executed comparison, ingest and (re)initialization at most, plus a
    closing empty one.  A count, not a wall clock."""
    counters = result.details["metrics"]["counters"]
    work = (
        result.comparisons_executed
        + result.increments_ingested
        + counters.get("batch.initializations", 0)
    )
    return counters["engine.emission_rounds"] <= work + slack


def pool_or_skip(matcher: str = "ED", workers: int = 2):
    """A ready worker pool for ``matcher`` whose every hand-off shards.

    One empty ``batch_scores`` reads the workers' handshake, which the pool
    otherwise leaves to its first hand-off: a test that kills a worker or
    wraps its connection then meets a fleet that was up.  ``min_shard``
    drops to 1 so even the small per-round batches of the test datasets
    reach the workers — the production threshold only changes *when* the
    pool is consulted, never the results.  The caller closes the pool.
    """
    from repro.evaluation.experiments import _build_matcher
    from repro.parallel import WorkerPool, WorkerPoolError

    pool = WorkerPool.create(workers, _build_matcher(matcher))
    if pool is None:
        pytest.skip("process pool unavailable on this host")
    try:
        pool.batch_scores([], {})
    except WorkerPoolError:
        pool.close()
        pytest.skip("process pool unavailable on this host")
    pool.min_shard = 1
    return pool


def worker_pids(pool) -> list[int]:
    """The pids of ``pool``'s worker processes; read them before the pool
    stops its workers, which forgets them."""
    return [process.pid for process in pool._processes]


def assert_reaped(pids) -> None:
    """Every one of ``pids`` has exited and been reaped: a zombie still
    answers ``kill(pid, 0)``."""
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


def record_posts(pool) -> list[list[tuple]]:
    """Keep every message ``pool`` queues for a worker (its ``_post``), per
    slot; ``del pool._post`` stops recording."""
    posted = [[] for _ in range(pool.size)]
    post = pool._post

    def recording_post(slot, message):
        posted[slot].append(message)
        post(slot, message)

    pool._post = recording_post
    return posted


class ShortReplies:
    """Stands in for one slot connection of a pool: every reply the worker
    sends arrives one similarity short (a garbled reply)."""

    def __init__(self, connection):
        self.connection = connection

    def recv(self):
        status, (similarities, counts) = self.connection.recv()
        return status, (similarities[:-1], counts)

    def __getattr__(self, name):
        return getattr(self.connection, name)


def compare(config):
    """Run every system of an ``ExperimentConfig``; results keyed by name."""
    with ERSession.from_config(config) as session:
        return session.compare()


@pytest.fixture
def toy_dirty_dataset() -> Dataset:
    """Six profiles, two duplicate clusters: {0,1,2} and {3,4}; 5 is alone."""
    profiles = [
        make_profile(0, "alice smith springfield"),
        make_profile(1, "alice smith springfeld"),
        make_profile(2, "alice m smith springfield"),
        make_profile(3, "bob jones riverton"),
        make_profile(4, "bob jones riverton north"),
        make_profile(5, "carol white kingston"),
    ]
    truth = GroundTruth([(0, 1), (0, 2), (1, 2), (3, 4)])
    return Dataset("toy_dirty", profiles, truth, ERKind.DIRTY)


@pytest.fixture
def toy_clean_clean_dataset() -> Dataset:
    """Two clean sources with two cross-source matches."""
    profiles = [
        make_profile(0, "matrix 1999 wachowski", source=0),
        make_profile(1, "inception 2010 nolan", source=0),
        make_profile(2, "heat 1995 mann", source=0),
        make_profile(3, "matrix wachowski 1999 film", source=1),
        make_profile(4, "inception nolan 2010 movie", source=1),
        make_profile(5, "unrelated documentary 2003", source=1),
    ]
    truth = GroundTruth([(0, 3), (1, 4)])
    return Dataset("toy_cc", profiles, truth, ERKind.CLEAN_CLEAN)


@pytest.fixture(scope="session")
def small_dblp_acm() -> Dataset:
    return load_dataset("dblp_acm", scale=0.2)


@pytest.fixture(scope="session")
def small_census() -> Dataset:
    return load_dataset("census_2m", scale=0.15)


@pytest.fixture(scope="session")
def small_movies() -> Dataset:
    return load_dataset("movies", scale=0.15)


@pytest.fixture(scope="session")
def small_dbpedia() -> Dataset:
    return load_dataset("dbpedia", scale=0.15)
