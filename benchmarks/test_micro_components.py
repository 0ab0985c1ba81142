"""Micro-benchmarks of the substrate hot paths (wall-clock, pytest-benchmark).

These complement the figure reproductions: the virtual-time engine makes the
*experiments* machine-independent, while these measure the real throughput
of the data structures a production deployment would care about.
"""

from __future__ import annotations

import copy
import random

import pytest

from repro.blocking.blocks import BlockCollection
from repro.core.increments import Increment
from repro.core.profile import EntityProfile
from repro.datasets.registry import load_dataset
import repro.matching.matcher as matcher_module
from repro.matching.matcher import EditDistanceMatcher, JaccardMatcher
from repro.matching.similarity import lane_width, levenshtein_lanes
from repro.metablocking.weights import CommonBlocksScheme
from repro.metablocking.wnp import sweep_wnp
from repro.pier.base import PierSystem
from repro.pier.ipes import IPES
from repro.priority.bounded_pq import BoundedPriorityQueue


@pytest.fixture(scope="module")
def census():
    return load_dataset("census_2m", scale=0.3)


@pytest.fixture(scope="module")
def indexed_census(census):
    collection = BlockCollection(max_block_size=200)
    for profile in census:
        collection.add_profile(profile)
    return collection


def test_bench_tokenize_profile(benchmark, census):
    profiles = list(census)[:500]

    def tokenize_all():
        total = 0
        for profile in profiles:
            fresh = EntityProfile(profile.pid, profile.attributes)
            total += len(fresh.tokens())
        return total

    assert benchmark(tokenize_all) > 0


def test_bench_incremental_blocking(benchmark, census):
    profiles = list(census)[:800]

    def index_all():
        collection = BlockCollection(max_block_size=200)
        for profile in profiles:
            collection.add_profile(profile)
        return len(collection)

    assert benchmark(index_all) > 0


def test_bench_cbs_weighting(benchmark, census, indexed_census):
    scheme = CommonBlocksScheme()
    rng = random.Random(0)
    pids = [profile.pid for profile in census]
    pairs = [(rng.choice(pids), rng.choice(pids)) for _ in range(2000)]

    def weigh_all():
        return sum(
            scheme.weight(indexed_census, x, y) for x, y in pairs if x != y
        )

    benchmark(weigh_all)


def test_bench_common_block_counts(benchmark, census, indexed_census):
    """The CBS counts of a drained block's pairs: one AND + popcount of two
    block masks per pair."""
    rng = random.Random(0)
    pids = [profile.pid for profile in census]
    pairs = [(rng.choice(pids), rng.choice(pids)) for _ in range(20_000)]

    assert sum(benchmark(indexed_census.common_block_counts, pairs)) > 0


def test_bench_idle_fill(benchmark, census):
    """One idle fill of I-PES over blocks no increment offered yet: drain
    them smallest first, weigh the pairs, offer them all in one call."""
    system = PierSystem(IPES(), max_block_size=200)
    system._index(Increment(0, tuple(census)[:600]))  # blocks only: the index is empty

    def fresh():
        return (copy.deepcopy(system),), {}

    def fill(system):
        system.strategy.on_empty_increment(system, target=10**9)
        return len(system.strategy)

    assert benchmark.pedantic(fill, setup=fresh, rounds=5) > 0


def test_bench_iwnp(benchmark, census, indexed_census):
    targets = [profile.pid for profile in list(census)[:200]]

    def clean():
        return sum(
            len(sweep_wnp(indexed_census, pid, beta=0.2).kept)
            for pid in targets
        )

    assert benchmark(clean) > 0


def test_bench_bounded_pq_enqueue_dequeue(benchmark):
    rng = random.Random(2)
    keys = [rng.random() for _ in range(5000)]

    def churn():
        queue = BoundedPriorityQueue(capacity=1024)
        for index, key in enumerate(keys):
            queue.enqueue(index, key)
        drained = 0
        while queue:
            queue.dequeue()
            drained += 1
        return drained

    assert benchmark(churn) <= 1024


def test_bench_bounded_pq_batch(benchmark):
    """The refill cycle of I-PCS: a drained block's pairs offered in one
    batch under their weights, then taken by one emission round."""
    rng = random.Random(2)
    blocks = []
    first = 0
    for _ in range(300):
        size = rng.randrange(2, 12)
        pairs = [
            (first + i, first + j) for i in range(size) for j in range(i + 1, size)
        ]
        keys = [rng.choice((0.25, 0.5, 1.0, 2.0)) for _ in pairs]
        blocks.append((pairs, keys))
        first += size

    def churn():
        queue = BoundedPriorityQueue(capacity=500_000)
        executed = set()
        for pairs, keys in blocks:
            queue.enqueue_batch(pairs, keys)
            queue.pop_batch(len(pairs), executed)
        return len(executed)

    assert benchmark(churn) == sum(len(pairs) for pairs, _ in blocks)


def test_bench_ed_signatures(benchmark):
    """What a worker derives at ingest: the ED signatures of dblp_acm x0.6's
    696 profiles, from their wire texts, on a cold matcher (its memoized
    masks and runs empty, as at the start of a run)."""
    profiles = load_dataset("dblp_acm", scale=0.6, seed=1).profiles
    texts = [EditDistanceMatcher().wire(profile) for profile in profiles]

    def derive_all():
        matcher = EditDistanceMatcher()
        return len([matcher._derive(text) for text in texts])

    assert benchmark(derive_all) == len(profiles) == 696


@pytest.fixture(scope="module")
def ed_survivors(census):
    """The DP survivors of the ED matcher's funnel over every pair of 300
    census profiles (198 of 44,850 pairs), as the kernel's lanes."""
    lookup = {profile.pid: profile for profile in list(census)[:300]}
    pids = list(lookup)
    survivors = []

    def collect(lanes, width):
        survivors.extend(lanes)
        return levenshtein_lanes(lanes, width)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(matcher_module, "levenshtein_lanes", collect)
        EditDistanceMatcher(0.7)._batch_scores(
            [(x, y) for i, x in enumerate(pids) for y in pids[i + 1 :]], lookup
        )
    return survivors


@pytest.mark.parametrize("lanes", [1, 4, 32])
def test_bench_ed_lanes(benchmark, ed_survivors, lanes):
    """The same survivors scored ``lanes`` at a time: one group per call."""
    width = lane_width(160)
    groups = [ed_survivors[i : i + lanes] for i in range(0, len(ed_survivors), lanes)]

    def score():
        return sum(sum(levenshtein_lanes(group, width)) for group in groups)

    assert benchmark(score) > 0


def test_bench_matcher_js(benchmark, census):
    matcher = JaccardMatcher(0.35)
    lookup = {profile.pid: profile for profile in list(census)[:400]}
    pids = list(lookup)
    pairs = list(zip(pids[0::2], pids[1::2]))

    def run_matcher():
        return sum(
            matcher.evaluate_batch(pairs, lookup, matcher.estimate_cost_batch(pairs, lookup))
        )

    benchmark(run_matcher)


def test_bench_matcher_ed(benchmark, census):
    matcher = EditDistanceMatcher(0.7)
    lookup = {profile.pid: profile for profile in list(census)[:200]}
    pids = list(lookup)
    pairs = list(zip(pids[0::2], pids[1::2]))

    def run_matcher():
        return sum(
            matcher.evaluate_batch(pairs, lookup, matcher.estimate_cost_batch(pairs, lookup))
        )

    benchmark(run_matcher)


def test_bench_ipes_insert_dequeue(benchmark):
    rng = random.Random(4)
    items = [
        (rng.randrange(2000), 2000 + rng.randrange(2000), rng.random() * 10)
        for _ in range(5000)
    ]
    pairs = [(left, right) for left, right, _ in items]
    weights = [weight for *_, weight in items]

    def churn():
        strategy = IPES()
        strategy.offer(pairs, weights)
        executed: set[tuple[int, int]] = set()
        drained = 0
        while batch := strategy.dequeue_batch(100, executed)[0]:
            drained += len(batch)
        return drained

    assert benchmark(churn) > 0
