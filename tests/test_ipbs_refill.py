"""I-PBS's once-per-pair block scan against the pending-set scan it replaced.

``IPBS._process_block`` takes a block's pending profiles from a member
cursor and lets two pending profiles meet once.  These tests hold it to
``tests/reference/ipbs_pending_scan.py`` — a profile-index set per block,
``pending × all members``, mirrors left to the Bloom filter: the same pairs
enqueued with the same keys in the same order, the same filter bits, the
same cardinality index, through checkpoints — and to the counting identity
that every scanned pair is accounted for exactly once.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blocking.substrate import BLOCKING_SUBSTRATES, BlockingConfig
from repro.core.increments import Increment, make_stream_plan, split_into_increments
from repro.matching.matcher import JaccardMatcher
from repro.metablocking.weights import make_scheme
from repro.pier.base import PierSystem
from repro.pier.ipbs import IPBS
from repro.priority.bounded_pq import BoundedPriorityQueue
from repro.streaming.engine import StreamingEngine
from repro.streaming.system import PipelineStats

from tests.conftest import make_profile
from tests.reference.ipbs_pending_scan import PendingScanIPBS

VOCABULARY = ("ash", "birch", "cedar", "dogwood")
STATS = PipelineStats(now=0.0, input_rate=None, mean_match_cost=1e-4, backlog=0)


class RecordingQueue(BoundedPriorityQueue):
    """A comparison index that remembers every ``(pair, key)`` offered."""

    __slots__ = ("log",)

    def __init__(self, capacity: int | None = None) -> None:
        super().__init__(capacity)
        self.log: list[tuple[tuple[int, int], tuple]] = []

    def enqueue(self, item, key):
        self.log.append((item, key))
        return super().enqueue(item, key)


def _system(strategy, substrate: str, clean_clean: bool, max_block_size=5) -> PierSystem:
    strategy.index = RecordingQueue(strategy.index.capacity)
    return PierSystem(
        strategy,
        clean_clean=clean_clean,
        max_block_size=max_block_size,
        blocking=BlockingConfig(substrate=substrate, lsh_bands=4, lsh_rows=1, lsh_seed=3),
    )


def _accounted(counters: dict[str, float]) -> float:
    """Every way a scanned pair leaves ``_process_block``."""
    return sum(
        counters.get(name, 0)
        for name in (
            "strategy.comparisons_enqueued",
            "strategy.bloom_filtered",
            "strategy.skipped_already_executed",
            "blocking.lsh.candidates_pruned",
        )
    )


_profile = st.tuples(
    st.lists(st.sampled_from(VOCABULARY), min_size=1, max_size=2, unique=True),
    st.integers(0, 1),
)
#: One round: an increment arrives, up to ``executions`` queued pairs are
#: executed, the stream idles (the lazy refill may or may not fire), and the
#: run maybe goes through a checkpoint.
_round = st.tuples(
    st.lists(_profile, min_size=1, max_size=4),
    st.integers(0, 8),
    st.booleans(),
    st.booleans(),
)


@pytest.mark.parametrize("clean_clean", [True, False], ids=["clean-clean", "dirty"])
@pytest.mark.parametrize("substrate", BLOCKING_SUBSTRATES)
@given(
    rounds=st.lists(_round, min_size=1, max_size=10),
    shuffle=st.randoms(use_true_random=False),
    scheme_name=st.sampled_from(["cbs", "js", "arcs"]),
)
@settings(max_examples=60, deadline=None)
def test_once_per_pair_scan_matches_pending_scan(
    substrate, clean_clean, rounds, shuffle, scheme_name
):
    """Multi-increment arrivals, partial drains, idle refills, purges (a
    block is dropped once it outgrows 5 members), blocks reopened after they
    grew, pids arriving out of order, and checkpoints in between."""
    scheme = make_scheme(scheme_name)
    new_strategy = lambda: IPBS(scheme, filter_initial_capacity=4)
    system = _system(new_strategy(), substrate, clean_clean)
    oracle = _system(PendingScanIPBS(scheme, filter_initial_capacity=4), substrate, clean_clean)
    pids = list(range(sum(len(arrivals) for arrivals, *_ in rounds)))
    shuffle.shuffle(pids)
    for index, (arrivals, executions, idle, checkpoint) in enumerate(rounds):
        increment = Increment(
            index,
            tuple(
                make_profile(pids.pop(), " ".join(tokens), source=source)
                for tokens, source in arrivals
            ),
        )
        assert system.ingest(increment) == oracle.ingest(increment)
        for _ in range(executions):
            pair = system.strategy.dequeue()
            assert pair == oracle.strategy.dequeue()
            if pair is None:
                break
            assert system.store.mark_executed(pair) == oracle.store.mark_executed(pair)
        if idle:
            assert system.on_idle(STATS) == oracle.on_idle(STATS)
        if checkpoint:
            snapshot = system.snapshot()
            restored = _system(new_strategy(), substrate, clean_clean)
            restored.bind_metrics(system.metrics)
            restored.restore(snapshot)
            system = restored
        assert system.strategy.index.log == oracle.strategy.index.log
        assert (
            system.strategy.comparison_filter.snapshot_state()
            == oracle.strategy.comparison_filter.snapshot_state()
        )
        assert system.strategy.cardinality_index == oracle.strategy.cardinality_index
        assert len(system.strategy) == len(oracle.strategy)
    assert system.strategy.exhausted(system) == oracle.strategy.exhausted(oracle)
    counters = system.metrics.snapshot()["counters"]
    scanned = counters.get("strategy.refill_pairs_scanned", 0)
    assert _accounted(counters) == scanned <= oracle.strategy.probes
    assert counters.get("strategy.comparisons_enqueued", 0) == len(system.strategy.index.log)


@pytest.mark.parametrize("clean_clean", [True, False], ids=["clean-clean", "dirty"])
def test_first_probe_false_positive_stays_dropped(clean_clean):
    """Every bit of a tiny filter set: the first probe of every pair is a
    false positive.  No pair may come back through its skipped mirror, the
    filter must stay as it was, and each pair is counted rejected once
    (the pending scan rejects the pairs of two pending profiles twice)."""
    systems = []
    for strategy in (IPBS(filter_initial_capacity=4), PendingScanIPBS(filter_initial_capacity=4)):
        system = _system(strategy, "token", clean_clean, max_block_size=None)
        bloom = strategy.comparison_filter
        state = bloom.snapshot_state()
        capacity, error_rate, bits, _ = state["slices"][0]
        state["slices"][0] = (capacity, error_rate, b"\xff" * len(bits), capacity)
        bloom.restore_state(state)
        saturated = bloom.snapshot_state()
        first = tuple(make_profile(pid, "oak", source=pid % 2) for pid in (3, 0, 2))
        later = tuple(make_profile(pid, "oak elm", source=pid % 2) for pid in (4, 1))
        for index, profiles in enumerate((first, later)):
            system.ingest(Increment(index, profiles))
            assert system.on_idle(STATS) is None  # nothing was enqueued
        assert strategy.index.log == []
        assert strategy.exhausted(system)
        assert bloom.snapshot_state() == saturated
        systems.append(system)
    system, oracle = systems
    counters = system.metrics.snapshot()["counters"]
    pairs = system.collection.total_comparisons()  # per block: 'oak' and 'elm'
    assert pairs == (7 if clean_clean else 11)
    assert counters["strategy.refill_pairs_scanned"] == pairs
    assert counters["strategy.bloom_filtered"] == pairs
    assert _accounted(counters) == pairs
    rejected_twice = oracle.metrics.snapshot()["counters"]["strategy.bloom_filtered"]
    assert rejected_twice == oracle.strategy.probes > pairs


@pytest.mark.parametrize("substrate", BLOCKING_SUBSTRATES)
def test_each_block_pair_is_scanned_once(substrate, small_dblp_acm):
    """Idle refills reopen blocks while the stream still grows them; with no
    purging, at exhaustion every pair of every block was scanned exactly
    once — ``Σ_b ‖b‖``; the pending scan built the pairs of two profiles
    that were pending together twice."""
    plan = make_stream_plan(split_into_increments(small_dblp_acm, 40, seed=1), rate=2.0)
    runs = {}
    for strategy in (IPBS(), PendingScanIPBS()):
        system = _system(strategy, substrate, clean_clean=True, max_block_size=None)
        engine = StreamingEngine(JaccardMatcher(0.4), budget=1e9)
        result = engine.run(system, plan, small_dblp_acm.ground_truth)
        assert result.work_exhausted
        runs[type(strategy)] = (result, system)
    (result, system), (expected, oracle) = runs[IPBS], runs[PendingScanIPBS]
    assert result.duplicates == expected.duplicates
    assert result.comparisons_executed == expected.comparisons_executed
    assert system.strategy.index.log == oracle.strategy.index.log
    counters = result.details["metrics"]["counters"]
    reopened = sum(1 for block in system.collection if len(block) >= 2)
    assert counters["strategy.blocks_processed"] > reopened
    scanned = counters["strategy.refill_pairs_scanned"]
    assert scanned == system.collection.total_comparisons() == _accounted(counters)
    assert oracle.strategy.probes > scanned
