"""I-PBS's once-per-pair block scan against the pending-set scan it replaced.

``IPBS._process_block`` takes a block's pending profiles from a member
cursor and lets two pending profiles meet once.  These tests hold it to
``tests/reference/ipbs_pending_scan.py`` — a profile-index set per block,
``pending × all members``, mirrors left to the already-generated test: the
same pairs enqueued with the same keys in the same order, the same
``queued`` set, the same cardinality index, through checkpoints and with an
index small enough to evict — and to the counting identity that every
scanned pair is accounted for exactly once.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.increments import Increment, make_stream_plan, split_into_increments
from repro.datasets.registry import load_dataset
from repro.matching.matcher import JaccardMatcher
from repro.metablocking.weights import make_scheme
from repro.pier.base import PierSystem
from repro.pier.ipbs import IPBS
from repro.priority.bounded_pq import BoundedPriorityQueue
from repro.streaming.engine import StreamingEngine
from repro.streaming.system import PipelineStats

from tests.conftest import BLOCKING_GRAPH_DATASETS, dequeue_one, make_profile
from tests.reference.blocking_graph import co_block_pairs
from tests.reference.exhaustion import strategy_exhausted
from tests.reference.ipbs_pending_scan import PendingScanIPBS

VOCABULARY = ("ash", "birch", "cedar", "dogwood")
STATS = PipelineStats(now=0.0, input_rate=None, mean_match_cost=1e-4, backlog=0)


class RecordingQueue(BoundedPriorityQueue):
    """A comparison index that remembers every ``(pair, key)`` offered.

    Offers come one at a time (the oracle) or in batches (production); a
    batch that falls back to one ``enqueue`` per pair — an index that may
    evict or refuse — is still logged once per offer.
    """

    __slots__ = ("log", "_in_batch")

    def __init__(self, capacity: int | None = None) -> None:
        super().__init__(capacity)
        self.log: list[tuple[tuple[int, int], tuple]] = []
        self._in_batch = False

    def enqueue(self, item, key):
        if not self._in_batch:
            self.log.append((item, key))
        return super().enqueue(item, key)

    def enqueue_batch(self, items, keys):
        self.log.extend(zip(items, keys))
        self._in_batch = True
        try:
            return super().enqueue_batch(items, keys)
        finally:
            self._in_batch = False


def _system(strategy, clean_clean: bool, max_block_size=5) -> PierSystem:
    strategy.index = RecordingQueue(strategy.index.capacity)
    return PierSystem(strategy, clean_clean=clean_clean, max_block_size=max_block_size)


def _accounted(counters: dict[str, float]) -> float:
    """The two ways a scanned pair leaves ``_process_block``: enqueued, or
    redundant (generated from an earlier block already)."""
    return counters.get("strategy.comparisons_enqueued", 0) + counters.get(
        "strategy.redundant_pairs", 0
    )


_profile = st.tuples(
    st.lists(st.sampled_from(VOCABULARY), min_size=1, max_size=2, unique=True),
    st.integers(0, 1),
)
#: Token blocking is the one blocking substrate.  Case ids keep the ``token``
#: part they carried while the substrate was a parameter, so that a case
#: keeps its name across the history of the suite.
TOKEN_CASE_IDS = ["token-clean-clean", "token-dirty"]

#: One round: an increment arrives, up to ``executions`` queued pairs are
#: executed, the stream idles (the lazy refill may or may not fire), and the
#: run maybe goes through a checkpoint.
_round = st.tuples(
    st.lists(_profile, min_size=1, max_size=4),
    st.integers(0, 8),
    st.booleans(),
    st.booleans(),
)


@pytest.mark.parametrize("clean_clean", [True, False], ids=TOKEN_CASE_IDS)
@given(
    rounds=st.lists(_round, min_size=1, max_size=10),
    shuffle=st.randoms(use_true_random=False),
    scheme_name=st.sampled_from(["cbs", "js", "arcs"]),
    capacity=st.sampled_from([3, None]),
)
@settings(max_examples=60, deadline=None)
def test_once_per_pair_scan_matches_pending_scan(clean_clean, rounds, shuffle, scheme_name, capacity):
    """Multi-increment arrivals, partial drains, idle refills, purges (a
    block is dropped once it outgrows 5 members), blocks reopened after they
    grew, pids arriving out of order, an index of three that evicts and
    refuses, and checkpoints in between (the oracle runs uninterrupted)."""
    scheme = make_scheme(scheme_name)
    new_strategy = lambda: IPBS(scheme, capacity)
    system = _system(new_strategy(), clean_clean)
    oracle = _system(PendingScanIPBS(scheme, capacity), clean_clean)
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
            pair = dequeue_one(system.strategy)
            assert pair == dequeue_one(oracle.strategy)
            if pair is None:
                break
            assert system.store.mark_executed(pair) == oracle.store.mark_executed(pair)
        if idle:
            assert system.on_idle(STATS) == oracle.on_idle(STATS)
        if checkpoint:
            snapshot = system.snapshot()
            restored = _system(new_strategy(), clean_clean)
            restored.bind_metrics(system.metrics)
            restored.restore(snapshot)
            system = restored
        assert system.strategy.index.log == oracle.strategy.index.log
        assert system.strategy.queued == oracle.strategy.queued
        assert system.strategy.cardinality_index == oracle.strategy.cardinality_index
        assert len(system.strategy) == len(oracle.strategy)
    assert strategy_exhausted(system.strategy, system) == strategy_exhausted(
        oracle.strategy, oracle
    )
    counters = system.metrics.snapshot()["counters"]
    scanned = counters.get("strategy.refill_pairs_scanned", 0)
    assert _accounted(counters) == scanned <= oracle.strategy.probes
    assert counters.get("strategy.comparisons_enqueued", 0) == len(system.strategy.index.log)


@pytest.mark.parametrize("clean_clean", [True, False], ids=["clean-clean", "dirty"])
def test_refused_first_offer_stays_dropped(clean_clean):
    """An index of one takes the first offer of a block and refuses the
    equally ranked rest.  Every pair of 'oak' is met again in the larger
    'elm': the refused ones must not be offered a second time and each is
    counted redundant once — the loss the bound accepts, with or without a
    checkpoint in between."""
    tokens = {3: "oak elm", 0: "oak elm", 2: "oak elm", 4: "elm", 1: "elm"}
    increment = Increment(
        0, tuple(make_profile(pid, text, source=pid % 2) for pid, text in tokens.items())
    )
    oak = 2 if clean_clean else 3  # the pairs of 'oak'
    runs = []
    for new_strategy, checkpoint in ((IPBS, False), (IPBS, True), (PendingScanIPBS, False)):
        system = _system(new_strategy(capacity=1), clean_clean, max_block_size=None)
        system.ingest(increment)  # opens 'oak'
        strategy = system.strategy
        assert len(strategy.queued) == len(strategy.index.log) == oak
        assert len(strategy) == 1 and strategy.index.rejections == oak - 1
        if checkpoint:
            restored = _system(new_strategy(capacity=1), clean_clean, max_block_size=None)
            restored.bind_metrics(system.metrics)
            restored.restore(system.snapshot())
            system = restored
        assert system.emit(STATS).batch == ((0, 3),)
        assert system.on_idle(STATS) is not None  # opens 'elm'
        while system.emit(STATS).batch:
            pass
        assert system.on_idle(STATS) is None
        assert strategy_exhausted(system.strategy, system)
        runs.append(system)
    system, resumed, oracle = runs
    offered = [pair for pair, _ in system.strategy.index.log]
    assert len(offered) == len(set(offered))  # nothing offered twice
    assert len(system.store.executed) == 2  # one per block
    assert system.strategy.queued == set(offered) - system.store.executed
    counters = system.metrics.snapshot()["counters"]
    pairs = system.collection.total_comparisons()  # per block: 'oak' and 'elm'
    assert pairs == (8 if clean_clean else 13)
    assert counters["strategy.refill_pairs_scanned"] == pairs
    assert counters["strategy.redundant_pairs"] == oak  # one executed, the rest refused
    assert counters["strategy.comparisons_enqueued"] == len(offered) == pairs - oak
    for other in (resumed, oracle):
        assert other.strategy.index.log == system.strategy.index.log
        assert other.strategy.queued == system.strategy.queued
        assert other.store.executed == system.store.executed
    assert resumed.metrics.snapshot()["counters"] == counters
    # The pending scan also meets the mirror of two pending profiles.
    mirrors = oracle.metrics.snapshot()["counters"]["strategy.redundant_pairs"]
    assert mirrors == oracle.strategy.probes - len(offered) > oak


def test_each_block_pair_is_scanned_once(small_dblp_acm):
    """Idle refills reopen blocks while the stream still grows them; with no
    purging, at exhaustion every pair of every block was scanned exactly
    once — ``Σ_b ‖b‖``; the pending scan built the pairs of two profiles
    that were pending together twice."""
    plan = make_stream_plan(split_into_increments(small_dblp_acm, 40, seed=1), rate=2.0)
    runs = {}
    for strategy in (IPBS(), PendingScanIPBS()):
        system = _system(strategy, clean_clean=True, max_block_size=None)
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


@pytest.mark.parametrize("kind", BLOCKING_GRAPH_DATASETS, ids=lambda kind: f"token-{kind}")
def test_executes_the_blocking_graph_all_of_it_once(kind):
    """With nothing purged and nothing evicted, I-PBS at exhaustion has
    executed exactly the pairs that share a block — by a brute-force walk of
    the blocks — each scanned once per block that holds it."""
    dataset = load_dataset(*BLOCKING_GRAPH_DATASETS[kind])
    plan = make_stream_plan(split_into_increments(dataset, 20, seed=1), rate=None)
    system = PierSystem(IPBS(capacity=None), clean_clean=kind == "clean-clean", max_block_size=None)
    engine = StreamingEngine(JaccardMatcher(0.4), budget=1e9)
    result = engine.run(system, plan, dataset.ground_truth)
    assert result.work_exhausted
    counters = result.details["metrics"]["counters"]
    graph = co_block_pairs(system.collection)
    assert system.store.executed == graph.keys()
    assert result.comparisons_executed == len(system.store.executed)  # none twice
    assert system.strategy.queued == set()
    assert counters["strategy.refill_pairs_scanned"] == sum(graph.values())
    assert _accounted(counters) == sum(graph.values())
