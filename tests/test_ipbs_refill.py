"""I-PBS's once-per-pair block scan against the pending-set scan it replaced.

``IPBS._process_block`` takes a block's pending profiles from a member
cursor and lets two pending profiles meet once.  These tests hold it to
``tests/reference/ipbs_pending_scan.py`` — a profile-index set per block,
``pending × all members``, mirrors left to the already-generated test: the
same runs in the same places, the same ``queued`` set, the same cardinality
index, through checkpoints — and to the counting identity that every
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
from repro.streaming.engine import StreamingEngine
from repro.streaming.system import PipelineStats

from tests.conftest import BLOCKING_GRAPH_DATASETS, dequeue_one, make_profile
from tests.reference.blocking_graph import co_block_pairs
from tests.reference.exhaustion import strategy_exhausted
from tests.reference.ipbs_pending_scan import PendingScanIPBS

VOCABULARY = ("ash", "birch", "cedar", "dogwood")
STATS = PipelineStats(now=0.0, input_rate=None, mean_match_cost=1e-4, backlog=0)


def _system(strategy, clean_clean: bool, max_block_size=5) -> PierSystem:
    return PierSystem(strategy, clean_clean=clean_clean, max_block_size=max_block_size)


def _pending(strategy) -> list[tuple[int, tuple[tuple[int, int], ...]]]:
    """The runs, front first, each with the pairs not handed out yet."""
    return list(strategy.runs)


def _offered(system) -> int:
    """Every pair generated so far is still queued or executed: nothing is
    dropped in between."""
    return len(system.strategy.queued) + len(system.store.executed)


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
)
@settings(max_examples=60, deadline=None)
def test_once_per_pair_scan_matches_pending_scan(clean_clean, rounds, shuffle, scheme_name):
    """Multi-increment arrivals, partial drains, idle refills, purges (a
    block is dropped once it outgrows 5 members), blocks reopened after they
    grew, pids arriving out of order, and checkpoints in between (the oracle
    runs uninterrupted)."""
    scheme = make_scheme(scheme_name)
    system = _system(IPBS(scheme), clean_clean)
    oracle = _system(PendingScanIPBS(scheme), clean_clean)
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
            restored = _system(IPBS(scheme), clean_clean)
            restored.bind_metrics(system.metrics)
            restored.restore(snapshot)
            system = restored
        assert _pending(system.strategy) == _pending(oracle.strategy)
        assert system.strategy.queued == oracle.strategy.queued
        assert system.strategy.cardinality_index == oracle.strategy.cardinality_index
        assert len(system.strategy) == len(oracle.strategy)
    assert strategy_exhausted(system.strategy, system) == strategy_exhausted(
        oracle.strategy, oracle
    )
    counters = system.metrics.snapshot()["counters"]
    scanned = counters.get("strategy.refill_pairs_scanned", 0)
    assert _accounted(counters) == scanned <= oracle.strategy.probes
    assert counters.get("strategy.comparisons_enqueued", 0) == _offered(system)


@pytest.mark.parametrize("clean_clean", [True, False], ids=["clean-clean", "dirty"])
def test_pair_two_blocks_share_is_offered_once(clean_clean):
    """Every pair of 'oak' is met again in the larger 'elm', one of them
    executed and the rest still queued: none is offered a second time and
    each is counted redundant once, with or without a checkpoint in
    between.  The idle fill opens 'elm' behind what is left of 'oak'."""
    tokens = {3: "oak elm", 0: "oak elm", 2: "oak elm", 4: "elm", 1: "elm"}
    increment = Increment(
        0, tuple(make_profile(pid, text, source=pid % 2) for pid, text in tokens.items())
    )
    oak = 2 if clean_clean else 3  # the pairs of 'oak'
    runs = []
    for new_strategy, checkpoint in ((IPBS, False), (IPBS, True), (PendingScanIPBS, False)):
        system = _system(new_strategy(), clean_clean, max_block_size=None)
        system.ingest(increment)  # opens 'oak'
        assert len(system.strategy.queued) == oak
        if checkpoint:
            restored = _system(new_strategy(), clean_clean, max_block_size=None)
            restored.bind_metrics(system.metrics)
            restored.restore(system.snapshot())
            system = restored
        assert system.strategy.dequeue_batch(1, system.store.executed) == ([(0, 3)], [])
        assert system.on_idle(STATS) is not None  # opens 'elm'
        assert [size for size, _ in _pending(system.strategy)] == [3, 5]
        while system.emit(STATS).batch:
            pass
        assert system.on_idle(STATS) is None
        assert strategy_exhausted(system.strategy, system)
        runs.append(system)
    system, resumed, oracle = runs
    counters = system.metrics.snapshot()["counters"]
    pairs = system.collection.total_comparisons()  # per block: 'oak' and 'elm'
    assert pairs == (8 if clean_clean else 13)
    assert len(system.store.executed) == pairs - oak  # the pairs of 'elm'
    assert counters["strategy.refill_pairs_scanned"] == pairs
    assert counters["strategy.redundant_pairs"] == oak  # one executed, the rest queued
    assert counters["strategy.comparisons_enqueued"] == _offered(system) == pairs - oak
    for other in (resumed, oracle):
        assert other.store.executed == system.store.executed
    assert resumed.metrics.snapshot()["counters"] == counters
    # The pending scan also meets the mirror of two pending profiles.
    mirrors = oracle.metrics.snapshot()["counters"]["strategy.redundant_pairs"]
    assert mirrors == oracle.strategy.probes - (pairs - oak) > oak


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
    assert system.store.executed == oracle.store.executed
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
    system = PierSystem(IPBS(), clean_clean=kind == "clean-clean", max_block_size=None)
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
