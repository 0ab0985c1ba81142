"""Hypothesis property tests on the prioritization strategies.

Model-level invariants that must hold for any random data:

* I-PCS dequeues in non-increasing CBS-weight order (within one ingest);
* I-PBS never emits a pair twice and orders by generating-block size;
* I-PES emits every inserted comparison exactly once;
* all strategies agree with each other on *which* comparisons are
  executable (the comparison universe is fixed by blocking + cleaning).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.increments import Increment, make_stream_plan, split_into_increments
from repro.core.profile import EntityProfile
from repro.datasets.registry import load_dataset
from repro.matching.matcher import JaccardMatcher
from repro.metablocking.weights import CommonBlocksScheme
from repro.pier.base import PierSystem
from repro.pier.ipbs import IPBS
from repro.pier.ipcs import IPCS
from repro.pier.ipes import IPES
from repro.streaming.engine import StreamingEngine

from tests.conftest import BLOCKING_GRAPH_DATASETS, dequeue_one
from tests.reference.blocking_graph import co_block_pairs

# Random mini-worlds: each profile gets 1-3 tokens from a tiny vocabulary,
# so block structures vary wildly but stay small.
profile_worlds = st.lists(
    st.lists(st.sampled_from(["aa", "bb", "cc", "dd", "ee"]), min_size=1, max_size=3),
    min_size=2,
    max_size=12,
)


def _increment(token_lists) -> Increment:
    profiles = tuple(
        EntityProfile(pid, {"v": " ".join(tokens)}) for pid, tokens in enumerate(token_lists)
    )
    return Increment(0, profiles)


def _drain(strategy):
    pairs = []
    while True:
        pair = dequeue_one(strategy)
        if pair is None:
            return pairs
        pairs.append(pair)


class TestIPCSProperties:
    @given(profile_worlds)
    @settings(max_examples=50, deadline=None)
    def test_dequeue_order_non_increasing_cbs(self, token_lists):
        system = PierSystem(IPCS(beta=0.01), max_block_size=None)
        system.ingest(_increment(token_lists))
        weights = []
        collection = system.collection
        scheme = CommonBlocksScheme()
        for pair in _drain(system.strategy):
            weights.append(scheme.weight(collection, *pair))
        assert weights == sorted(weights, reverse=True)

    @given(profile_worlds)
    @settings(max_examples=50, deadline=None)
    def test_no_duplicate_emissions(self, token_lists):
        """Both endpoints of a same-increment pair generate it (Alg. 2 runs
        per profile); the framework's emission filter must deduplicate."""
        from repro.streaming.system import PipelineStats

        system = PierSystem(IPCS(beta=0.01), max_block_size=None)
        system.ingest(_increment(token_lists))
        stats = PipelineStats(now=0.0, input_rate=None, mean_match_cost=1e-4, backlog=0)
        emitted: list[tuple[int, int]] = []
        for _ in range(200):
            result = system.emit(stats)
            emitted.extend(result.batch)
            if not result.batch and system.on_idle(stats) is None:
                break
        assert len(emitted) == len(set(emitted))


class TestIPBSProperties:
    @given(profile_worlds)
    @settings(max_examples=50, deadline=None)
    def test_no_duplicates_across_refills(self, token_lists):
        system = PierSystem(IPBS(), max_block_size=None)
        system.ingest(_increment(token_lists))
        emitted = []
        for _ in range(200):
            pair = dequeue_one(system.strategy)
            if pair is None:
                system.strategy.on_empty_increment(system)
                pair = dequeue_one(system.strategy)
                if pair is None:
                    break
            # Exactly-once is the store's contract: claim as ``emit`` does.
            assert system.store.mark_executed(pair)
            emitted.append(pair)
        assert len(emitted) == len(set(emitted))

    @given(profile_worlds)
    @settings(max_examples=50, deadline=None)
    def test_canonical_pairs(self, token_lists):
        system = PierSystem(IPBS(), max_block_size=None)
        system.ingest(_increment(token_lists))
        for pair in _drain(system.strategy):
            assert pair[0] < pair[1]


class TestIPESProperties:
    @given(profile_worlds)
    @settings(max_examples=50, deadline=None)
    def test_everything_inserted_is_emitted_once(self, token_lists):
        strategy = IPES()
        inserted = set()
        for index, tokens in enumerate(token_lists[:-1]):
            pair = (index, index + len(token_lists))
            strategy.offer([pair], [float(len(tokens))])
            inserted.add(pair)
        drained = _drain(strategy)
        assert set(drained) == inserted
        assert len(drained) == len(inserted)

    @given(profile_worlds)
    @settings(max_examples=30, deadline=None)
    def test_len_is_consistent_with_drain(self, token_lists):
        system = PierSystem(IPES(beta=0.01), max_block_size=None)
        system.ingest(_increment(token_lists))
        announced = len(system.strategy)
        drained = len(_drain(system.strategy))
        assert announced == drained


class TestCrossStrategyAgreement:
    @given(profile_worlds)
    @settings(max_examples=30, deadline=None)
    def test_same_comparison_universe_after_full_drain(self, token_lists):
        """Run each strategy (with idle refills) to exhaustion: all must
        execute the same set of comparisons — the co-block universe."""
        universes = []
        for strategy_factory in (lambda: IPCS(beta=0.01), IPBS, lambda: IPES(beta=0.01)):
            system = PierSystem(strategy_factory(), max_block_size=None)
            system.ingest(_increment(token_lists))
            executed: set[tuple[int, int]] = set()
            from repro.streaming.system import PipelineStats

            stats = PipelineStats(
                now=0.0, input_rate=None, mean_match_cost=1e-4, backlog=0
            )
            for _ in range(500):
                result = system.emit(stats)
                executed.update(result.batch)
                if not result.batch and system.on_idle(stats) is None:
                    break
            universes.append(executed)
        assert universes[0] == universes[1] == universes[2]

    @pytest.mark.parametrize("kind", BLOCKING_GRAPH_DATASETS)
    def test_every_strategy_executes_the_blocking_graph(self, kind):
        """The same claim on inputs of ~13.5k pairs — enough for a
        probabilistic dedup to have lost some — and against the universe
        itself (a brute-force walk of the blocks), not only each other."""
        dataset = load_dataset(*BLOCKING_GRAPH_DATASETS[kind])
        plan = make_stream_plan(split_into_increments(dataset, 20, seed=1), rate=2.0)
        for strategy in (IPCS(), IPBS(), IPES()):
            system = PierSystem(
                strategy, clean_clean=kind == "clean-clean", max_block_size=None
            )
            engine = StreamingEngine(JaccardMatcher(0.4), budget=1e9)
            result = engine.run(system, plan, dataset.ground_truth)
            assert result.work_exhausted
            assert system.store.executed == co_block_pairs(system.collection).keys()
            assert result.comparisons_executed == len(system.store.executed)
