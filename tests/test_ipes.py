"""Tests for the I-PES entity-centric strategy (Algorithm 4)."""

from __future__ import annotations

from repro.core.comparison import canonical_pair
from repro.core.increments import Increment
from repro.pier.base import PierSystem
from repro.pier.ipes import IPES

from tests.conftest import dequeue_one, make_profile
from tests.reference.exhaustion import strategy_exhausted


def _system(**kwargs) -> PierSystem:
    return PierSystem(IPES(**kwargs))


def _insert(strategy: IPES, pid_x: int, pid_y: int, weight: float) -> None:
    strategy.offer([canonical_pair(pid_x, pid_y)], [weight])


def _top_weight(strategy: IPES, pid: int) -> float:
    """Weight of the best pending comparison of an entity."""
    return -strategy.entity_pq[pid][0][0]


def _drain(strategy: IPES) -> list[tuple[int, int]]:
    pairs = []
    while True:
        pair = dequeue_one(strategy)
        if pair is None:
            return pairs
        pairs.append(pair)


class TestInsertion:
    def test_first_comparison_creates_entity_queue(self):
        strategy = IPES()
        _insert(strategy, 0, 1, 5.0)
        assert 0 in strategy.entity_pq
        assert len(strategy) == 1

    def test_improving_comparison_updates_entity_queue(self):
        strategy = IPES()
        _insert(strategy, 0, 1, 2.0)
        _insert(strategy, 0, 2, 5.0)
        # second beats E_PQ(0).top → stored under entity 0 again
        assert _top_weight(strategy, 0) == 5.0

    def test_low_weight_goes_to_overflow(self):
        strategy = IPES()
        _insert(strategy, 0, 1, 10.0)
        _insert(strategy, 0, 2, 9.0)
        _insert(strategy, 3, 4, 8.0)
        # (0,3) with weight 1: below both endpoints' tops and below the
        # global average (10+9+8+1)/4 = 7 → demoted to PQ
        _insert(strategy, 0, 3, 1.0)
        assert len(strategy.overflow) >= 1

    def test_mid_weight_insert_respects_entity_average(self):
        strategy = IPES()
        _insert(strategy, 0, 1, 10.0)
        _insert(strategy, 2, 3, 2.0)
        # weight 8: below E_PQ(0).top, below E_PQ(1) top? p1's queue empty
        # (weight stored under p0), so (1, 4) starts p1's queue
        _insert(strategy, 1, 4, 8.0)
        assert _top_weight(strategy, 1) == 8.0

    def test_global_average_tracked(self):
        strategy = IPES()
        _insert(strategy, 0, 1, 4.0)
        _insert(strategy, 2, 3, 2.0)
        assert strategy.total_weight == 6.0
        assert strategy.count == 2


class TestEmission:
    def test_best_entity_first(self):
        strategy = IPES()
        _insert(strategy, 0, 1, 1.0)
        _insert(strategy, 2, 3, 9.0)
        assert dequeue_one(strategy) == (2, 3)

    def test_drain_returns_everything_once(self):
        strategy = IPES()
        inserted = {(0, 1), (2, 3), (4, 5)}
        for index, (x, y) in enumerate(sorted(inserted)):
            _insert(strategy, x, y, float(index + 1))
        assert set(_drain(strategy)) == inserted

    def test_entity_queue_refilled_when_stale(self):
        strategy = IPES()
        _insert(strategy, 0, 1, 5.0)
        _insert(strategy, 0, 2, 7.0)
        pairs = _drain(strategy)
        assert set(pairs) == {(0, 1), (0, 2)}

    def test_overflow_used_after_entities_drain(self):
        strategy = IPES()
        _insert(strategy, 0, 1, 10.0)
        _insert(strategy, 0, 2, 9.0)
        _insert(strategy, 0, 3, 0.5)  # overflow
        pairs = _drain(strategy)
        assert pairs[-1] == (0, 3)

    def test_dequeue_empty(self):
        assert dequeue_one(IPES()) is None


class TestWithinSystem:
    def test_entity_with_strongest_evidence_emitted_first(self):
        system = _system(beta=0.01)
        profiles = (
            make_profile(0, "alpha beta gamma"),
            make_profile(1, "alpha beta gamma"),  # strong pair (0,1)
            make_profile(2, "delta"),
            make_profile(3, "delta epsilon"),      # weaker pair (2,3)
        )
        system.ingest(Increment(0, profiles))
        assert dequeue_one(system.strategy) == (0, 1)

    def test_refill_on_idle(self):
        system = _system()
        system.ingest(Increment(0, (make_profile(0, "a1 b1"), make_profile(1, "a1 b1"))))
        _drain(system.strategy)
        stats = __import__(
            "repro.streaming.system", fromlist=["PipelineStats"]
        ).PipelineStats(now=0.0, input_rate=None, mean_match_cost=1e-4, backlog=0)
        # (0,1) was never executed through emit(), so refill re-offers it
        assert system.on_idle(stats) is not None
        assert len(system.strategy) > 0

    def test_exhausted_lifecycle(self):
        system = _system()
        strategy: IPES = system.strategy
        assert strategy_exhausted(strategy, system)
        system.ingest(Increment(0, (make_profile(0, "a1"), make_profile(1, "a1"))))
        assert not strategy_exhausted(strategy, system)

    def test_len_counts_entities_and_overflow(self):
        strategy = IPES()
        _insert(strategy, 0, 1, 10.0)
        _insert(strategy, 0, 2, 9.0)
        _insert(strategy, 0, 3, 0.1)
        assert len(strategy) == 3
        dequeue_one(strategy)
        assert len(strategy) == 2
