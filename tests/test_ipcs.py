"""Tests for the I-PCS comparison-centric strategy."""

from __future__ import annotations

from repro.core.increments import Increment
from repro.pier.base import PierSystem
from repro.pier.ipcs import IPCS
from repro.streaming.system import PipelineStats

from tests.conftest import dequeue_one, make_profile
from tests.reference.exhaustion import strategy_exhausted
from tests.reference.ipes_bounded_queues import top_key


def _stats() -> PipelineStats:
    return PipelineStats(now=0.0, input_rate=None, mean_match_cost=1e-4, backlog=0)


def _system(**kwargs) -> PierSystem:
    return PierSystem(IPCS(**kwargs))


def _run_dry(system: PierSystem) -> None:
    """Emit and refill until neither produces anything."""
    while True:
        result = system.emit(_stats())
        if not result.batch and system.on_idle(_stats()) is None:
            break


class TestIPCS:
    def test_highest_weight_first(self):
        system = _system(beta=0.01)
        profiles = (
            make_profile(0, "alpha beta gamma"),
            make_profile(1, "alpha beta gamma"),   # CBS 3 with p0
            make_profile(2, "alpha delta epsilon"),  # CBS 1 with p0
        )
        system.ingest(Increment(0, profiles))
        first = dequeue_one(system.strategy)
        assert first == (0, 1)

    def test_len_tracks_queue(self):
        system = _system()
        assert len(system.strategy) == 0
        system.ingest(Increment(0, (make_profile(0, "x1 y1"), make_profile(1, "x1 y1"))))
        assert len(system.strategy) > 0

    def test_dequeue_empty_returns_none(self):
        assert dequeue_one(IPCS()) is None

    def test_bounded_capacity_evicts_lightest(self):
        system = PierSystem(IPCS(capacity=2, beta=0.01))
        profiles = tuple(make_profile(pid, "shared tok%d" % pid) for pid in range(6))
        system.ingest(Increment(0, profiles))
        assert len(system.strategy.index) <= 2

    def test_refill_on_empty_increment(self):
        system = _system()
        system.ingest(Increment(0, (make_profile(0, "a1 b1"), make_profile(1, "a1 b1"))))
        while dequeue_one(system.strategy) is not None:
            pass
        # empty increment triggers GetComparisons refill (Alg. 2 l. 10-11)
        system.ingest(Increment(1, ()))
        assert dequeue_one(system.strategy) is not None

    def test_refill_skips_executed(self):
        system = _system()
        system.ingest(Increment(0, (make_profile(0, "a1 b1"), make_profile(1, "a1 b1"))))
        # execute everything through the system path so the executed set is updated
        _run_dry(system)
        count_before = len(system.store.executed)
        assert system.on_idle(_stats()) is None
        assert len(system.store.executed) == count_before

    def test_pair_evicted_from_bounded_index_is_not_reoffered(self):
        """The refill offers each pair of a block once.  A bounded index that
        drops an offered pair has lost it: the block growing later brings
        back only the pairs of its new member."""
        system = PierSystem(IPCS(capacity=1))
        system.ingest(Increment(0, tuple(make_profile(pid, "shared") for pid in range(3))))
        _run_dry(system)
        lost = {(0, 1), (0, 2), (1, 2)} - system.store.executed
        assert lost  # all weights tie, so the full index turned offers away
        system.ingest(Increment(1, (make_profile(3, "shared"),)))
        _run_dry(system)
        assert any(3 in pair for pair in system.store.executed)  # the block was revisited
        assert lost.isdisjoint(system.store.executed)

    def test_exhausted_semantics(self):
        system = _system()
        strategy: IPCS = system.strategy
        assert strategy_exhausted(strategy, system)  # nothing ingested at all
        system.ingest(Increment(0, (make_profile(0, "a1 b1"), make_profile(1, "a1 b1"))))
        assert not strategy_exhausted(strategy, system)

    def test_weights_are_cbs(self):
        system = _system(beta=0.01)
        system.ingest(
            Increment(0, (make_profile(0, "alpha beta"), make_profile(1, "alpha beta")))
        )
        index = system.strategy.index
        assert top_key(index) == 2.0
        assert index.dequeue() == (0, 1)
