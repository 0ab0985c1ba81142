"""Idle rounds fill the comparison index to K (I-PCS, I-PES).

``PierSystem.on_idle`` drains blocks, smallest first, until the index holds
the current ``K`` — the round size ``findK`` gives every emission round —
or, if that is less, the pairs the matcher can run by the next event: the
next ingest start (``PipelineStats.next_ingest``) or the end of the budget.
It stops early once the fill's charged cost reaches that event, but never
before the index holds work.  A pair two
blocks of one fill share is offered once.  Pinned here at the strategy
level and through both engines.
"""

from __future__ import annotations

import pytest

from repro.api import ERSession
from repro.core.increments import Increment
from repro.pier.base import GetComparisons, IncrPrioritization, PierSystem
from repro.pier.ipcs import IPCS
from repro.pier.ipes import IPES
from repro.priority.rates import AdaptiveK
from repro.streaming.engine import StreamingEngine
from repro.streaming.pipelined import PipelinedStreamingEngine
from repro.streaming.system import PipelineStats

from tests.conftest import make_profile
from tests.test_pier_base import _OfferLog  # Algorithm 2's candidate side alone

STRATEGIES = pytest.mark.parametrize("make_strategy", [IPCS, IPES], ids=["I-PCS", "I-PES"])


def _stats(
    next_ingest: float | None = None,
    mean_match_cost: float = 1e-9,
    remaining_budget: float | None = None,
) -> PipelineStats:
    return PipelineStats(
        now=0.0,
        input_rate=None,
        mean_match_cost=mean_match_cost,
        backlog=0,
        remaining_budget=remaining_budget,
        next_ingest=next_ingest,
    )


def _pairs_system(strategy: IncrPrioritization, blocks: int, k: int) -> PierSystem:
    """``blocks`` two-member blocks (one pair each) in the collection, none
    of them offered yet, and a fixed ``K``."""
    system = PierSystem(
        strategy, max_block_size=None, adaptive_k=AdaptiveK(initial=k, minimum=k, maximum=k)
    )
    profiles = tuple(
        make_profile(pid, f"token{pid // 2}") for pid in range(2 * blocks)
    )
    system._index(Increment(0, profiles))  # blocks only: the index stays empty
    return system


def _block_cost(system: PierSystem, pairs: int) -> float:
    return pairs * (system.costs.per_weight + system.costs.per_enqueue)


@STRATEGIES
def test_with_no_pending_arrival_an_idle_round_fills_to_k(make_strategy):
    system = _pairs_system(make_strategy(), blocks=10, k=4)
    cost = system.on_idle(_stats())
    assert len(system.strategy) == 4  # one pair per block: exactly K
    assert system.metrics.counter("strategy.refill_batches") == 4
    assert cost == pytest.approx(system.costs.per_round + _block_cost(system, 4))
    assert system.adaptive_k.value == 4  # K is read, not updated


@STRATEGIES
def test_an_idle_round_stops_at_the_next_ingest(make_strategy):
    system = _pairs_system(make_strategy(), blocks=10, k=8)
    per_round, per_block = system.costs.per_round, _block_cost(system, 1)
    # The third block's charge reaches the next ingest start.
    cost = system.on_idle(_stats(next_ingest=per_round + 2.5 * per_block))
    assert system.metrics.counter("strategy.refill_batches") == 3
    assert len(system.strategy) == 3
    assert cost == pytest.approx(per_round + 3 * per_block)


@STRATEGIES
def test_an_idle_round_holds_what_the_matcher_runs_by_the_next_ingest(make_strategy):
    """A round of K would run its matching far past the next arrival: the
    fill aims at the pairs the matcher can run by then, if that is less."""
    system = _pairs_system(make_strategy(), blocks=10, k=8)
    cost = system.on_idle(_stats(next_ingest=1.0, mean_match_cost=0.3))
    assert len(system.strategy) == 3  # int(1.0 / 0.3) pairs
    assert cost == pytest.approx(system.costs.per_round + _block_cost(system, 3))
    system = _pairs_system(make_strategy(), blocks=10, k=8)
    system.on_idle(_stats(next_ingest=1.0, mean_match_cost=5.0))
    assert len(system.strategy) == 1  # never less than one pair


@STRATEGIES
def test_an_idle_round_holds_what_the_matcher_runs_by_the_budget_end(make_strategy):
    """Once the stream is consumed the budget's end is the next event: a
    round that met it would be cut there, its pairs claimed and lost."""
    system = _pairs_system(make_strategy(), blocks=10, k=8)
    system.on_idle(_stats(mean_match_cost=0.3, remaining_budget=1.0))
    assert len(system.strategy) == 3
    system = _pairs_system(make_strategy(), blocks=10, k=8)
    system.on_idle(_stats(next_ingest=0.5, mean_match_cost=0.1, remaining_budget=1.0))
    assert len(system.strategy) == 5  # the earlier of the two


@STRATEGIES
def test_an_idle_round_never_stops_before_the_index_holds_work(make_strategy):
    system = _pairs_system(make_strategy(), blocks=10, k=8)
    # The first two blocks hold executed pairs only: they offer nothing.
    system.store.executed.update({(0, 1), (2, 3)})
    cost = system.on_idle(_stats(next_ingest=0.0))
    assert system.metrics.counter("strategy.refill_batches") == 3
    assert len(system.strategy) == 1
    assert cost == pytest.approx(system.costs.per_round + _block_cost(system, 1))


def test_the_pairs_one_fill_offers_are_distinct():
    """Profiles 0 and 1 share both blocks: their pair is offered and
    weighed once per fill, not once per block."""
    system = PierSystem(_OfferLog(), max_block_size=None)
    system._index(Increment(0, (
        make_profile(0, "ash birch"),
        make_profile(1, "ash birch"),
        make_profile(2, "ash"),
        make_profile(3, "birch"),
    )))
    system.on_idle(_stats())
    offered = [pair for pair, _ in system.strategy.offered]
    assert system.metrics.counter("strategy.refill_batches") == 2
    assert sorted(offered) == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]
    assert system.metrics.counter("strategy.weighting_ops") == len(offered)


class _LastBlock(GetComparisons):
    """A refill that remembers how many pairs its latest block offered."""

    __slots__ = ("pairs",)

    def next_batch(self, collection, executed, offered):
        result = super().next_batch(collection, executed, offered)
        if result is not None:
            self.pairs = len(result[0])
        return result


def _recording(engine_cls):
    """``engine_cls`` noting, for the first ingest after each idle round,
    how late it started and what the fill's last block charged."""

    class Recording(engine_cls):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.after_idle: list[tuple[float, float]] = []
            self.fill: float | None = None  # the latest idle round's bound

        def _drive(self, state):
            system = state.system
            refill, on_idle = system.strategy.refill, system.on_idle

            def noted_on_idle(stats):
                refill.pairs = 0
                cost = on_idle(stats)
                if cost is not None:
                    self.fill = system.costs.per_round + _block_cost(system, refill.pairs)
                return cost

            system.on_idle = noted_on_idle
            super()._drive(state)

        def _emission_round(self, state):
            self.fill = None
            super()._emission_round(state)

        def _ingest_one(self, state, timer, forced=False):
            if self.fill is not None:
                self.after_idle.append((state.clock - self._ingest_start(state), self.fill))
                self.fill = None
            super()._ingest_one(state, timer, forced)

    return Recording


@pytest.mark.parametrize("engine_cls", [StreamingEngine, PipelinedStreamingEngine])
@pytest.mark.parametrize("name", ["I-PCS", "I-PES"])
def test_no_ingest_waits_for_more_than_one_block_of_a_fill(engine_cls, name, small_dblp_acm):
    """Fills to K would run far past the next arrival on a fast stream; the
    stop at ``next_ingest`` keeps every ingest that follows an idle round
    within one block's refill cost (the round's fixed charge included) of
    when it could start: its arrival on the serial engine, the later of its
    arrival and the ingest clock on the pipelined one."""
    session = ERSession(small_dblp_acm, n_increments=200, rate=1000.0, seed=1)
    system = session.build_system(name)
    system.strategy.refill = _LastBlock(system.strategy.refill.scheme)
    engine = _recording(engine_cls)(session.build_matcher(), budget=1e6)
    result = engine.run(system, session.plan_for(name), small_dblp_acm.ground_truth)
    assert result.work_exhausted
    assert engine.after_idle  # idle rounds that an arrival cut short
    for lateness, bound in engine.after_idle:
        assert lateness <= bound + 1e-12
