"""Tests for the batch progressive baselines PPS, PBS, and BATCH."""

from __future__ import annotations

import copy

import pytest

from repro.core.increments import Increment
from repro.progressive.batch import BatchERSystem
from repro.progressive.pbs import PBSSystem
from repro.progressive.pps import PPSSystem
from repro.streaming.system import PipelineStats

from tests.conftest import make_profile


def _stats(remaining=None) -> PipelineStats:
    return PipelineStats(
        now=0.0, input_rate=None, mean_match_cost=1e-4, backlog=0, remaining_budget=remaining
    )


def _drain(system, max_rounds=500):
    pairs = []
    empty_streak = 0
    for _ in range(max_rounds):
        result = system.emit(_stats())
        pairs.extend(result.batch)
        if result.batch:
            empty_streak = 0
            continue
        empty_streak += 1
        if empty_streak >= 2 and system.on_idle(_stats()) is None:
            break
    return pairs


PROFILES = (
    make_profile(0, "alpha beta gamma"),
    make_profile(1, "alpha beta gamma"),
    make_profile(2, "alpha delta"),
    make_profile(3, "epsilon zeta"),
    make_profile(4, "epsilon zeta eta"),
)


class TestPPS:
    def test_initialization_then_emission(self):
        system = PPSSystem()
        system.ingest(Increment(0, PROFILES))
        first = system.emit(_stats())
        assert not first.batch      # initialization round
        assert first.cost > 0
        second = system.emit(_stats())
        assert second.batch          # emission starts

    def test_best_pairs_first(self):
        system = PPSSystem()
        system.ingest(Increment(0, PROFILES))
        system.emit(_stats())  # init
        pairs = _drain(system)
        # the heaviest edge (0,1) with CBS 3 must come first
        assert pairs[0] == (0, 1)

    def test_budget_burn_when_init_exceeds_remaining(self):
        system = PPSSystem()
        system.ingest(Increment(0, PROFILES))
        result = system.emit(_stats(remaining=1e-12))
        assert not result.batch
        assert result.cost >= 1e-12
        assert system.initializations == 0  # actual build skipped

    def test_scope_last_resets_state(self):
        system = PPSSystem(scope="last")
        system.ingest(Increment(0, PROFILES[:2]))
        system.emit(_stats())
        system.ingest(Increment(1, PROFILES[2:]))
        system.emit(_stats())  # re-init over last increment only
        pairs = _drain(system)
        # inter-increment pair (0,1) can never appear after the reset
        assert all(pair not in [(0, 1)] for pair in pairs)

    def test_global_scope_reinitializes(self):
        system = PPSSystem(scope="all")
        system.ingest(Increment(0, PROFILES[:2]))
        system.emit(_stats())
        assert system.initializations == 1
        system.ingest(Increment(1, PROFILES[2:]))
        system.emit(_stats())
        assert system.initializations == 2

    def test_reinit_cost_accumulates_per_increment(self):
        """Two increments ingested back-to-back owe two re-initializations."""
        system = PPSSystem(scope="all")
        system.ingest(Increment(0, PROFILES[:2]))
        single = system._pending_init_cost
        system.ingest(Increment(1, PROFILES[2:]))
        assert system._pending_init_cost > single

    def test_top_k_limits_emission(self):
        wide = tuple(make_profile(pid, "shared") for pid in range(12))
        limited = PPSSystem(top_k=1)
        limited.ingest(Increment(0, wide))
        limited.emit(_stats())
        generous = PPSSystem(top_k=10)
        generous.ingest(Increment(0, wide))
        generous.emit(_stats())
        assert len(_drain(limited)) < len(_drain(generous))

    def test_invalid_scope(self):
        with pytest.raises(ValueError):
            PPSSystem(scope="bogus")


class TestPBS:
    def test_smallest_blocks_first(self):
        system = PBSSystem()
        profiles = (
            make_profile(0, "tiny common"),
            make_profile(1, "tiny common"),
            make_profile(2, "common"),
            make_profile(3, "common"),
        )
        system.ingest(Increment(0, profiles))
        system.emit(_stats())  # init (cheap for PBS)
        pairs = _drain(system)
        assert pairs[0] == (0, 1)

    def test_init_is_cheap_compared_to_pps(self):
        pps, pbs = PPSSystem(), PBSSystem()
        profiles = tuple(make_profile(pid, f"shared extra{pid % 3}") for pid in range(30))
        pps.ingest(Increment(0, profiles))
        pbs.ingest(Increment(0, profiles))
        pps_init = pps.emit(_stats()).cost
        pbs_init = pbs.emit(_stats()).cost
        assert pbs_init < pps_init

    def test_no_duplicate_pairs(self):
        system = PBSSystem()
        profiles = (make_profile(0, "alpha beta"), make_profile(1, "alpha beta"))
        system.ingest(Increment(0, profiles))
        system.emit(_stats())
        pairs = _drain(system)
        assert pairs.count((0, 1)) == 1

    def test_cbs_orders_within_block(self):
        system = PBSSystem()
        profiles = (
            make_profile(0, "blk alpha beta"),
            make_profile(1, "blk alpha beta"),   # strong pair within 'blk'
            make_profile(2, "blk"),
        )
        system.ingest(Increment(0, profiles))
        system.emit(_stats())
        pairs = _drain(system)
        assert pairs[0] == (0, 1)

    def test_round_reads_on_past_executed_pairs(self):
        """Chunks of pairs executed already do not end the round: it comes
        back empty only at the end of the emission order, and only then
        does the system report no work."""
        system = PBSSystem(chunk_size=1)
        system.ingest(Increment(0, PROFILES))
        system.emit(_stats())  # init
        order = _drain(copy.deepcopy(system))
        assert len(order) > 2
        for pair in order[:-1]:
            system.store.mark_executed(pair)
        assert system.emit(_stats()).batch == (order[-1],)
        assert system.has_work()
        assert not system.emit(_stats()).batch
        assert not system.has_work()


class TestBatchER:
    def test_emits_all_block_pairs(self):
        system = BatchERSystem()
        profiles = (
            make_profile(0, "a1"),
            make_profile(1, "a1"),
            make_profile(2, "a1 b1"),
            make_profile(3, "b1"),
        )
        system.ingest(Increment(0, profiles))
        system.emit(_stats())
        pairs = set(_drain(system))
        assert pairs == {(0, 1), (0, 2), (1, 2), (2, 3)}

    def test_clean_clean_filtering(self):
        system = BatchERSystem(clean_clean=True)
        profiles = (
            make_profile(0, "tok", source=0),
            make_profile(1, "tok", source=0),
            make_profile(2, "tok", source=1),
        )
        system.ingest(Increment(0, profiles))
        system.emit(_stats())
        assert set(_drain(system)) == {(0, 2), (1, 2)}

    def test_empty_increment_noop(self):
        system = BatchERSystem()
        cost = system.ingest(Increment(0, ()))
        assert cost >= 0
        assert not system._dirty
