"""Tests for the incremental token blocking component."""

from __future__ import annotations

import pytest

from repro.blocking.token_blocking import BlockingCosts, IncrementalTokenBlocking
from repro.core.increments import Increment

from tests.conftest import make_profile


class TestIncrementalTokenBlocking:
    def test_process_profile_indexes_and_stores(self):
        blocker = IncrementalTokenBlocking()
        profile = make_profile(1, "alpha beta")
        cost = blocker.process_profile(profile)
        assert cost > 0
        assert blocker.profiles[1] is profile
        assert blocker.collection.blocks_of(1) == {"alpha", "beta"}

    def test_process_increment_accumulates_cost(self):
        blocker = IncrementalTokenBlocking()
        increment = Increment(0, tuple(make_profile(i, f"tok{i}") for i in range(3)))
        cost = blocker.process_increment(increment)
        assert cost == pytest.approx(blocker.total_cost)
        assert blocker.profiles_processed == 3

    def test_cost_scales_with_tokens(self):
        costs = BlockingCosts(per_profile=0.0, per_token=1.0)
        blocker = IncrementalTokenBlocking(costs=costs)
        cost = blocker.process_profile(make_profile(1, "aa bb cc"))
        assert cost == pytest.approx(3.0)

    def test_empty_increment_costs_nothing(self):
        blocker = IncrementalTokenBlocking()
        assert blocker.process_increment(Increment(0, ())) == 0.0

    def test_get_profile_missing(self):
        blocker = IncrementalTokenBlocking()
        assert blocker.profiles.get(42) is None
        with pytest.raises(KeyError):
            blocker.profiles[42]

    def test_clean_clean_flag_propagates(self):
        blocker = IncrementalTokenBlocking(clean_clean=True)
        assert blocker.collection.clean_clean

    def test_known_profiles(self):
        blocker = IncrementalTokenBlocking()
        blocker.process_profile(make_profile(1, "x1"))
        blocker.process_profile(make_profile(2, "x2"))
        assert len(blocker.profiles) == 2
