"""Tests for the varying-rate stream plan constructors."""

from __future__ import annotations

import pytest

from repro.core.increments import (
    make_bursty_stream_plan,
    make_poisson_stream_plan,
    split_into_increments,
)
from repro.streaming.engine import StreamingEngine

from tests.conftest import build_matcher, build_system


class TestPoissonPlan:
    def test_non_decreasing_times(self, toy_dirty_dataset):
        increments = split_into_increments(toy_dirty_dataset, 6)
        plan = make_poisson_stream_plan(increments, rate=2.0, seed=1)
        assert list(plan.arrival_times) == sorted(plan.arrival_times)

    def test_mean_rate_approximate(self, small_census):
        increments = split_into_increments(small_census, 200)
        plan = make_poisson_stream_plan(increments, rate=10.0, seed=2)
        duration = plan.arrival_times[-1] - plan.arrival_times[0]
        empirical_rate = (len(plan) - 1) / duration
        assert empirical_rate == pytest.approx(10.0, rel=0.3)

    def test_deterministic(self, toy_dirty_dataset):
        increments = split_into_increments(toy_dirty_dataset, 6)
        a = make_poisson_stream_plan(increments, rate=3.0, seed=9)
        b = make_poisson_stream_plan(increments, rate=3.0, seed=9)
        assert a.arrival_times == b.arrival_times

    def test_validation(self, toy_dirty_dataset):
        increments = split_into_increments(toy_dirty_dataset, 2)
        with pytest.raises(ValueError):
            make_poisson_stream_plan(increments, rate=0.0)

    def test_engine_consumes_poisson_stream(self, small_dblp_acm):
        increments = split_into_increments(small_dblp_acm, 20, seed=0)
        plan = make_poisson_stream_plan(increments, rate=5.0, seed=3)
        engine = StreamingEngine(build_matcher("JS"), budget=60.0)
        result = engine.run(
            build_system("I-PES", small_dblp_acm), plan, small_dblp_acm.ground_truth
        )
        assert result.increments_ingested == 20
        assert result.final_pc > 0.5


class TestBurstyPlan:
    def test_burst_grouping(self, toy_dirty_dataset):
        increments = split_into_increments(toy_dirty_dataset, 6)
        plan = make_bursty_stream_plan(increments, burst_size=2, burst_interval=5.0)
        assert plan.arrival_times == (0.0, 0.0, 5.0, 5.0, 10.0, 10.0)

    def test_validation(self, toy_dirty_dataset):
        increments = split_into_increments(toy_dirty_dataset, 2)
        with pytest.raises(ValueError):
            make_bursty_stream_plan(increments, burst_size=0, burst_interval=1.0)
        with pytest.raises(ValueError):
            make_bursty_stream_plan(increments, burst_size=1, burst_interval=0.0)

    def test_engine_consumes_bursty_stream(self, small_dblp_acm):
        increments = split_into_increments(small_dblp_acm, 12, seed=0)
        plan = make_bursty_stream_plan(increments, burst_size=4, burst_interval=3.0)
        engine = StreamingEngine(build_matcher("JS"), budget=60.0)
        result = engine.run(
            build_system("I-PES", small_dblp_acm), plan, small_dblp_acm.ground_truth
        )
        assert result.increments_ingested == 12
