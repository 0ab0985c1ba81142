"""Failure-injection and edge-case tests across the pipeline.

Streams in the wild misbehave: empty increments, bursts, duplicate pids,
profiles with no usable tokens, pathological values.  The pipeline must
degrade gracefully — never crash, never double-count.
"""

from __future__ import annotations

import pytest

from repro.core.dataset import Dataset, ERKind, GroundTruth
from repro.core.increments import Increment, StreamPlan, make_stream_plan
from repro.core.profile import EntityProfile
from repro.incremental.ibase import IBaseSystem
from repro.pier.base import PierSystem
from repro.pier.ipbs import IPBS
from repro.pier.ipcs import IPCS
from repro.pier.ipes import IPES
from repro.streaming.engine import StreamingEngine
from repro.streaming.pipelined import PipelinedStreamingEngine

from tests.conftest import build_matcher, build_system, make_profile

ALL_STRATEGIES = [lambda: PierSystem(IPES()), lambda: PierSystem(IPCS()),
                  lambda: PierSystem(IPBS()), IBaseSystem]


def _run(system, plan, truth, budget=50.0):
    engine = StreamingEngine(build_matcher("JS"), budget=budget)
    return engine.run(system, plan, truth)


class TestEmptyIncrements:
    @pytest.mark.parametrize("factory", ALL_STRATEGIES)
    def test_empty_increments_interleaved(self, factory, toy_dirty_dataset):
        increments = [
            Increment(0, tuple(toy_dirty_dataset.profiles[:3])),
            Increment(1, ()),
            Increment(2, tuple(toy_dirty_dataset.profiles[3:])),
            Increment(3, ()),
        ]
        plan = make_stream_plan(increments, rate=5.0)
        result = _run(factory(), plan, toy_dirty_dataset.ground_truth)
        assert result.final_pc > 0.5

    def test_all_empty_stream(self):
        increments = [Increment(i, ()) for i in range(5)]
        plan = make_stream_plan(increments, rate=10.0)
        result = _run(PierSystem(IPES()), plan, GroundTruth())
        assert result.comparisons_executed == 0
        assert result.work_exhausted


class TestDegenerateProfiles:
    @pytest.mark.parametrize("factory", ALL_STRATEGIES)
    def test_tokenless_profiles(self, factory):
        profiles = (
            EntityProfile(0, {"a": "!!! ???"}),       # no valid tokens
            EntityProfile(1, {}),                      # no attributes
            make_profile(2, "alpha beta"),
            make_profile(3, "alpha beta"),
        )
        plan = make_stream_plan([Increment(0, profiles)], rate=None)
        result = _run(factory(), plan, GroundTruth([(2, 3)]))
        assert result.final_pc == 1.0

    def test_single_profile_stream(self):
        plan = make_stream_plan([Increment(0, (make_profile(0, "solo"),))], rate=None)
        result = _run(PierSystem(IPES()), plan, GroundTruth())
        assert result.comparisons_executed == 0
        assert result.work_exhausted

    def test_very_long_value(self):
        long_text = "tok " * 2000
        profiles = (make_profile(0, long_text), make_profile(1, long_text))
        plan = make_stream_plan([Increment(0, profiles)], rate=None)
        result = _run(PierSystem(IPES()), plan, GroundTruth([(0, 1)]))
        # 'tok' block contains both, comparison executed
        assert result.final_pc == 1.0


class TestBurstyStreams:
    @pytest.mark.parametrize("factory", ALL_STRATEGIES)
    def test_burst_then_silence(self, factory, small_dblp_acm):
        from repro.core.increments import split_into_increments

        increments = split_into_increments(small_dblp_acm, 20, seed=0)
        # 10 increments in one burst at t=0, then a long gap, then the rest
        times = tuple([0.0] * 10 + [50.0 + i for i in range(10)])
        plan = StreamPlan(increments=tuple(increments), arrival_times=times)
        result = _run(factory(), plan, small_dblp_acm.ground_truth, budget=120.0)
        assert result.increments_ingested == 20
        assert result.final_pc > 0.3

    def test_irregular_arrival_times(self, toy_dirty_dataset):
        from repro.core.increments import split_into_increments

        increments = split_into_increments(toy_dirty_dataset, 3, seed=0)
        plan = StreamPlan(
            increments=tuple(increments), arrival_times=(0.0, 0.001, 30.0)
        )
        result = _run(PierSystem(IPES()), plan, toy_dirty_dataset.ground_truth)
        assert result.work_exhausted


class TestDuplicateArrivals:
    def test_duplicate_pid_raises_cleanly(self):
        system = PierSystem(IPES())
        system.ingest(Increment(0, (make_profile(0, "alpha"),)))
        with pytest.raises(ValueError):
            system.ingest(Increment(1, (make_profile(0, "alpha"),)))


class TestPipelinedStarvation:
    """The pipelined engine's step-3 starvation path: forced ingests under
    permanent back-pressure, idle-work exhaustion, and the budget clamp on
    ingests that cannot start before the deadline."""

    @pytest.mark.parametrize("factory", ALL_STRATEGIES)
    def test_forced_ingest_escapes_livelock(self, factory, toy_dirty_dataset):
        from repro.core.increments import split_into_increments

        system = factory()
        # Permanent back-pressure: the engine must force increments through
        # (step 3) instead of livelocking on a system that never turns ready.
        system.ready_for_ingest = lambda: False
        increments = split_into_increments(toy_dirty_dataset, 3, seed=0)
        plan = make_stream_plan(increments, rate=10.0)
        engine = PipelinedStreamingEngine(build_matcher("JS"), budget=50.0)
        result = engine.run(system, plan, toy_dirty_dataset.ground_truth)
        counters = result.details["metrics"]["counters"]
        assert counters["engine.forced_ingests"] == 3
        assert result.increments_ingested == 3
        assert result.work_exhausted
        assert result.final_pc > 0.5

    @pytest.mark.parametrize("factory", ALL_STRATEGIES)
    def test_on_idle_exhaustion_terminates(self, factory, toy_dirty_dataset):
        from repro.core.increments import split_into_increments

        increments = split_into_increments(toy_dirty_dataset, 2, seed=0)
        plan = make_stream_plan(increments, rate=100.0)  # stream over instantly
        engine = PipelinedStreamingEngine(build_matcher("JS"), budget=200.0)
        result = engine.run(factory(), plan, toy_dirty_dataset.ground_truth)
        # Generous budget: the system drains its queue, exhausts any idle
        # refill work, and the run ends work-exhausted inside the budget.
        assert result.work_exhausted
        assert result.clock_end < 200.0
        assert result.final_pc > 0.5

    @pytest.mark.parametrize("factory", ALL_STRATEGIES)
    def test_ingest_past_budget_is_not_charged(self, factory, toy_dirty_dataset):
        from repro.core.increments import split_into_increments

        increments = split_into_increments(toy_dirty_dataset, 3, seed=0)
        # Last arrival far beyond the budget: the engine must stop at the
        # deadline instead of charging the ingest (and work derived from it).
        plan = StreamPlan(
            increments=tuple(increments), arrival_times=(0.0, 0.1, 500.0)
        )
        engine = PipelinedStreamingEngine(build_matcher("JS"), budget=2.0)
        result = engine.run(factory(), plan, toy_dirty_dataset.ground_truth)
        gauges = result.details["metrics"]["gauges"]
        assert not result.work_exhausted
        assert result.clock_end == 2.0
        assert result.increments_ingested == 2
        assert gauges["engine.ingest_clock_end"] <= 2.0


class TestClockSanity:
    @pytest.mark.parametrize("factory", ALL_STRATEGIES)
    def test_clock_never_negative_and_bounded(self, factory, small_census):
        from repro.core.increments import split_into_increments

        increments = split_into_increments(small_census, 10, seed=0)
        plan = make_stream_plan(increments, rate=3.0)
        result = _run(factory(), plan, small_census.ground_truth, budget=20.0)
        assert 0.0 <= result.clock_end
        if not result.work_exhausted:
            assert result.clock_end <= 20.0 * 1.5  # one overshooting action max
