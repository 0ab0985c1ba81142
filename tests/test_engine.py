"""Tests for the discrete-event streaming engine."""

from __future__ import annotations

import pytest

from repro.core.increments import make_stream_plan, split_into_increments
from repro.incremental.ibase import IBaseSystem
from repro.matching.matcher import JaccardMatcher
from repro.pier.base import PierSystem
from repro.pier.ipes import IPES
from repro.streaming.engine import StreamingEngine
from repro.streaming.system import EmitResult, ERSystem, PipelineStats

from tests.conftest import build_system


def _engine(budget=100.0) -> StreamingEngine:
    return StreamingEngine(JaccardMatcher(0.4), budget=budget)


class TestEngineBasics:
    def test_budget_validation(self):
        with pytest.raises(ValueError):
            StreamingEngine(JaccardMatcher(), budget=0.0)

    def test_static_run_completes(self, toy_dirty_dataset):
        plan = make_stream_plan(split_into_increments(toy_dirty_dataset, 2), rate=None)
        result = _engine().run(PierSystem(IPES()), plan, toy_dirty_dataset.ground_truth)
        assert result.work_exhausted
        assert result.final_pc > 0.0
        assert result.increments_ingested == 2

    def test_budget_enforced(self, small_census):
        plan = make_stream_plan(split_into_increments(small_census, 10), rate=None)
        tight = StreamingEngine(JaccardMatcher(0.4), budget=0.001)
        result = tight.run(PierSystem(IPES()), plan, small_census.ground_truth)
        assert result.clock_end >= 0.001
        assert not result.work_exhausted

    def test_arrivals_respected(self, toy_dirty_dataset):
        """No comparison can execute before the profiles' arrival times."""
        increments = split_into_increments(toy_dirty_dataset, 6, seed=0)
        plan = make_stream_plan(increments, rate=1.0)  # arrivals at 0..5
        result = _engine().run(PierSystem(IPES()), plan, toy_dirty_dataset.ground_truth)
        arrival_of = {}
        for when, increment in plan:
            for profile in increment:
                arrival_of[profile.pid] = when
        # matches can only be found after both profiles arrived
        for point in result.curve.points:
            if point.matches:
                assert point.time >= 0.0
        assert result.stream_consumed_at >= plan.last_arrival

    def test_match_timestamps_monotone(self, toy_dirty_dataset):
        plan = make_stream_plan(split_into_increments(toy_dirty_dataset, 3), rate=2.0)
        result = _engine().run(PierSystem(IPES()), plan, toy_dirty_dataset.ground_truth)
        times = [point.time for point in result.curve.points]
        assert times == sorted(times)

    def test_duplicates_reported(self, toy_dirty_dataset):
        plan = make_stream_plan(split_into_increments(toy_dirty_dataset, 1), rate=None)
        result = _engine().run(PierSystem(IPES()), plan, toy_dirty_dataset.ground_truth)
        assert (0, 1) in result.duplicates

    def test_deterministic_across_runs(self, small_census):
        plan = make_stream_plan(split_into_increments(small_census, 8, seed=3), rate=4.0)
        run = lambda: _engine().run(
            PierSystem(IPES()), plan, small_census.ground_truth
        )
        a, b = run(), run()
        assert a.final_pc == b.final_pc
        assert a.comparisons_executed == b.comparisons_executed
        assert a.clock_end == b.clock_end

    def test_empty_plan(self, toy_dirty_dataset):
        plan = make_stream_plan([], rate=None)
        result = _engine().run(PierSystem(IPES()), plan, toy_dirty_dataset.ground_truth)
        assert result.comparisons_executed == 0
        assert result.work_exhausted


class TestBackPressure:
    def test_ibase_consumes_stream_late_under_load(self, small_census):
        """With a tiny watermark, I-BASE ingests the stream much later than
        the nominal last arrival."""
        increments = split_into_increments(small_census, 20, seed=1)
        plan = make_stream_plan(increments, rate=1000.0)  # all nearly at once
        system = IBaseSystem(high_watermark=5, chunk_size=1)
        result = _engine(budget=500.0).run(system, plan, small_census.ground_truth)
        assert result.stream_consumed_at is None or (
            result.stream_consumed_at > plan.last_arrival
        )

    def test_no_livelock_when_blocked_and_idle(self, toy_dirty_dataset):
        """A system that refuses ingestion but has no work must still make
        progress (the engine force-feeds one increment)."""

        class Stubborn(ERSystem):
            name = "stubborn"

            def __init__(self):
                super().__init__()
                self.ingested = 0

            def ingest(self, increment):
                self.ingested += 1
                return 0.001

            def has_work(self):
                return False

            def emit(self, stats):
                return EmitResult(batch=(), cost=0.0)

            def ready_for_ingest(self):
                return False

            @property
            def profiles(self):
                raise AssertionError("no comparisons expected")

        plan = make_stream_plan(split_into_increments(toy_dirty_dataset, 3), rate=None)
        system = Stubborn()
        result = _engine(budget=1.0).run(system, plan, toy_dirty_dataset.ground_truth)
        assert system.ingested == 3
        assert result.work_exhausted


class EmitSpy:
    """A system seen through a spy that notes, at every ``emit``, whether
    the system said it had work."""

    def __init__(self, system) -> None:
        self.system = system
        self.had_work: list[bool] = []

    def emit(self, stats):
        self.had_work.append(self.system.has_work())
        return self.system.emit(stats)

    def __getattr__(self, name):
        return getattr(self.system, name)


class TestEmissionAsksForWork:
    @pytest.mark.parametrize("name", ["I-PES", "I-PBS", "I-BASE", "PBS-GLOBAL", "GS-PSN"])
    @pytest.mark.parametrize("rate", [None, 2.0], ids=["static", "streamed"])
    def test_never_emits_without_work(self, name, rate, small_dblp_acm):
        plan = make_stream_plan(split_into_increments(small_dblp_acm, 6, seed=0), rate=rate)
        spy = EmitSpy(build_system(name, small_dblp_acm))
        result = _engine(budget=300.0).run(spy, plan, small_dblp_acm.ground_truth)
        assert result.work_exhausted
        assert spy.had_work and all(spy.had_work)


class TestConsumedMarker:
    def test_consumed_time_set_when_stream_drains(self, toy_dirty_dataset):
        plan = make_stream_plan(split_into_increments(toy_dirty_dataset, 4), rate=10.0)
        result = _engine().run(PierSystem(IPES()), plan, toy_dirty_dataset.ground_truth)
        assert result.stream_consumed_at is not None
        assert result.stream_consumed_at >= plan.last_arrival

    def test_consumed_none_when_budget_too_small(self, small_census):
        plan = make_stream_plan(split_into_increments(small_census, 50), rate=1.0)
        tiny = StreamingEngine(JaccardMatcher(0.4), budget=0.5)
        result = tiny.run(PierSystem(IPES()), plan, small_census.ground_truth)
        assert result.stream_consumed_at is None
