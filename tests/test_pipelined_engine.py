"""Tests for the two-stage pipelined engine (task-parallel extension)."""

from __future__ import annotations

import pytest

from repro.core.increments import make_stream_plan, split_into_increments
from repro.incremental.ibase import IBaseSystem
from repro.matching.matcher import EditDistanceMatcher, JaccardMatcher
from repro.pier.base import PierSystem
from repro.pier.ipes import IPES
from repro.streaming.engine import StreamingEngine
from repro.streaming.pipelined import PipelinedStreamingEngine

from tests.conftest import build_matcher, build_system


class TestPipelinedBasics:
    def test_budget_validation(self):
        with pytest.raises(ValueError):
            PipelinedStreamingEngine(JaccardMatcher(), budget=0.0)

    def test_static_run_matches_serial_results(self, toy_dirty_dataset):
        plan = make_stream_plan(split_into_increments(toy_dirty_dataset, 2), rate=None)
        serial = StreamingEngine(JaccardMatcher(0.4), budget=60.0).run(
            PierSystem(IPES()), plan, toy_dirty_dataset.ground_truth
        )
        pipelined = PipelinedStreamingEngine(JaccardMatcher(0.4), budget=60.0).run(
            PierSystem(IPES()), plan, toy_dirty_dataset.ground_truth
        )
        assert pipelined.final_pc == serial.final_pc
        assert pipelined.work_exhausted

    def test_deterministic(self, small_census):
        plan = make_stream_plan(split_into_increments(small_census, 8, seed=2), rate=4.0)
        run = lambda: PipelinedStreamingEngine(JaccardMatcher(0.4), budget=20.0).run(
            PierSystem(IPES()), plan, small_census.ground_truth
        )
        a, b = run(), run()
        assert a.final_pc == b.final_pc
        assert a.clock_end == b.clock_end

    def test_curve_monotone(self, small_census):
        plan = make_stream_plan(split_into_increments(small_census, 10), rate=8.0)
        result = PipelinedStreamingEngine(JaccardMatcher(0.4), budget=30.0).run(
            PierSystem(IPES()), plan, small_census.ground_truth
        )
        times = [point.time for point in result.curve.points]
        assert times == sorted(times)

    def test_empty_plan(self, toy_dirty_dataset):
        plan = make_stream_plan([], rate=None)
        result = PipelinedStreamingEngine(JaccardMatcher(0.4), budget=10.0).run(
            PierSystem(IPES()), plan, toy_dirty_dataset.ground_truth
        )
        assert result.work_exhausted
        assert result.comparisons_executed == 0


class TestPipelineParallelism:
    def test_stream_consumed_no_later_than_serial_under_load(self, small_dbpedia):
        """With an expensive matcher, the ingest stage no longer waits for
        the matcher: the pipelined engine consumes the stream earlier."""
        plan = make_stream_plan(
            split_into_increments(small_dbpedia, 60, seed=0), rate=32.0
        )
        serial = StreamingEngine(EditDistanceMatcher(0.7), budget=60.0).run(
            build_system("I-PES", small_dbpedia), plan, small_dbpedia.ground_truth
        )
        pipelined = PipelinedStreamingEngine(EditDistanceMatcher(0.7), budget=60.0).run(
            build_system("I-PES", small_dbpedia), plan, small_dbpedia.ground_truth
        )
        assert pipelined.stream_consumed_at is not None
        if serial.stream_consumed_at is not None:
            assert pipelined.stream_consumed_at <= serial.stream_consumed_at + 1e-9

    def test_early_quality_not_worse_under_load(self, small_dbpedia):
        plan = make_stream_plan(
            split_into_increments(small_dbpedia, 60, seed=0), rate=32.0
        )
        budget = 60.0
        serial = StreamingEngine(EditDistanceMatcher(0.7), budget=budget).run(
            build_system("I-PES", small_dbpedia), plan, small_dbpedia.ground_truth
        )
        pipelined = PipelinedStreamingEngine(EditDistanceMatcher(0.7), budget=budget).run(
            build_system("I-PES", small_dbpedia), plan, small_dbpedia.ground_truth
        )
        assert pipelined.curve.area_under_curve(budget) >= serial.curve.area_under_curve(
            budget
        ) - 0.05

    def test_backpressure_respected(self, small_census):
        plan = make_stream_plan(
            split_into_increments(small_census, 20, seed=1), rate=1000.0
        )
        system = IBaseSystem(high_watermark=5, chunk_size=1)
        result = PipelinedStreamingEngine(JaccardMatcher(0.4), budget=200.0).run(
            system, plan, small_census.ground_truth
        )
        assert result.increments_ingested == 20
