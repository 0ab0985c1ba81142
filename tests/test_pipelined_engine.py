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
from repro.streaming.system import PipelineStats

from tests.conftest import build_matcher, build_system, rounds_within_work


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


#: Every name that builds a ``BatchProgressiveSystem``.
BATCH_BASELINES = (
    "BATCH", "PPS", "PBS", "LS-PSN", "GS-PSN", "PPS-GLOBAL", "PPS-LOCAL", "PBS-GLOBAL",
)


class TestExhaustedBatchBaselineEndsTheRun:
    """An exhausted batch baseline used to answer "pending?" with the
    inherited ``True`` and an empty ``emit`` at a positive cost, so the
    pipelined engine burnt its budget in ``budget / 1e-5`` empty rounds and
    never reported ``work_exhausted``."""

    @pytest.mark.parametrize("name", BATCH_BASELINES)
    @pytest.mark.parametrize("rate", [None, 2.0], ids=["static", "streamed"])
    def test_rounds_bounded_and_engines_agree(self, name, rate, small_dblp_acm):
        plan = make_stream_plan(split_into_increments(small_dblp_acm, 6, seed=0), rate=rate)
        runs = []
        for engine_cls in (StreamingEngine, PipelinedStreamingEngine):
            result = engine_cls(build_matcher("JS"), budget=30.0).run(
                build_system(name, small_dblp_acm), plan, small_dblp_acm.ground_truth
            )
            assert rounds_within_work(result)
            runs.append(result)
        serial, pipelined = runs
        # The budget is ample: both engines must see the work run out ...
        assert serial.work_exhausted and pipelined.work_exhausted
        # ... and then have found the same duplicates.  (Fed six increments
        # at once, PPS-LOCAL keeps only the newest one an engine has ingested
        # when it first emits; the two engines ingest in a different order.)
        if rate is not None or name != "PPS-LOCAL":
            assert pipelined.duplicates == serial.duplicates

    def test_pending_again_after_an_increment(self, small_dblp_acm):
        first, second = split_into_increments(small_dblp_acm, 2, seed=0)
        system = build_system("PBS", small_dblp_acm)
        stats = PipelineStats(now=0.0, input_rate=None, mean_match_cost=1e-4, backlog=0)
        for increment in (first, second):
            system.ingest(increment)
            assert system.has_pending_comparisons()  # owes an initialization
            emitted = 0
            while system.has_pending_comparisons():
                emitted += len(system.emit(stats).batch)
            assert emitted
        restored = build_system("PBS", small_dblp_acm)
        restored.restore(system.snapshot())
        assert not restored.has_pending_comparisons()


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
