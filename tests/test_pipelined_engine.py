"""Tests for the two-stage pipelined engine (task-parallel extension)."""

from __future__ import annotations

import pytest

from repro.api import ERSession
from repro.core.increments import make_stream_plan, split_into_increments
from repro.evaluation.experiments import SYSTEM_NAMES
from repro.incremental.ibase import IBaseSystem
from repro.matching.matcher import EditDistanceMatcher, JaccardMatcher
from repro.pier.base import PierSystem
from repro.pier.ipes import IPES
from repro.streaming.engine import StreamingEngine
from repro.streaming.pipelined import PipelinedStreamingEngine
from repro.streaming.system import PipelineStats

from tests.conftest import build_system, rounds_within_work
from tests.reference.blocking_graph import co_block_pairs
from tests.reference.exhaustion import nothing_left


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


#: Systems whose comparison universe depends on which intermediate
#: initializations ran, and so on the engine's timing: PPS keeps each
#: profile's top-k edges of the graph it was built on, GS-PSN and LS-PSN
#: the window pairs of the array they were built on, and a pair one build
#: emitted stays executed after the next build dropped it.  (On streamed
#: ``small_census`` the pipelined LS-PSN run executes two pairs more than
#: the serial one, (276, 317) and (280, 330): each lies within
#: ``max_window`` of three intermediate sorted arrays but not of the final
#: one.)
TIMING_DEPENDENT_UNIVERSE = ("PPS", "PPS-GLOBAL", "PPS-LOCAL", "GS-PSN", "LS-PSN")
#: Batch baselines that walk every block: they execute the blocking graph.
WHOLE_GRAPH = ("PBS", "PBS-GLOBAL", "BATCH")


class TestExhaustedBatchBaselineEndsTheRun:
    """Both engines ask ``has_work()`` before every emission round, and a
    batch baseline's round reads on past pairs it executed already.  At an
    ample budget the engines then agree for every system, on Dirty and
    Clean-Clean ER, static and streamed: both see the work run out, which
    the scanning probe of ``tests/reference/exhaustion.py`` confirms, and
    both execute as many comparisons.  (The serial engine used to end a
    batch baseline's run at the first chunk of executed pairs, the
    pipelined one to spin on an exhausted baseline.)"""

    @pytest.mark.parametrize("name", SYSTEM_NAMES)
    @pytest.mark.parametrize("rate", [None, 2.0], ids=["static", "streamed"])
    @pytest.mark.parametrize("dataset", ["small_dblp_acm", "small_census"])
    def test_rounds_bounded_and_engines_agree(self, name, rate, dataset, request):
        data = request.getfixturevalue(dataset)
        session = ERSession(data, n_increments=6, rate=rate, budget=300.0)
        plan = session.plan_for(name)
        executed = []
        for engine_cls in (StreamingEngine, PipelinedStreamingEngine):
            system = session.build_system(name)
            result = engine_cls(session.build_matcher(), budget=300.0).run(
                system, plan, data.ground_truth
            )
            assert result.work_exhausted
            assert not system.has_work() and nothing_left(system)
            assert rounds_within_work(result)
            if name in WHOLE_GRAPH:
                assert system.store.executed == set(co_block_pairs(system.collection))
            executed.append(result.comparisons_executed)
        if name not in TIMING_DEPENDENT_UNIVERSE:
            assert executed[0] == executed[1]

    def test_pending_again_after_an_increment(self, small_dblp_acm):
        first, second = split_into_increments(small_dblp_acm, 2, seed=0)
        system = build_system("PBS", small_dblp_acm)
        assert not system.has_work()  # nothing ingested yet
        stats = PipelineStats(now=0.0, input_rate=None, mean_match_cost=1e-4, backlog=0)
        for increment in (first, second):
            system.ingest(increment)
            assert system.has_work()  # owes an initialization
            emitted = 0
            while system.has_work():
                emitted += len(system.emit(stats).batch)
            assert emitted
        restored = build_system("PBS", small_dblp_acm)
        restored.restore(system.snapshot())
        assert not restored.has_work()


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

    @pytest.mark.parametrize("name", ["I-PCS", "I-PBS", "I-PES"])
    def test_idle_time_refills_as_on_the_serial_engine(self, name, small_dblp_acm):
        """Algorithm 1 executes the best comparisons while it waits for the
        next increment: on an idle-rich stream the pipelined engine calls
        ``on_idle`` between arrivals, as the serial one does, so its early
        quality is no worse for the same comparisons."""
        n, rate = 40, 5.0
        session = ERSession(small_dblp_acm, n_increments=n, rate=rate, seed=1)
        plan = session.plan_for(name)
        serial, pipelined = (
            engine_cls(session.build_matcher(), budget=1e6).run(
                session.build_system(name), plan, small_dblp_acm.ground_truth
            )
            for engine_cls in (StreamingEngine, PipelinedStreamingEngine)
        )
        assert pipelined.curve.area_under_curve(n / rate) >= (
            serial.curve.area_under_curve(n / rate) - 0.01
        )
        assert pipelined.comparisons_executed == serial.comparisons_executed
        # Cut at the last arrival: the idle rounds all ran while the
        # stream was still arriving.
        last_arrival = plan.arrival_times[-1]
        cut = PipelinedStreamingEngine(session.build_matcher(), budget=last_arrival).run(
            session.build_system(name), plan, small_dblp_acm.ground_truth
        )
        assert cut.stream_consumed_at is None
        assert cut.details["metrics"]["counters"]["engine.idle_rounds"] > 0

    def test_backpressure_respected(self, small_census):
        plan = make_stream_plan(
            split_into_increments(small_census, 20, seed=1), rate=1000.0
        )
        system = IBaseSystem(high_watermark=5, chunk_size=1)
        result = PipelinedStreamingEngine(JaccardMatcher(0.4), budget=200.0).run(
            system, plan, small_census.ground_truth
        )
        assert result.increments_ingested == 20
