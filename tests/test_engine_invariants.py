"""Cross-cutting engine invariants (both engines, several systems)."""

from __future__ import annotations

from collections import Counter

import pytest

from repro.core.comparison import canonical_pair
from repro.core.increments import Increment, make_stream_plan, split_into_increments
from repro.core.dataset import GroundTruth
from repro.evaluation.recorder import ProgressRecorder
from repro.incremental.ibase import IBaseSystem
from repro.streaming.engine import StreamingEngine
from repro.streaming.pipelined import PipelinedStreamingEngine
from repro.streaming.system import EmitResult, ERSystem, PipelineStats

from tests.conftest import build_matcher, build_system

SYSTEMS = ("I-PES", "I-PCS", "I-PBS", "I-BASE")
ENGINES = (StreamingEngine, PipelinedStreamingEngine)


@pytest.mark.parametrize("system_name", SYSTEMS)
@pytest.mark.parametrize("engine_factory", ENGINES)
def test_recorder_matches_matcher_counts(system_name, engine_factory, small_dblp_acm):
    """Every comparison the engine records went through the matcher."""
    plan = make_stream_plan(split_into_increments(small_dblp_acm, 8, seed=0), rate=5.0)
    matcher = build_matcher("JS")
    engine = engine_factory(matcher, budget=60.0)
    result = engine.run(build_system(system_name, small_dblp_acm), plan,
                        small_dblp_acm.ground_truth)
    assert result.comparisons_executed == matcher.comparisons_executed


@pytest.mark.parametrize("system_name", SYSTEMS + ("PPS", "PBS"))
@pytest.mark.parametrize("engine_factory", ENGINES)
def test_no_pair_is_executed_twice(system_name, engine_factory, small_dblp_acm, monkeypatch):
    """A spy on ``ProgressRecorder.record_batch`` sees every executed pair,
    apart from the systems' own stores: over a whole run none comes twice."""
    recorded: list[tuple[int, int]] = []
    record_batch = ProgressRecorder.record_batch

    def spy(recorder, pairs, times):
        pairs = list(pairs)
        recorded.extend(canonical_pair(*pair) for pair in pairs)
        return record_batch(recorder, pairs, times)

    monkeypatch.setattr(ProgressRecorder, "record_batch", spy)
    n_increments = 1 if system_name in ("PPS", "PBS") else 8  # batch: data upfront
    plan = make_stream_plan(
        split_into_increments(small_dblp_acm, n_increments, seed=0), rate=None
    )
    # A short budget: the run ends mid-way, with work still to come.
    engine = engine_factory(build_matcher("JS"), budget=1.0)
    push = engine.open_push(
        build_system(system_name, small_dblp_acm), small_dblp_acm.ground_truth
    )
    push.feed_plan(plan)
    push.drain(1.0)
    assert push.comparisons_executed > 0
    assert len(recorded) == push.comparisons_executed
    twice = [pair for pair, times in Counter(recorded).items() if times > 1]
    assert twice == [], f"{len(twice)} pairs executed more than once"


@pytest.mark.parametrize("engine_factory", ENGINES)
def test_duplicates_subset_of_executed_matches(engine_factory, small_dblp_acm):
    """Classified duplicates that are true matches appear in match_events."""
    plan = make_stream_plan(split_into_increments(small_dblp_acm, 5, seed=0), rate=None)
    engine = engine_factory(build_matcher("JS"), budget=60.0)
    result = engine.run(build_system("I-PES", small_dblp_acm), plan,
                        small_dblp_acm.ground_truth)
    event_pairs = {pair for _, pair in result.match_events}
    true_duplicates = {
        pair for pair in result.duplicates if pair in small_dblp_acm.ground_truth
    }
    assert true_duplicates <= event_pairs


@pytest.mark.parametrize("system_name", SYSTEMS)
def test_engines_agree_on_exhaustive_outcome(system_name, small_dblp_acm):
    """Given enough budget, serial and pipelined engines finish with the
    same final PC (the same work gets done, only timing differs)."""
    plan = make_stream_plan(split_into_increments(small_dblp_acm, 10, seed=0), rate=20.0)
    serial = StreamingEngine(build_matcher("JS"), budget=500.0).run(
        build_system(system_name, small_dblp_acm), plan, small_dblp_acm.ground_truth
    )
    pipelined = PipelinedStreamingEngine(build_matcher("JS"), budget=500.0).run(
        build_system(system_name, small_dblp_acm), plan, small_dblp_acm.ground_truth
    )
    assert serial.work_exhausted and pipelined.work_exhausted
    assert serial.final_pc == pytest.approx(pipelined.final_pc, abs=0.02)


class _BackpressureProbe(ERSystem):
    """Accepts one increment, then refuses: captures the backlog the engine
    reports to ``emit`` while arrived increments queue up."""

    name = "backpressure-probe"

    def __init__(self) -> None:
        super().__init__()
        self.seen_backlogs: list[int] = []
        self._ingested = 0

    def ingest(self, increment: Increment) -> float:
        self._ingested += 1
        return 0.1

    def ready_for_ingest(self) -> bool:
        return self._ingested == 0

    def has_work(self) -> bool:
        # One round per ingested increment.
        return len(self.seen_backlogs) < self._ingested

    def emit(self, stats: PipelineStats) -> EmitResult:
        self.seen_backlogs.append(stats.backlog)
        return EmitResult(batch=(), cost=0.0)


def test_stats_report_true_backlog_under_backpressure():
    """The engine must report arrived-but-uningested increments, not 0.

    Five increments arrive at t=0; the probe ingests one and then refuses,
    so each emission round must see the remaining queue: 4, 3, 2, 1, 0 as
    the engine force-feeds one increment per round.
    """
    increments = [Increment(i, ()) for i in range(5)]
    plan = make_stream_plan(increments, rate=None)
    probe = _BackpressureProbe()
    engine = StreamingEngine(build_matcher("JS"), budget=60.0)
    engine.run(probe, plan, GroundTruth([]))
    assert probe.seen_backlogs[0] == 4
    assert max(probe.seen_backlogs) > 0
    assert sorted(probe.seen_backlogs, reverse=True) == probe.seen_backlogs


@pytest.mark.parametrize("engine_factory", ENGINES)
def test_backlog_nonzero_on_fast_stream(engine_factory, small_dblp_acm):
    """A fast stream against a back-pressured system must surface nonzero
    backlog to findK / the metrics layer (regression: it was hardcoded 0)."""
    plan = make_stream_plan(
        split_into_increments(small_dblp_acm, 40, seed=0), rate=1000.0
    )
    system = IBaseSystem(clean_clean=True, high_watermark=20, chunk_size=4)
    engine = engine_factory(build_matcher("ED"), budget=120.0)
    result = engine.run(system, plan, small_dblp_acm.ground_truth)
    samples = result.details["metrics"]["rounds"]["samples"]
    assert max(sample["backlog"] for sample in samples) > 0


@pytest.mark.parametrize("engine_factory", ENGINES)
def test_budget_zero_comparisons_before_first_arrival(engine_factory, small_dblp_acm):
    plan = make_stream_plan(
        split_into_increments(small_dblp_acm, 4, seed=0), rate=1.0, start_time=10.0
    )
    engine = engine_factory(build_matcher("JS"), budget=60.0)
    result = engine.run(build_system("I-PES", small_dblp_acm), plan,
                        small_dblp_acm.ground_truth)
    assert result.curve.pc_at_time(9.9) == 0.0
