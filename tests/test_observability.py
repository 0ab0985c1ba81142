"""Tests for the observability layer and the engine metrics it exposes."""

from __future__ import annotations

import json

import pytest

from repro.core.increments import make_stream_plan, split_into_increments
from repro.evaluation.experiments import make_matcher, make_system
from repro.evaluation.io import run_result_to_dict
from repro.observability.metrics import SCHEMA_VERSION, MetricsRegistry, RoundLog
from repro.streaming.engine import StreamingEngine
from repro.streaming.pipelined import PipelinedStreamingEngine


class TestMetricsRegistry:
    def test_counters_accumulate(self):
        metrics = MetricsRegistry()
        metrics.count("a")
        metrics.count("a", 2)
        metrics.count("b", 0.5)
        assert metrics.counter("a") == 3
        assert metrics.counter("b") == 0.5
        assert metrics.counter("missing") == 0

    def test_count_each_adds_in_the_order_given(self):
        """One call, the float additions of that many ``count`` calls — not
        a compensated sum, which would keep the two 1.0s."""
        amounts = [1e16, 1.0, 1.0, -1e16]
        one_by_one, folded = MetricsRegistry(), MetricsRegistry()
        for registry in (one_by_one, folded):
            registry.count("cost", 0.5)
        for amount in amounts:
            one_by_one.count("cost", amount)
        folded.count_each("cost", amounts)
        assert folded.counter("cost") == one_by_one.counter("cost") == 0.0
        folded.count_each("fresh", [0.25, 0.5])
        assert folded.counter("fresh") == 0.75

    def test_gauges_last_value_wins(self):
        metrics = MetricsRegistry()
        metrics.gauge("depth", 3)
        metrics.gauge("depth", 7)
        assert metrics.gauge_value("depth") == 7

    def test_phase_timer_accumulates_virtual_and_wall(self):
        metrics = MetricsRegistry()
        with metrics.time_phase("match") as timer:
            timer.virtual += 1.5
        with metrics.time_phase("match") as timer:
            timer.virtual += 0.5
        totals = metrics.phase("match")
        assert totals.virtual_s == pytest.approx(2.0)
        assert totals.count == 2
        assert totals.wall_s >= 0.0

    def test_snapshot_schema(self):
        metrics = MetricsRegistry()
        metrics.count("x")
        metrics.gauge("g", 1.0)
        with metrics.time_phase("p") as timer:
            timer.virtual += 1.0
        metrics.record_round(round=1, clock=0.5, backlog=0)
        snap = metrics.snapshot()
        assert snap["schema_version"] == SCHEMA_VERSION
        assert set(snap) == {"schema_version", "counters", "gauges", "phases", "rounds"}
        assert snap["phases"]["p"]["virtual_s"] == 1.0
        assert "wall_s" in snap["phases"]["p"]
        assert snap["rounds"]["samples"] == [{"round": 1, "clock": 0.5, "backlog": 0}]
        json.dumps(snap)  # must be JSON-serializable

    def test_snapshot_without_wall_is_deterministic(self):
        def build():
            metrics = MetricsRegistry()
            with metrics.time_phase("p") as timer:
                timer.virtual += 2.0
            metrics.count("c", 3)
            return metrics.snapshot(include_wall=False)

        assert build() == build()
        assert "wall_s" not in build()["phases"]["p"]


class TestRoundLog:
    def test_keeps_everything_under_cap(self):
        log = RoundLog(max_samples=8)
        for i in range(8):
            log.offer({"round": i})
        assert [s["round"] for s in log.samples] == list(range(8))
        assert log.stride == 1

    def test_stride_doubles_beyond_cap(self):
        log = RoundLog(max_samples=8)
        for i in range(1000):
            log.offer({"round": i})
        assert len(log.samples) <= 8
        assert log.offered == 1000
        rounds = [s["round"] for s in log.samples]
        # Uniform coverage: consecutive retained samples are stride apart.
        assert rounds == sorted(rounds)
        assert all(r % log.stride == 0 for r in rounds)

    def test_validation(self):
        with pytest.raises(ValueError):
            RoundLog(max_samples=1)


ENGINES = (StreamingEngine, PipelinedStreamingEngine)
PIER_SYSTEMS = ("I-PCS", "I-PBS", "I-PES")


@pytest.mark.parametrize("system_name", PIER_SYSTEMS)
@pytest.mark.parametrize("engine_factory", ENGINES)
def test_run_attaches_metrics_snapshot(system_name, engine_factory, small_dblp_acm):
    plan = make_stream_plan(split_into_increments(small_dblp_acm, 8, seed=0), rate=5.0)
    matcher = make_matcher("JS")
    engine = engine_factory(matcher, budget=60.0)
    result = engine.run(make_system(system_name, small_dblp_acm), plan,
                        small_dblp_acm.ground_truth)
    snap = result.details["metrics"]
    assert snap["schema_version"] == SCHEMA_VERSION
    counters = snap["counters"]
    assert counters["engine.comparisons_executed"] == result.comparisons_executed
    assert counters["matcher.evaluations"] == matcher.comparisons_executed
    assert counters["engine.increments_ingested"] == result.increments_ingested
    # Phase timers cover the emission/matching work of the run.
    assert snap["phases"]["match"]["virtual_s"] == pytest.approx(matcher.total_cost)
    assert snap["phases"]["ingest"]["virtual_s"] > 0
    # Per-round samples carry the adaptive K and queue depth gauges.
    samples = snap["rounds"]["samples"]
    assert samples, "expected at least one round sample"
    assert all("k" in s and "queue_depth" in s and "backlog" in s for s in samples)


def test_ipbs_reports_bloom_gauges(small_dblp_acm):
    plan = make_stream_plan(split_into_increments(small_dblp_acm, 5, seed=0), rate=5.0)
    engine = StreamingEngine(make_matcher("JS"), budget=60.0)
    result = engine.run(make_system("I-PBS", small_dblp_acm), plan,
                        small_dblp_acm.ground_truth)
    samples = result.details["metrics"]["rounds"]["samples"]
    assert all("bloom_slices" in s and "bloom_items" in s for s in samples)
    assert samples[-1]["bloom_slices"] >= 1


def test_json_export_includes_metrics(small_dblp_acm):
    plan = make_stream_plan(split_into_increments(small_dblp_acm, 4, seed=0), rate=None)
    engine = StreamingEngine(make_matcher("JS"), budget=30.0)
    result = engine.run(make_system("I-PES", small_dblp_acm), plan,
                        small_dblp_acm.ground_truth)
    payload = run_result_to_dict(result)
    assert payload["details"]["metrics"]["schema_version"] == SCHEMA_VERSION
    json.dumps(payload)  # whole export must remain JSON-serializable
