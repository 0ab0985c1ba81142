"""Tests for the observability layer and the engine metrics it exposes."""

from __future__ import annotations

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.increments import make_stream_plan, split_into_increments
from repro.evaluation.io import run_result_to_dict
from repro.execution import core
from repro.observability.metrics import SCHEMA_VERSION, MetricsRegistry, RoundLog
from repro.streaming.engine import StreamingEngine
from repro.streaming.pipelined import PipelinedStreamingEngine

from tests.conftest import build_matcher, build_system


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

    @given(offers=st.integers(0, 300), max_samples=st.integers(2, 9))
    def test_asking_first_equals_offering_every_sample(self, offers, max_samples):
        """``keeps_next``/``skip`` spare the caller a sample the stride would
        drop; the log must read as if every sample had been offered."""
        asked = RoundLog(max_samples=max_samples)
        built = 0
        for index in range(offers):
            if asked.keeps_next():
                built += 1
                asked.offer({"round": index})
            else:
                asked.skip()
        samples, stride, kept = _strided([{"round": i} for i in range(offers)], max_samples)
        assert (asked.samples, asked.stride, asked.offered) == (samples, stride, offers)
        assert built == kept
        offered_all = RoundLog(max_samples=max_samples)
        for index in range(offers):
            offered_all.offer({"round": index})
        assert offered_all.dump_state() == asked.dump_state()


def _strided(offers: list, max_samples: int) -> tuple[list, int, int]:
    """The round log as specified: keep every ``stride``-th offer; past the
    cap drop every other kept sample and double the stride.  Returns the
    samples, the stride and how many offers were kept on arrival."""
    samples: list = []
    stride, kept = 1, 0
    for index, sample in enumerate(offers):
        if index % stride:
            continue
        kept += 1
        samples.append(sample)
        if len(samples) > max_samples:
            samples = samples[::2]
            stride *= 2
    return samples, stride, kept


ENGINES = (StreamingEngine, PipelinedStreamingEngine)
PIER_SYSTEMS = ("I-PCS", "I-PBS", "I-PES")


@pytest.mark.parametrize("system_name", PIER_SYSTEMS)
@pytest.mark.parametrize("engine_factory", ENGINES)
def test_run_attaches_metrics_snapshot(system_name, engine_factory, small_dblp_acm):
    plan = make_stream_plan(split_into_increments(small_dblp_acm, 8, seed=0), rate=5.0)
    matcher = build_matcher("JS")
    engine = engine_factory(matcher, budget=60.0)
    result = engine.run(build_system(system_name, small_dblp_acm), plan,
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


@pytest.mark.parametrize("engine_factory", ENGINES)
def test_gauges_are_read_once_per_kept_round(engine_factory, small_dblp_acm, monkeypatch):
    """A round the stride drops costs no gauge reading.  (The cap is shrunk
    so that a small run doubles the stride a few times.)"""
    monkeypatch.setattr(core, "MetricsRegistry", lambda: MetricsRegistry(max_round_samples=16))
    system = build_system("I-PES", small_dblp_acm)
    readings = []
    read_gauges = system.gauges
    system.gauges = lambda: readings.append(1) or read_gauges()
    plan = make_stream_plan(split_into_increments(small_dblp_acm, 20, seed=0), rate=2.0)
    engine = engine_factory(build_matcher("JS"), budget=1e9)
    result = engine.run(system, plan, small_dblp_acm.ground_truth)
    rounds = result.details["metrics"]["rounds"]
    assert rounds["stride"] >= 4
    assert rounds["offered"] == result.details["metrics"]["counters"]["engine.emission_rounds"]
    _, stride, kept = _strided(list(range(rounds["offered"])), 16)
    assert stride == rounds["stride"]
    assert len(readings) == kept < rounds["offered"]
    assert all("k" in sample and "entity_queues" in sample for sample in rounds["samples"])


def test_ipbs_reports_pending_blocks_gauge(small_dblp_acm):
    plan = make_stream_plan(split_into_increments(small_dblp_acm, 5, seed=0), rate=5.0)
    engine = StreamingEngine(build_matcher("JS"), budget=60.0)
    result = engine.run(build_system("I-PBS", small_dblp_acm), plan,
                        small_dblp_acm.ground_truth)
    samples = result.details["metrics"]["rounds"]["samples"]
    assert all("pending_blocks" in s for s in samples)
    assert any(s["pending_blocks"] >= 1 for s in samples)


def test_json_export_includes_metrics(small_dblp_acm):
    plan = make_stream_plan(split_into_increments(small_dblp_acm, 4, seed=0), rate=None)
    engine = StreamingEngine(build_matcher("JS"), budget=30.0)
    result = engine.run(build_system("I-PES", small_dblp_acm), plan,
                        small_dblp_acm.ground_truth)
    payload = run_result_to_dict(result)
    assert payload["details"]["metrics"]["schema_version"] == SCHEMA_VERSION
    json.dumps(payload)  # whole export must remain JSON-serializable
