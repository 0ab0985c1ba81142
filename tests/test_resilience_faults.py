"""Tests for seeded fault injection: stream perturbation and FaultyMatcher.

Determinism is the contract under test: the same seed must replay the same
faults bit-identically, at the spec level (perturbed plans), the matcher
level (failure schedules) and the run level (chaos runs across strategies).
"""

from __future__ import annotations

import pytest

from repro.core.increments import make_stream_plan, split_into_increments
from repro.incremental.ibase import IBaseSystem
from repro.matching.matcher import JaccardMatcher
from repro.pier.base import PierSystem
from repro.pier.ipbs import IPBS
from repro.pier.ipcs import IPCS
from repro.pier.ipes import IPES
from repro.resilience import (
    FaultSpec,
    FaultyMatcher,
    ResilienceConfig,
    RetryPolicy,
    TransientMatcherError,
    apply_faults,
)
from repro.streaming.engine import StreamingEngine
from repro.streaming.pipelined import PipelinedStreamingEngine

from tests.conftest import build_matcher, make_profile

ALL_STRATEGIES = [lambda: PierSystem(IPES()), lambda: PierSystem(IPCS()),
                  lambda: PierSystem(IPBS()), IBaseSystem]


def _plan(dataset, n=8, rate=5.0, seed=0):
    return make_stream_plan(split_into_increments(dataset, n, seed=seed), rate=rate)


class TestFaultSpec:
    def test_rates_validated(self):
        with pytest.raises(ValueError):
            FaultSpec(drop_rate=1.5)
        with pytest.raises(ValueError):
            FaultSpec(duplicate_rate=-0.1)
        with pytest.raises(ValueError):
            FaultSpec(coalesce_span=1)
        with pytest.raises(ValueError):
            FaultSpec(duplicate_delay=-1.0)

    def test_noop_detection(self):
        assert FaultSpec().is_noop
        assert not FaultSpec.chaos(0).is_noop


class TestApplyFaults:
    def test_noop_spec_preserves_plan(self, small_dblp_acm):
        plan = _plan(small_dblp_acm)
        report = apply_faults(plan, FaultSpec(seed=1))
        assert report.plan.arrival_times == plan.arrival_times
        assert report.plan.increments == plan.increments
        assert report.summary().startswith("faults: dropped=0")

    def test_same_seed_same_perturbation(self, small_dblp_acm):
        plan = _plan(small_dblp_acm)
        a = apply_faults(plan, FaultSpec.chaos(seed=11))
        b = apply_faults(plan, FaultSpec.chaos(seed=11))
        assert a.plan.arrival_times == b.plan.arrival_times
        assert a.plan.increments == b.plan.increments
        assert a.dropped == b.dropped
        assert a.duplicated == b.duplicated

    def test_different_seed_different_perturbation(self, small_dblp_acm):
        plan = _plan(small_dblp_acm, n=20)
        a = apply_faults(plan, FaultSpec.chaos(seed=1))
        b = apply_faults(plan, FaultSpec.chaos(seed=2))
        assert (
            a.plan.increments != b.plan.increments
            or a.plan.arrival_times != b.plan.arrival_times
        )

    def test_times_stay_nondecreasing_and_conserved(self, small_dblp_acm):
        plan = _plan(small_dblp_acm, n=20)
        # StreamPlan.__post_init__ re-validates monotonicity on construction,
        # so a successfully built perturbed plan is already well-formed.
        report = apply_faults(plan, FaultSpec.chaos(seed=3))
        delivered_ids = {increment.index for increment in report.plan.increments}
        assert delivered_ids.isdisjoint(report.dropped)
        assert delivered_ids | set(report.dropped) == {
            increment.index for increment in plan.increments
        }

    def test_duplicates_share_ids(self, small_dblp_acm):
        plan = _plan(small_dblp_acm, n=20)
        report = apply_faults(plan, FaultSpec(seed=5, duplicate_rate=1.0))
        ids = [increment.index for increment in report.plan.increments]
        assert len(ids) == 2 * len(plan)
        assert sorted(set(ids)) == sorted(increment.index for increment in plan.increments)

    def test_dropped_increments_missing(self, small_dblp_acm):
        plan = _plan(small_dblp_acm, n=10)
        report = apply_faults(plan, FaultSpec(seed=5, drop_rate=1.0))
        assert len(report.plan) == 0
        assert len(report.dropped) == 10

    def test_emptied_increments_have_no_profiles(self):
        profiles = (make_profile(0, "alpha beta"), make_profile(1, "alpha beta"))
        from repro.core.increments import Increment

        plan = make_stream_plan([Increment(0, profiles)], rate=2.0)
        report = apply_faults(plan, FaultSpec(seed=0, empty_rate=1.0))
        assert all(increment.is_empty for increment in report.plan.increments)

    def test_corruption_keeps_pid_and_source(self):
        from repro.core.increments import Increment

        profiles = tuple(make_profile(i, f"value{i} text", source=1) for i in range(6))
        plan = make_stream_plan([Increment(0, profiles)], rate=2.0)
        report = apply_faults(plan, FaultSpec(seed=4, corrupt_rate=1.0))
        assert report.corrupted_profiles == 6
        for original, delivered in zip(profiles, report.plan.increments[0].profiles):
            assert delivered.pid == original.pid
            assert delivered.source == original.source


class TestFaultyMatcher:
    def _profiles(self):
        return make_profile(0, "alpha beta gamma"), make_profile(1, "alpha beta delta")

    def test_parameters_validated(self):
        inner = JaccardMatcher(0.5)
        with pytest.raises(ValueError):
            FaultyMatcher(inner, failure_rate=1.2)
        with pytest.raises(ValueError):
            FaultyMatcher(inner, failure_rate=0.6, latency_spike_rate=0.6)
        with pytest.raises(ValueError):
            FaultyMatcher(inner, latency_spike_factor=0.5)

    def test_failures_carry_wasted_cost(self):
        x, y = self._profiles()
        matcher = FaultyMatcher(
            JaccardMatcher(0.5), seed=0, failure_rate=1.0, latency_spike_rate=0.0
        )
        with pytest.raises(TransientMatcherError) as exc:
            matcher.evaluate(x, y)
        assert exc.value.cost > 0.0
        assert matcher.faults_injected == 1

    def test_latency_spike_stretches_cost(self):
        x, y = self._profiles()
        clean = JaccardMatcher(0.5)
        spiky = FaultyMatcher(
            JaccardMatcher(0.5), seed=0, failure_rate=0.0,
            latency_spike_rate=1.0, latency_spike_factor=10.0,
        )
        base = clean.evaluate(x, y)
        spiked = spiky.evaluate(x, y)
        assert spiked.cost == pytest.approx(10.0 * base.cost)
        assert spiked.is_match == base.is_match
        assert spiky.spikes_injected == 1

    def test_schedule_replays_after_reset(self):
        x, y = self._profiles()
        matcher = FaultyMatcher(JaccardMatcher(0.5), seed=42, failure_rate=0.3)

        def schedule():
            outcomes = []
            for _ in range(50):
                try:
                    matcher.evaluate(x, y)
                    outcomes.append("ok")
                except TransientMatcherError:
                    outcomes.append("fail")
            return outcomes

        first = schedule()
        matcher.reset_stats()
        assert schedule() == first
        assert "fail" in first and "ok" in first


class TestChaosRuns:
    """A seeded chaos run must complete on every strategy, with the
    resilience counters populated and the whole run replayable."""

    RESILIENCE = ResilienceConfig(
        retry=RetryPolicy(max_attempts=3),
        cost_ceiling=1.0,
        shed_watermark=16,
        checkpoint_every=2.0,
    )

    def _chaos_run(self, factory, dataset, engine_cls=StreamingEngine, seed=7):
        plan = _plan(dataset, n=10, rate=5.0)
        report = apply_faults(plan, FaultSpec.chaos(seed=seed))
        matcher = FaultyMatcher(build_matcher("ED"), seed=seed)
        engine = engine_cls(matcher, budget=10.0, resilience=self.RESILIENCE)
        return engine.run(factory(), report.plan, dataset.ground_truth)

    @pytest.mark.parametrize("factory", ALL_STRATEGIES)
    def test_chaos_completes_on_every_strategy(self, factory, small_dblp_acm):
        result = self._chaos_run(factory, small_dblp_acm)
        counters = result.details["metrics"]["counters"]
        assert counters["engine.retries"] > 0
        assert "engine.quarantined_pairs" in counters
        assert result.clock_end <= 10.0
        assert result.final_pc > 0.0

    @pytest.mark.parametrize("factory", ALL_STRATEGIES)
    def test_chaos_completes_on_pipelined_engine(self, factory, small_dblp_acm):
        result = self._chaos_run(factory, small_dblp_acm, engine_cls=PipelinedStreamingEngine)
        counters = result.details["metrics"]["counters"]
        assert counters["engine.retries"] > 0
        assert "engine.quarantined_pairs" in counters
        assert result.clock_end <= 10.0

    def test_chaos_run_is_deterministic(self, small_dblp_acm):
        a = self._chaos_run(lambda: PierSystem(IPES()), small_dblp_acm)
        b = self._chaos_run(lambda: PierSystem(IPES()), small_dblp_acm)
        assert a.duplicates == b.duplicates
        assert a.curve.points == b.curve.points
        assert a.comparisons_executed == b.comparisons_executed
        assert (
            a.details["metrics"]["counters"] == b.details["metrics"]["counters"]
        )

    def test_fault_free_run_unchanged_by_default_config(self, small_dblp_acm):
        plan = _plan(small_dblp_acm, n=8, rate=5.0)
        baseline = StreamingEngine(build_matcher("JS"), budget=15.0).run(
            PierSystem(IPES()), plan, small_dblp_acm.ground_truth
        )
        configured = StreamingEngine(
            build_matcher("JS"), budget=15.0, resilience=ResilienceConfig()
        ).run(PierSystem(IPES()), plan, small_dblp_acm.ground_truth)
        assert baseline.curve.points == configured.curve.points
        assert baseline.duplicates == configured.duplicates
        counters = baseline.details["metrics"]["counters"]
        assert counters["engine.retries"] == 0
        assert counters["engine.quarantined_pairs"] == 0
        assert counters["engine.shed_increments"] == 0
