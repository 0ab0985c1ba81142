"""Runs over a perturbed stream: every resilience mechanism real input reaches.

The perturbation is test-side (``tests/reference/stream_faults.py``):
seeded drops, redeliveries, reorders, bursts, emptied increments and
corrupted profiles.  Pinned here:

* the perturbation itself replays bit-identically per seed;
* chaos runs complete on every strategy and both engines, and replay;
* through ``PushRun.feed`` — the surface a caller numbering its own
  increments uses — every surviving mechanism fires on the PIER strategies
  (redeliveries dropped, shed increments, checkpoints), and a crash
  (``tests/reference/crash.py``) resumed from a checkpoint equals the
  uninterrupted run.
"""

from __future__ import annotations

import pytest

from repro.core.increments import make_stream_plan, split_into_increments
from repro.api import EngineOptions, ERSession
from repro.incremental.ibase import IBaseSystem
from repro.pier.base import PierSystem
from repro.pier.ipbs import IPBS
from repro.pier.ipcs import IPCS
from repro.pier.ipes import IPES
from repro.resilience import ResilienceConfig
from repro.streaming.engine import StreamingEngine
from repro.streaming.pipelined import PipelinedStreamingEngine

from tests.conftest import build_matcher, make_profile
from tests.reference.crash import SimulatedCrash, crash_at
from tests.reference.stream_faults import FaultSpec, apply_faults

ALL_STRATEGIES = [lambda: PierSystem(IPES()), lambda: PierSystem(IPCS()),
                  lambda: PierSystem(IPBS()), IBaseSystem]


def _plan(dataset, n=8, rate=5.0, seed=0):
    return make_stream_plan(split_into_increments(dataset, n, seed=seed), rate=rate)


class TestResilienceConfig:
    @pytest.mark.parametrize("fields", [
        {"checkpoint_every": float("nan")},
        {"shed_watermark": 2.5},
        {"shed_watermark": True},
    ], ids=repr)
    def test_refuses_nan_and_non_int_watermarks(self, fields):
        """NaN passes ``<= 0``, and a float or bool watermark sheds as the
        int it rounds to."""
        with pytest.raises(ValueError):
            ResilienceConfig(**fields)

    def test_accepts_the_boundaries(self):
        config = ResilienceConfig(shed_watermark=0, checkpoint_every=1e-9)
        assert config.shed_watermark == 0


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


class TestChaosRuns:
    """A seeded chaos run must complete on every strategy, with the
    resilience counters populated and the whole run replayable."""

    RESILIENCE = ResilienceConfig(shed_watermark=16, checkpoint_every=2.0)

    def _chaos_run(self, factory, dataset, engine_cls=StreamingEngine, seed=7):
        plan = _plan(dataset, n=10, rate=5.0)
        report = apply_faults(plan, FaultSpec.chaos(seed=seed))
        engine = engine_cls(build_matcher("ED"), budget=10.0, resilience=self.RESILIENCE)
        return engine.run(factory(), report.plan, dataset.ground_truth)

    @pytest.mark.parametrize("factory", ALL_STRATEGIES)
    def test_chaos_completes_on_every_strategy(self, factory, small_dblp_acm):
        result = self._chaos_run(factory, small_dblp_acm)
        counters = result.details["metrics"]["counters"]
        assert counters["engine.duplicate_increments_dropped"] > 0
        assert counters["engine.checkpoints_taken"] > 0
        assert result.clock_end <= 10.0
        assert result.final_pc > 0.0

    @pytest.mark.parametrize("factory", ALL_STRATEGIES)
    def test_chaos_completes_on_pipelined_engine(self, factory, small_dblp_acm):
        result = self._chaos_run(factory, small_dblp_acm, engine_cls=PipelinedStreamingEngine)
        counters = result.details["metrics"]["counters"]
        assert counters["engine.duplicate_increments_dropped"] > 0
        assert counters["engine.checkpoints_taken"] > 0
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
        assert counters["engine.duplicate_increments_dropped"] == 0
        assert counters["engine.shed_increments"] == 0


class TestPerturbedStreamThroughPush:
    """The three PIER strategies on both engines, ED, a perturbed stream fed
    increment by increment through ``PushRun.feed``.  The settings make
    every surviving mechanism fire: the stream redelivers increments, a
    watermark of one due increment sheds under ED's load, and checkpoints
    come every half virtual second."""

    BUDGET = 10.0
    RESILIENCE = ResilienceConfig(shed_watermark=1, checkpoint_every=0.5)
    CRASH_AT = 0.8

    @staticmethod
    def _perturbed(session, name):
        return apply_faults(session.plan_for(name), FaultSpec.chaos(seed=7)).plan

    def _run(self, dataset, name, pipelined, resilience=RESILIENCE, resume_from=None):
        session = ERSession(
            dataset, systems=(name,), matcher="ED", n_increments=20, rate=20.0,
            budget=self.BUDGET, engine=EngineOptions(pipelined=pipelined),
            resilience=resilience,
        )
        with session:
            push = session.push(name, resume_from=resume_from)
            for at, increment in self._perturbed(session, name):
                push.feed(increment, at=at)
            push.drain(self.BUDGET)
            return push.results()

    @pytest.mark.parametrize("pipelined", [False, True], ids=["serial", "pipelined"])
    @pytest.mark.parametrize("name", ["I-PCS", "I-PBS", "I-PES"])
    def test_every_mechanism_fires_and_a_crash_resumes_equal(
        self, small_dblp_acm, name, pipelined
    ):
        uninterrupted = self._run(small_dblp_acm, name, pipelined)
        counters = uninterrupted.details["metrics"]["counters"]
        for counter in (
            "engine.duplicate_increments_dropped",
            "engine.shed_increments",
            "engine.checkpoints_taken",
        ):
            assert counters[counter] > 0, counter
        resilience = uninterrupted.details["resilience"]
        assert resilience["shed_increments"] == counters["engine.shed_increments"]

        with crash_at(self.CRASH_AT), pytest.raises(SimulatedCrash) as crash:
            self._run(small_dblp_acm, name, pipelined)
        checkpoint = crash.value.checkpoint
        assert checkpoint is not None and checkpoint.clock < self.CRASH_AT
        resumed = self._run(small_dblp_acm, name, pipelined, resume_from=checkpoint)
        assert resumed.duplicates == uninterrupted.duplicates
        assert resumed.curve.points == uninterrupted.curve.points
        assert resumed.clock_end == uninterrupted.clock_end
        assert resumed.details["resilience"] == resilience
        assert resumed.details["metrics"]["counters"] == counters
