"""Crash-resume determinism tests for engine checkpoint/restore.

The recovery guarantee under test: a run that crashes mid-flight and resumes
from its latest checkpoint finishes with the *same* result as a run that was
never interrupted — same duplicate set, identical progress curve beyond the
recovery point, no comparison double-counted, converged counters.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core.increments import make_stream_plan, split_into_increments
from repro.incremental.ibase import IBaseSystem
from repro.pier.base import PierSystem
from repro.pier.ipbs import IPBS
from repro.pier.ipcs import IPCS
from repro.pier.ipes import IPES
from repro.priority.rates import AdaptiveK
from repro.progressive.pbs import PBSSystem
from repro.progressive.pps import PPSSystem
from repro.resilience import ResilienceConfig
from repro.streaming.engine import StreamingEngine
from repro.streaming.pipelined import PipelinedStreamingEngine

from tests.conftest import build_matcher
from tests.reference.crash import SimulatedCrash, crash_at
from tests.reference.stream_faults import FaultSpec, apply_faults

STRATEGY_FACTORIES = {
    "I-PCS": lambda: PierSystem(IPCS()),
    "I-PBS": lambda: PierSystem(IPBS()),
    "I-PES": lambda: PierSystem(IPES()),
    "I-BASE": IBaseSystem,
    # The batch baselines checkpoint through the default ``__dict__`` walk.
    "PBS-GLOBAL": lambda: PBSSystem(scope="all"),
    "PPS-LOCAL": lambda: PPSSystem(scope="last"),
}
#: PPS-LOCAL runs out of work on the rate-5 stream before ``CRASH_AT``, so
#: it gets a slower one that is still arriving when the crash comes.
SLOW_STREAM = {"PPS-LOCAL": 1.0}



def _ipbs_small_rounds(capacity=500_000) -> PierSystem:
    """I-PBS emitting one pair a round, so that checkpoints find pairs
    waiting in its index (at the default K every round drains it)."""
    return PierSystem(IPBS(capacity=capacity), adaptive_k=AdaptiveK(initial=1, minimum=1, maximum=1))


BUDGET = 10.0
CHECKPOINT_EVERY = 1.5
CADENCE = ResilienceConfig(checkpoint_every=CHECKPOINT_EVERY)
CRASH_AT = 5.0


def _plan(dataset, n=10, rate=5.0):
    return make_stream_plan(split_into_increments(dataset, n, seed=0), rate=rate)


def _crash_and_resume(
    factory, plan, truth, engine_cls=StreamingEngine, matcher="ED", as_written=None
):
    """Run to a simulated crash, then resume on fresh engine + system.

    ``as_written`` rewrites the checkpoint into an older layout first."""
    crashing = engine_cls(build_matcher(matcher), budget=BUDGET, resilience=CADENCE)
    with crash_at(CRASH_AT), pytest.raises(SimulatedCrash) as exc:
        crashing.run(factory(), plan, truth)
    checkpoint = exc.value.checkpoint
    assert checkpoint is not None, "crash happened before the first checkpoint"
    assert checkpoint.clock <= exc.value.clock
    if matcher == "ED":
        # As written before ``EditDistanceMatcher.kernel`` was removed: the
        # stray key must not disturb the restore.
        assert "kernel" not in checkpoint.matcher_state
        checkpoint = replace(
            checkpoint, matcher_state={**checkpoint.matcher_state, "kernel": "auto"}
        )
    if as_written is not None:
        checkpoint = as_written(checkpoint)
    resumed_engine = engine_cls(
        build_matcher(matcher), budget=BUDGET, resilience=CADENCE
    )
    return resumed_engine.run(factory(), plan, truth, resume_from=checkpoint), checkpoint


def _with_emission_counts(checkpoint):
    """A checkpoint as written while the comparison store still counted
    emitted pairs and stale dequeues."""
    system_state = dict(checkpoint.system_state)
    store = system_state["store"]
    assert "emitted" not in store and "stale_dequeues" not in store
    system_state["store"] = {**store, "emitted": 1234, "stale_dequeues": 56}
    return replace(checkpoint, system_state=system_state)


#: Preseeded at zero by every run while the MinHash-LSH substrates existed.
RETIRED_COUNTERS = (
    "blocking.lsh.candidates_pruned", "blocking.lsh.buckets", "blocking.lsh.signatures",
)
#: Preseeded at zero by every run while the engines retried matcher faults.
RETRY_COUNTERS = ("engine.matcher_faults", "engine.retries", "engine.retry_backoff_s")


def _with_retired_counter(checkpoint, names=RETIRED_COUNTERS):
    """A checkpoint as written while its metrics still carried ``names``."""
    counters = checkpoint.metrics_state["counters"]
    assert not set(names) & set(counters)
    metrics_state = {
        **checkpoint.metrics_state, "counters": {**counters, **dict.fromkeys(names, 0)}
    }
    return replace(checkpoint, metrics_state=metrics_state)


def _assert_runs_identical(uninterrupted, resumed):
    assert resumed.duplicates == uninterrupted.duplicates
    assert resumed.curve.points == uninterrupted.curve.points
    assert resumed.comparisons_executed == uninterrupted.comparisons_executed
    assert resumed.clock_end == uninterrupted.clock_end
    assert resumed.increments_ingested == uninterrupted.increments_ingested
    assert (
        resumed.details["metrics"]["counters"]
        == uninterrupted.details["metrics"]["counters"]
    )


class TestCrashResumeDeterminism:
    @pytest.mark.parametrize("name", list(STRATEGY_FACTORIES))
    def test_serial_engine(self, name, small_dblp_acm):
        factory = STRATEGY_FACTORIES[name]
        plan = _plan(small_dblp_acm, rate=SLOW_STREAM.get(name, 5.0))
        uninterrupted = StreamingEngine(
            build_matcher("ED"), budget=BUDGET, resilience=CADENCE
        ).run(factory(), plan, small_dblp_acm.ground_truth)
        resumed, checkpoint = _crash_and_resume(
            factory, plan, small_dblp_acm.ground_truth
        )
        assert checkpoint.clock < BUDGET
        _assert_runs_identical(uninterrupted, resumed)

    @pytest.mark.parametrize("name", ["I-PES", "I-BASE"])
    def test_pipelined_engine(self, name, small_dblp_acm):
        factory = STRATEGY_FACTORIES[name]
        plan = _plan(small_dblp_acm)
        uninterrupted = PipelinedStreamingEngine(
            build_matcher("ED"), budget=BUDGET, resilience=CADENCE
        ).run(factory(), plan, small_dblp_acm.ground_truth)
        resumed, checkpoint = _crash_and_resume(
            factory, plan, small_dblp_acm.ground_truth,
            engine_cls=PipelinedStreamingEngine,
        )
        assert checkpoint.ingest_clock is not None
        _assert_runs_identical(uninterrupted, resumed)

    def test_ipbs_index_small_enough_to_evict(self, small_dblp_acm):
        """Pairs the bounded index evicted or refused live on in ``queued``
        only; the checkpoint must carry them or the resumed run would
        generate them again from a later block."""
        systems = []

        def factory():
            systems.append(_ipbs_small_rounds(capacity=4))
            return systems[-1]

        plan = _plan(small_dblp_acm)
        uninterrupted = StreamingEngine(
            build_matcher("ED"), budget=BUDGET, resilience=CADENCE
        ).run(factory(), plan, small_dblp_acm.ground_truth)
        resumed, checkpoint = _crash_and_resume(
            factory, plan, small_dblp_acm.ground_truth
        )
        _assert_runs_identical(uninterrupted, resumed)
        lost = checkpoint.system_state["strategy"]
        assert len(lost["queued"]) > len(lost["index"])
        for system in (systems[0], systems[-1]):
            index = system.strategy.index
            assert index.evictions > 0 and index.rejections > 0
            assert len(system.strategy.queued) == (
                len(index) + index.evictions + index.rejections
            )

    @pytest.mark.parametrize("name", ["I-PES", "I-BASE"])
    def test_checkpoint_holding_emission_counts(self, name, small_dblp_acm):
        """The store's retired emission counts ride in the checkpoint and
        are ignored: the resumed run finishes equal to the uninterrupted one."""
        factory = STRATEGY_FACTORIES[name]
        plan = _plan(small_dblp_acm)
        uninterrupted = StreamingEngine(
            build_matcher("ED"), budget=BUDGET, resilience=CADENCE
        ).run(factory(), plan, small_dblp_acm.ground_truth)
        resumed, _ = _crash_and_resume(
            factory, plan, small_dblp_acm.ground_truth, as_written=_with_emission_counts
        )
        _assert_runs_identical(uninterrupted, resumed)

    def test_checkpoint_holding_a_retired_counter(self, small_dblp_acm):
        """A run restored from a checkpoint whose metrics still hold the
        retired LSH counters finishes equal to the uninterrupted run.  They
        ride along at zero — a restore keeps every counter it is
        handed, since runs legitimately create zero counters of their own —
        and are the only difference in the export."""
        factory = STRATEGY_FACTORIES["I-PCS"]
        plan = _plan(small_dblp_acm)
        uninterrupted = StreamingEngine(
            build_matcher("ED"), budget=BUDGET, resilience=CADENCE
        ).run(factory(), plan, small_dblp_acm.ground_truth)
        resumed, _ = _crash_and_resume(
            factory, plan, small_dblp_acm.ground_truth, as_written=_with_retired_counter
        )
        counters = resumed.details["metrics"]["counters"]
        assert [counters.pop(name) for name in RETIRED_COUNTERS] == [0, 0, 0]
        _assert_runs_identical(uninterrupted, resumed)

    @pytest.mark.parametrize("engine_cls", [StreamingEngine, PipelinedStreamingEngine])
    def test_checkpoint_holding_the_retry_counters(self, small_dblp_acm, engine_cls):
        """A checkpoint written while every run preseeded the retry counters
        restores to an equal run; the three ride along at zero."""
        factory = STRATEGY_FACTORIES["I-PES"]
        plan = _plan(small_dblp_acm)
        uninterrupted = engine_cls(
            build_matcher("ED"), budget=BUDGET, resilience=CADENCE
        ).run(factory(), plan, small_dblp_acm.ground_truth)
        resumed, _ = _crash_and_resume(
            factory, plan, small_dblp_acm.ground_truth, engine_cls=engine_cls,
            as_written=lambda checkpoint: _with_retired_counter(checkpoint, RETRY_COUNTERS),
        )
        counters = resumed.details["metrics"]["counters"]
        assert [counters.pop(name) for name in RETRY_COUNTERS] == [0, 0, 0]
        _assert_runs_identical(uninterrupted, resumed)

    def test_no_double_counted_comparisons(self, small_dblp_acm):
        """The resumed run's executed total equals the uninterrupted one and
        contains no re-executions of pre-crash pairs."""
        factory = STRATEGY_FACTORIES["I-PES"]
        plan = _plan(small_dblp_acm)
        uninterrupted = StreamingEngine(
            build_matcher("ED"), budget=BUDGET, resilience=CADENCE
        ).run(factory(), plan, small_dblp_acm.ground_truth)
        resumed, checkpoint = _crash_and_resume(
            factory, plan, small_dblp_acm.ground_truth
        )
        assert resumed.comparisons_executed == uninterrupted.comparisons_executed
        pre_crash = checkpoint.recorder_state["comparisons_executed"]
        assert 0 < pre_crash < resumed.comparisons_executed
        assert (
            resumed.details["metrics"]["counters"]["engine.comparisons_executed"]
            == uninterrupted.comparisons_executed
        )

    def test_curve_identical_beyond_recovery_point(self, small_dblp_acm):
        factory = STRATEGY_FACTORIES["I-PCS"]
        plan = _plan(small_dblp_acm)
        uninterrupted = StreamingEngine(
            build_matcher("ED"), budget=BUDGET, resilience=CADENCE
        ).run(factory(), plan, small_dblp_acm.ground_truth)
        resumed, checkpoint = _crash_and_resume(
            factory, plan, small_dblp_acm.ground_truth
        )
        beyond = [p for p in resumed.curve.points if p.time >= checkpoint.clock]
        expected = [p for p in uninterrupted.curve.points if p.time >= checkpoint.clock]
        assert beyond == expected and beyond

    def test_crash_resume_under_chaos(self, small_dblp_acm):
        """A perturbed stream — drops, redeliveries, reorders, bursts,
        corrupted profiles — resumes bit-identically too: the exactly-once
        bookkeeping rides in the checkpoint."""
        plan = apply_faults(_plan(small_dblp_acm), FaultSpec.chaos(seed=7)).plan

        def engine():
            return StreamingEngine(build_matcher("ED"), budget=BUDGET, resilience=CADENCE)

        uninterrupted = engine().run(
            PierSystem(IPES()), plan, small_dblp_acm.ground_truth
        )
        with crash_at(CRASH_AT), pytest.raises(SimulatedCrash) as exc:
            engine().run(
                PierSystem(IPES()), plan, small_dblp_acm.ground_truth
            )
        resumed = engine().run(
            PierSystem(IPES()), plan, small_dblp_acm.ground_truth,
            resume_from=exc.value.checkpoint,
        )
        _assert_runs_identical(uninterrupted, resumed)


class TestCheckpointPlumbing:
    def test_checkpoints_taken_counted(self, small_dblp_acm):
        plan = _plan(small_dblp_acm)
        engine = StreamingEngine(
            build_matcher("ED"), budget=BUDGET, resilience=ResilienceConfig(checkpoint_every=2.0)
        )
        result = engine.run(PierSystem(IPES()), plan, small_dblp_acm.ground_truth)
        taken = result.details["metrics"]["counters"]["engine.checkpoints_taken"]
        assert taken >= 2
        assert result.details["resilience"]["checkpoints_taken"] == taken
        assert engine.last_checkpoint is not None
        assert engine.last_checkpoint.engine == "serial"

    def test_no_checkpoints_by_default(self, small_dblp_acm):
        plan = _plan(small_dblp_acm)
        engine = StreamingEngine(build_matcher("JS"), budget=BUDGET)
        result = engine.run(PierSystem(IPES()), plan, small_dblp_acm.ground_truth)
        assert "engine.checkpoints_taken" not in result.details["metrics"]["counters"]
        assert engine.last_checkpoint is None

    def test_resume_rejects_wrong_engine_kind(self, small_dblp_acm):
        plan = _plan(small_dblp_acm)
        engine = StreamingEngine(
            build_matcher("ED"), budget=BUDGET, resilience=ResilienceConfig(checkpoint_every=1.0)
        )
        engine.run(PierSystem(IPES()), plan, small_dblp_acm.ground_truth)
        checkpoint = engine.last_checkpoint
        other = PipelinedStreamingEngine(build_matcher("ED"), budget=BUDGET)
        with pytest.raises(ValueError, match="engine"):
            other.run(
                PierSystem(IPES()), plan, small_dblp_acm.ground_truth,
                resume_from=checkpoint,
            )

    def test_resume_rejects_wrong_budget(self, small_dblp_acm):
        plan = _plan(small_dblp_acm)
        engine = StreamingEngine(
            build_matcher("ED"), budget=BUDGET, resilience=ResilienceConfig(checkpoint_every=1.0)
        )
        engine.run(PierSystem(IPES()), plan, small_dblp_acm.ground_truth)
        other = StreamingEngine(build_matcher("ED"), budget=BUDGET * 2)
        with pytest.raises(ValueError, match="budget"):
            other.run(
                PierSystem(IPES()), plan, small_dblp_acm.ground_truth,
                resume_from=engine.last_checkpoint,
            )

    def test_resume_rejects_different_plan(self, small_dblp_acm):
        plan = _plan(small_dblp_acm)
        engine = StreamingEngine(
            build_matcher("ED"), budget=BUDGET, resilience=ResilienceConfig(checkpoint_every=1.0)
        )
        engine.run(PierSystem(IPES()), plan, small_dblp_acm.ground_truth)
        other_plan = _plan(small_dblp_acm, n=7)
        fresh = StreamingEngine(build_matcher("ED"), budget=BUDGET)
        with pytest.raises(ValueError, match="plan"):
            fresh.run(
                PierSystem(IPES()), other_plan, small_dblp_acm.ground_truth,
                resume_from=engine.last_checkpoint,
            )

    def test_crash_before_first_checkpoint_carries_none(self, small_dblp_acm):
        plan = _plan(small_dblp_acm)
        engine = StreamingEngine(
            build_matcher("ED"), budget=BUDGET,
            resilience=ResilienceConfig(checkpoint_every=100.0),
        )
        with crash_at(1.0), pytest.raises(SimulatedCrash) as exc:
            engine.run(PierSystem(IPES()), plan, small_dblp_acm.ground_truth)
        assert exc.value.checkpoint is None
        assert exc.value.clock >= 1.0
