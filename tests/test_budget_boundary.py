"""Regression tests: no comparison finishing past the budget is credited.

The engines treat the virtual budget as a hard deadline.  A comparison whose
cost would push the clock beyond the budget must be neither executed nor
recorded on the progress curve; one finishing *exactly* at the budget counts.
These tests pin that boundary with a scripted system and a unit-cost matcher,
on the batched kernel's deadline planner and on its pair-at-a-time oracle.
"""

from __future__ import annotations

import pytest

from repro.core.increments import Increment, make_stream_plan
from repro.core.dataset import GroundTruth
from repro.core.profile import EntityProfile
from repro.matching.matcher import CostModel, Matcher
from repro.streaming.engine import StreamingEngine
from repro.streaming.pipelined import PipelinedStreamingEngine
from repro.streaming.system import EmitResult, ERSystem, PipelineStats

from tests.reference.scalar_execution import ScalarPipelinedEngine, ScalarStreamingEngine

ENGINES = (StreamingEngine, PipelinedStreamingEngine)


class UnitCostMatcher(Matcher):
    """Every comparison matches and costs exactly one virtual second."""

    name = "unit"

    def __init__(self) -> None:
        super().__init__(threshold=0.5, cost_model=CostModel(base=1.0, per_unit=0.0))

    def estimate_cost_batch(self, pairs, profiles) -> list[float]:
        return [self.cost_model.charge(0.0)] * len(pairs)

    def _batch_scores(self, pairs, profiles) -> list[float]:
        return [1.0] * len(pairs)


#: Each engine and its pair-at-a-time oracle twin; the oracle cases keep
#: the bare engine name as their id.
CASES = [
    pytest.param(engine, id=batched.__name__ + suffix)
    for batched, oracle in zip(ENGINES, (ScalarStreamingEngine, ScalarPipelinedEngine))
    for engine, suffix in ((oracle, ""), (batched, "-batched"))
]


class ScriptedSystem(ERSystem):
    """Emits a fixed list of pairs in one zero-cost round."""

    name = "scripted"

    def __init__(self, pairs: list[tuple[int, int]]) -> None:
        super().__init__()
        self._pairs: list[tuple[int, int]] | None = list(pairs)
        self._profiles.update(
            (pid, EntityProfile(pid, {"a": f"p{pid}"})) for pair in pairs for pid in pair
        )

    def ingest(self, increment: Increment) -> float:
        return 0.0

    def has_work(self) -> bool:
        return self._pairs is not None

    def emit(self, stats: PipelineStats) -> EmitResult:
        batch, self._pairs = tuple(self._pairs), None
        return EmitResult(batch=batch, cost=0.0)


def _run(engine_factory, pairs, budget):
    plan = make_stream_plan([Increment(0, ())], rate=None)
    system = ScriptedSystem(pairs)
    matcher = UnitCostMatcher()
    engine = engine_factory(matcher, budget=budget)
    result = engine.run(system, plan, GroundTruth(pairs))
    return result, matcher


@pytest.mark.parametrize("engine_factory", CASES)
class TestBudgetBoundary:
    PAIRS = [(0, 1), (2, 3), (4, 5)]

    def test_post_budget_comparison_not_credited(self, engine_factory):
        """With budget 2.5, the third unit-cost comparison would finish at
        t=3.0 — past the deadline — and must not be executed or recorded:
        a cut in the middle of the batch."""
        result, matcher = _run(engine_factory, self.PAIRS, budget=2.5)
        assert result.comparisons_executed == 2
        assert matcher.comparisons_executed == 2
        assert result.curve.final_pc == pytest.approx(2 / 3)
        assert result.clock_end == 2.5
        counters = result.details["metrics"]["counters"]
        assert counters["engine.comparisons_cut_by_deadline"] == 1

    def test_curve_pinned_at_exact_budget_exhaustion(self, engine_factory):
        """A comparison finishing exactly at the budget still counts, and no
        curve point may lie beyond the budget."""
        result, _ = _run(engine_factory, self.PAIRS, budget=3.0)
        assert result.comparisons_executed == 3
        assert result.curve.final_pc == 1.0
        assert result.clock_end == 3.0
        assert all(point.time <= 3.0 for point in result.curve.points)
        assert result.curve.pc_at_time(3.0) == 1.0
        counters = result.details["metrics"]["counters"]
        assert counters["engine.comparisons_cut_by_deadline"] == 0

    def test_no_curve_point_beyond_budget(self, engine_factory):
        """Budget 0.5 cuts the very first pair of the batch; 1.0 and 2.0 end
        the round on a pair finishing exactly at the deadline."""
        for budget in (0.5, 1.0, 1.5, 2.0, 2.5):
            result, _ = _run(engine_factory, self.PAIRS, budget=budget)
            assert all(point.time <= budget for point in result.curve.points)
            assert result.comparisons_executed == int(budget)
            assert result.clock_end == budget

    def test_match_phase_charges_cutoff_time(self, engine_factory):
        """The time between the last credited comparison and the deadline is
        charged to the match phase as cut-off work."""
        result, _ = _run(engine_factory, self.PAIRS, budget=2.5)
        match_virtual = result.details["metrics"]["phases"]["match"]["virtual_s"]
        assert match_virtual == pytest.approx(2.5)


@pytest.mark.parametrize("engine_factory", ENGINES)
def test_real_system_curve_never_exceeds_budget(engine_factory, small_dblp_acm):
    """End-to-end: on a real dataset with a tight budget, every credited
    curve point lies within the budget."""
    from repro.core.increments import split_into_increments
    from tests.conftest import build_matcher, build_system

    plan = make_stream_plan(split_into_increments(small_dblp_acm, 6, seed=0), rate=None)
    budget = 0.05
    engine = engine_factory(build_matcher("JS"), budget=budget)
    result = engine.run(build_system("I-PCS", small_dblp_acm), plan,
                        small_dblp_acm.ground_truth)
    assert not result.work_exhausted
    assert result.clock_end <= budget
    assert all(point.time <= budget for point in result.curve.points)
    assert result.comparisons_executed == result.details["metrics"]["counters"].get(
        "engine.comparisons_executed", 0
    )
