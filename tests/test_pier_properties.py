"""Definition-level tests: the four PIER properties of the paper (Def. 3).

These integration tests assert, on small synthetic datasets, the properties
that define progressive incremental ER:

* improved early quality vs. batch ER,
* comparable eventual quality,
* incrementality (per-increment cost ≪ batch recomputation),
* globality (comparisons across increments are prioritized globally).
"""

from __future__ import annotations

import pytest

from repro.core.increments import Increment, make_stream_plan, split_into_increments
from repro.pier.base import PierSystem
from repro.pier.ipes import IPES
from repro.progressive.pps import PPSSystem
from repro.streaming.engine import StreamingEngine
from repro.streaming.system import PipelineStats

from tests.conftest import build_matcher, build_system, dequeue_one

PIER_ALGORITHMS = ("I-PES", "I-PCS", "I-PBS")


def _run(dataset, algorithm, budget=200.0, n_increments=15, rate=None, matcher="JS"):
    if algorithm in ("PPS", "PBS", "BATCH") and rate is None:
        increments = split_into_increments(dataset, 1, seed=0)
    else:
        increments = split_into_increments(dataset, n_increments, seed=0)
    plan = make_stream_plan(increments, rate=rate)
    engine = StreamingEngine(build_matcher(matcher), budget=budget)
    return engine.run(build_system(algorithm, dataset), plan, dataset.ground_truth)


class TestImprovedEarlyQuality:
    @pytest.mark.parametrize("algorithm", PIER_ALGORITHMS)
    def test_early_auc_beats_batch(self, small_dblp_acm, algorithm):
        pier = _run(small_dblp_acm, algorithm)
        batch = _run(small_dblp_acm, "BATCH")
        horizon = min(pier.clock_end, batch.clock_end)
        assert pier.curve.area_under_curve(horizon) > batch.curve.area_under_curve(horizon)


class TestComparableEventualQuality:
    @pytest.mark.parametrize("algorithm", PIER_ALGORITHMS)
    def test_eventual_pc_close_to_batch(self, small_dblp_acm, algorithm):
        pier = _run(small_dblp_acm, algorithm, budget=500.0)
        batch = _run(small_dblp_acm, "BATCH", budget=500.0)
        assert pier.final_pc >= batch.final_pc - 0.05


class TestIncrementality:
    def test_increment_cost_much_less_than_batch_reprocessing(self, small_dblp_acm):
        """Ingesting ΔD_i into PIER costs far less (virtual time) than
        re-running the batch pipeline on D_i = D_{i-1} ⊎ ΔD_i."""
        increments = split_into_increments(small_dblp_acm, 10, seed=0)
        pier = build_system("I-PES", small_dblp_acm)
        incremental_costs = [pier.ingest(increment) for increment in increments]

        batch = PPSSystem(clean_clean=True)
        batch_stats = PipelineStats(
            now=0.0, input_rate=None, mean_match_cost=1e-4, backlog=0
        )
        cumulative_batch_costs = []
        for increment in increments:
            cumulative_batch_costs.append(
                batch.ingest(increment) + batch.emit(batch_stats).cost
            )
        # for late increments, PIER's marginal cost must undercut the batch
        # pipeline's full reassessment by a wide margin
        assert incremental_costs[-1] < cumulative_batch_costs[-1] / 3


class TestGlobality:
    def test_inter_increment_pairs_found(self, toy_dirty_dataset):
        """Profiles of a match split across increments are still compared."""
        result = _run(toy_dirty_dataset, "I-PES", n_increments=6)
        assert result.final_pc == 1.0

    def test_best_global_comparison_wins_over_recency(self):
        """A strong pair from increment 1 outranks weak pairs of increment 2
        once both are in the index (the globality condition)."""
        from tests.conftest import make_profile

        system = PierSystem(IPES(beta=0.01))
        first = (
            make_profile(0, "alpha beta gamma delta"),
            make_profile(1, "alpha beta gamma delta"),
        )
        system.ingest(Increment(0, first))
        # pretend nothing was emitted yet; now a weak increment arrives
        second = (make_profile(2, "alpha"), make_profile(3, "zzz unrelated"))
        system.ingest(Increment(1, second))
        assert dequeue_one(system.strategy) == (0, 1)

    def test_work_continues_while_waiting(self, small_dblp_acm):
        """On a slow stream, PIER keeps executing comparisons during the
        inter-arrival gaps instead of idling (contrast with I-BASE)."""
        increments = split_into_increments(small_dblp_acm, 10, seed=0)
        plan = make_stream_plan(increments, rate=0.5)  # 2s gaps
        engine = StreamingEngine(build_matcher("JS"), budget=30.0)
        pier = engine.run(build_system("I-PES", small_dblp_acm), plan, small_dblp_acm.ground_truth)
        engine2 = StreamingEngine(build_matcher("JS"), budget=30.0)
        ibase = engine2.run(
            build_system("I-BASE", small_dblp_acm), plan, small_dblp_acm.ground_truth
        )
        assert pier.comparisons_executed > ibase.comparisons_executed


class TestAdaptivity:
    def test_pier_beats_ibase_on_fast_streams(self, small_dbpedia):
        """The paper's headline: on fast streams with an expensive matcher,
        PIER dominates I-BASE in early quality."""
        pier = _run(
            small_dbpedia, "I-PES", n_increments=40, rate=32.0, matcher="ED", budget=60.0
        )
        ibase = _run(
            small_dbpedia, "I-BASE", n_increments=40, rate=32.0, matcher="ED", budget=60.0
        )
        horizon = 60.0
        assert pier.curve.area_under_curve(horizon) > ibase.curve.area_under_curve(horizon)

    def test_naive_adaptations_collapse_on_fast_streams(self, small_movies):
        pes = _run(small_movies, "I-PES", n_increments=80, rate=64.0, matcher="ED", budget=30.0)
        local = _run(
            small_movies, "PPS-LOCAL", n_increments=80, rate=64.0, matcher="ED", budget=30.0
        )
        assert pes.final_pc > local.final_pc
