"""Tests for progress recording and PC curves."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.dataset import GroundTruth
from repro.evaluation.recorder import ProgressRecorder


@pytest.fixture
def truth() -> GroundTruth:
    return GroundTruth([(0, 1), (2, 3), (4, 5), (6, 7)])


class TestProgressRecorder:
    def test_records_match_hits(self, truth):
        recorder = ProgressRecorder(truth)
        assert recorder.record(1, 0, time=1.0)     # hit
        assert not recorder.record(0, 2, time=2.0)  # miss
        assert recorder.matches_emitted == 1
        assert recorder.comparisons_executed == 2

    def test_duplicate_executions_counted_once(self, truth):
        recorder = ProgressRecorder(truth)
        assert recorder.record(0, 1, time=1.0)
        assert not recorder.record(0, 1, time=2.0)
        assert recorder.matches_emitted == 1
        assert recorder.comparisons_executed == 2

    def test_pair_completeness(self, truth):
        recorder = ProgressRecorder(truth)
        recorder.record(0, 1, 1.0)
        recorder.record(2, 3, 2.0)
        assert recorder.pair_completeness == 0.5

    def test_empty_truth(self):
        recorder = ProgressRecorder(GroundTruth())
        assert recorder.pair_completeness == 1.0

    def test_sample_every_validation(self, truth):
        with pytest.raises(ValueError):
            ProgressRecorder(truth, sample_every=0)

    @given(
        pairs=st.lists(
            st.tuples(st.integers(0, 7), st.integers(0, 7)).filter(lambda p: p[0] != p[1]),
            max_size=40,
        ),
        cuts=st.sets(st.integers(0, 40)),
        sample_every=st.integers(1, 4),
    )
    def test_a_batch_records_like_its_pairs_one_by_one(self, pairs, cuts, sample_every):
        """However a run of comparisons is cut into batches — pairs in either
        order, repeats included — it leaves what ``record`` leaves pair by
        pair: points, match events, hit count."""
        truth = GroundTruth([(0, 1), (2, 3), (4, 5), (6, 7)])
        times = [0.5 * (index + 1) for index in range(len(pairs))]
        single = ProgressRecorder(truth, sample_every=sample_every)
        hits = sum(single.record(x, y, at) for (x, y), at in zip(pairs, times))
        batched = ProgressRecorder(truth, sample_every=sample_every)
        edges = sorted({0, len(pairs)} | {cut for cut in cuts if cut < len(pairs)})
        batch_hits = sum(
            batched.record_batch(pairs[start:stop], times[start:stop])
            for start, stop in zip(edges, edges[1:])
        )
        assert batch_hits == hits == single.matches_emitted
        assert batched.snapshot_state() == single.snapshot_state()


class TestProgressCurve:
    def _curve(self, truth):
        recorder = ProgressRecorder(truth)
        recorder.record(0, 1, time=10.0)
        recorder.record(2, 3, time=20.0)
        recorder.record(4, 5, time=30.0)
        recorder.mark(40.0)
        return recorder.curve()

    def test_pc_at_time_step_function(self, truth):
        curve = self._curve(truth)
        assert curve.pc_at_time(5.0) == 0.0
        assert curve.pc_at_time(10.0) == 0.25
        assert curve.pc_at_time(25.0) == 0.5
        assert curve.pc_at_time(100.0) == 0.75

    def test_pc_at_comparisons(self, truth):
        curve = self._curve(truth)
        assert curve.pc_at_comparisons(0) == 0.0
        assert curve.pc_at_comparisons(1) == 0.25
        assert curve.pc_at_comparisons(3) == 0.75

    def test_final_values(self, truth):
        curve = self._curve(truth)
        assert curve.final_pc == 0.75
        assert curve.final_time == 40.0
        assert curve.final_comparisons == 3

    def test_sample_times(self, truth):
        curve = self._curve(truth)
        assert curve.sample_times([5.0, 15.0, 35.0]) == [0.0, 0.25, 0.75]

    def test_area_under_curve_monotone_in_quality(self, truth):
        fast = ProgressRecorder(truth)
        fast.record(0, 1, 1.0)
        fast.record(2, 3, 2.0)
        fast.mark(100.0)
        slow = ProgressRecorder(truth)
        slow.record(0, 1, 90.0)
        slow.record(2, 3, 95.0)
        slow.mark(100.0)
        assert fast.curve().area_under_curve(100.0) > slow.curve().area_under_curve(100.0)

    def test_area_under_curve_validation(self, truth):
        with pytest.raises(ValueError):
            self._curve(truth).area_under_curve(0.0)

    def test_time_to_pc(self, truth):
        curve = self._curve(truth)
        assert curve.time_to_pc(0.25) == 10.0
        assert curve.time_to_pc(0.5) == 20.0
        assert curve.time_to_pc(0.75) == 30.0
        assert curve.time_to_pc(1.0) is None  # never reached
        assert curve.time_to_pc(0.0) == 0.0

    def test_comparisons_to_pc(self, truth):
        curve = self._curve(truth)
        assert curve.comparisons_to_pc(0.25) == 1
        assert curve.comparisons_to_pc(0.75) == 3
        assert curve.comparisons_to_pc(1.0) is None

    def test_target_validation(self, truth):
        curve = self._curve(truth)
        import pytest as _pytest

        with _pytest.raises(ValueError):
            curve.time_to_pc(1.5)
        with _pytest.raises(ValueError):
            curve.comparisons_to_pc(-0.1)

    def test_empty_truth_curve(self):
        recorder = ProgressRecorder(GroundTruth())
        recorder.mark(1.0)
        curve = recorder.curve()
        assert curve.final_pc == 1.0
        assert curve.pc_at_time(0.5) == 1.0
