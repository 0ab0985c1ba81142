"""Tests for matchers and cost models."""

from __future__ import annotations

import pickle
import string

import pytest

from repro.matching.matcher import (
    KERNEL_COUNTERS,
    CostModel,
    EditDistanceMatcher,
    JaccardMatcher,
)

from tests.conftest import batched_results, by_pid, make_profile
from tests.reference.scalar_execution import estimate_pair, evaluate_pair
from tests.reference.levenshtein import levenshtein


class TestCostModel:
    def test_charge(self):
        model = CostModel(base=1.0, per_unit=0.5)
        assert model.charge(4) == 3.0

    def test_zero_units(self):
        assert CostModel(base=2.0, per_unit=1.0).charge(0) == 2.0


class TestJaccardMatcher:
    def test_identical_profiles_match(self):
        matcher = JaccardMatcher(0.5)
        a = make_profile(0, "alpha beta gamma")
        b = make_profile(1, "alpha beta gamma")
        result = evaluate_pair(matcher, a, b)
        assert result.is_match
        assert result.similarity == 1.0

    def test_disjoint_profiles_do_not_match(self):
        matcher = JaccardMatcher(0.1)
        result = evaluate_pair(matcher, make_profile(0, "alpha"), make_profile(1, "omega"))
        assert not result.is_match

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            JaccardMatcher(1.5)

    def test_stats_accumulate(self):
        matcher = JaccardMatcher(0.5)
        a, b = make_profile(0, "x1 y1"), make_profile(1, "x1 y1")
        evaluate_pair(matcher, a, b)
        evaluate_pair(matcher, a, make_profile(2, "zz"))
        assert matcher.comparisons_executed == 2
        assert matcher.matches_found == 1
        assert matcher.total_cost > 0
        assert matcher.mean_cost == pytest.approx(matcher.total_cost / 2)

    def test_reset_stats(self):
        matcher = JaccardMatcher(0.5)
        evaluate_pair(matcher, make_profile(0, "aa bb"), make_profile(1, "aa bb"))
        matcher.reset_stats()
        assert matcher.comparisons_executed == 0
        assert matcher.mean_cost == 0.0

    def test_cost_grows_with_tokens(self):
        matcher = JaccardMatcher(0.5)
        small = estimate_pair(matcher, make_profile(0, "aa"), make_profile(1, "bb"))
        large = estimate_pair(
            matcher, make_profile(2, "aa bb cc dd ee"), make_profile(3, "ff gg hh ii jj")
        )
        assert large > small

    def test_estimate_does_not_execute(self):
        matcher = JaccardMatcher(0.5)
        estimate_pair(matcher, make_profile(0, "aa"), make_profile(1, "aa"))
        assert matcher.comparisons_executed == 0


class TestEditDistanceMatcher:
    def test_near_identical_match(self):
        matcher = EditDistanceMatcher(0.8)
        a = make_profile(0, "progressive entity resolution")
        b = make_profile(1, "progressive entity resolutino")
        assert evaluate_pair(matcher, a, b).is_match

    def test_dissimilar_rejected_by_prefilter(self):
        matcher = EditDistanceMatcher(0.8)
        a = make_profile(0, "aaaa bbbb cccc")
        b = make_profile(1, "xxxx yyyy zzzz")
        result = evaluate_pair(matcher, a, b)
        assert not result.is_match
        assert result.similarity <= matcher.prefilter_floor

    def test_prefilter_never_flips_positive_decisions(self):
        """Any pair at or above threshold must survive the bigram prefilter."""
        matcher = EditDistanceMatcher(0.7)
        pairs = [
            ("alice smith springfield", "alice smith springfeld"),
            ("the matrix 1999", "the matrix 1999 film"),
            ("data integration systems", "data integration system"),
        ]
        from repro.matching.similarity import normalized_edit_similarity

        for pid, (left, right) in enumerate(pairs):
            exact = normalized_edit_similarity(left, right)
            [got] = matcher._batch_scores(
                *by_pid([(make_profile(2 * pid, left), make_profile(2 * pid + 1, right))])
            )
            assert (got >= 0.7) == (exact >= 0.7)

    def test_quadratic_cost(self):
        matcher = EditDistanceMatcher(0.8)
        short = estimate_pair(matcher, make_profile(0, "ab"), make_profile(1, "cd"))
        long = estimate_pair(matcher, make_profile(2, "a" * 100), make_profile(3, "b" * 100))
        assert long > short * 40

    def test_text_truncation_configurable(self):
        with pytest.raises(ValueError):
            EditDistanceMatcher(0.8, max_text_length=4)

    def test_ed_costs_exceed_js_costs(self):
        js = JaccardMatcher()
        ed = EditDistanceMatcher()
        a = make_profile(0, "some moderately long profile text here")
        b = make_profile(1, "another moderately long profile text there")
        assert estimate_pair(ed, a, b) > estimate_pair(js, a, b)

    def test_bigram_cache_reused(self):
        matcher = EditDistanceMatcher(0.8)
        a, b = make_profile(0, "alpha beta"), make_profile(1, "alpha beta")
        evaluate_pair(matcher, a, b)
        cached = matcher._records[a.pid]
        evaluate_pair(matcher, a, b)
        assert matcher._records[a.pid] is cached


class TestShortTextRegression:
    """Texts shorter than one bigram must still classify correctly.

    Regression: the bigram prefilter saw an empty set for 0/1-character
    texts, scored the pair 0.0, and rejected *identical* profiles as
    non-matches.  Such pairs now route around the prefilter to the exact
    edit-distance kernel.
    """

    @pytest.mark.parametrize("text", ["x", "7", "𝄞"])
    def test_identical_one_char_profiles_match(self, text):
        matcher = EditDistanceMatcher(0.8)
        result = evaluate_pair(matcher, make_profile(0, text), make_profile(1, text))
        assert result.similarity == 1.0
        assert result.is_match

    def test_one_char_versus_near_identical(self):
        # "ab" vs "a": distance 1 over longest 2 -> similarity 0.5; the
        # short side has an empty bigram set, so only the exact kernel can
        # produce this value (the old prefilter returned 0.0).
        matcher = EditDistanceMatcher(0.5)
        result = evaluate_pair(matcher, make_profile(0, "ab"), make_profile(1, "a"))
        assert result.similarity == 0.5
        assert result.is_match

    def test_distinct_one_char_profiles_do_not_match(self):
        matcher = EditDistanceMatcher(0.8)
        result = evaluate_pair(matcher, make_profile(0, "x"), make_profile(1, "y"))
        assert result.similarity == 0.0
        assert not result.is_match

    def test_batch_path_agrees_on_short_texts(self):
        matcher = EditDistanceMatcher(0.8)
        pairs = [
            (make_profile(0, "x"), make_profile(1, "x")),
            (make_profile(2, "a"), make_profile(3, "b")),
            (make_profile(4, "ab"), make_profile(5, "a")),
            (make_profile(6, "alpha beta"), make_profile(7, "alpha beta")),
        ]
        scalar = [evaluate_pair(EditDistanceMatcher(0.8), x, y) for x, y in pairs]
        batched = batched_results(matcher, pairs)
        assert batched == scalar
        assert batched[0].is_match


class TestEditDistanceKernelTelemetry:
    def test_staged_counts_cover_every_pair(self):
        matcher = EditDistanceMatcher(0.8)
        forty = string.ascii_lowercase + string.digits + "ABCD"
        scattered = ["#" if i % 4 == 2 else char for i, char in enumerate(forty)]
        pairs = [
            (make_profile(0, "x"), make_profile(1, "x")),  # short text
            (make_profile(2, "aaaa bbbb"), make_profile(3, "xxxx yyyy")),  # prefilter
            (make_profile(4, "ab"), make_profile(5, "ab" * 40)),  # length cut
            (make_profile(6, "alpha beta"), make_profile(7, "alpha betas")),  # DP
            # 40 distinct characters, band of 8 edits: ten scattered
            # substitutions break 20 of the 39 bigrams (q-gram cut); twelve
            # adjacent ones break only 13, but leave 12 characters unmatched
            # (bag cut).
            (make_profile(8, forty), make_profile(9, "".join(scattered))),
            (make_profile(10, forty), make_profile(11, forty[:28] + "#" * 12)),
        ]
        results = matcher._batch_scores(*by_pid(pairs))
        assert results[4] == results[5] == 1.0 - 9 / 40
        counts = dict(matcher.kernel_counts)
        assert tuple(counts) == KERNEL_COUNTERS
        assert all(value == 1 for value in counts.values())
        restored = EditDistanceMatcher(0.5)
        restored.restore_state(matcher.snapshot_state())
        assert restored.kernel_counts == counts
        matcher.reset_stats()
        assert tuple(matcher.kernel_counts) == KERNEL_COUNTERS
        assert all(value == 0 for value in matcher.kernel_counts.values())


class TestFunnelLoop:
    """The funnel is one loop over the batch (a pair scored on its own is a
    batch of one) and its DP scans the shorter text against the longer
    text's table.
    Pairs that reach the DP with ``len(x)`` above, below and equal to
    ``len(y)``, within the band and beyond it, held to the textbook table."""

    BASE = "progressive entity resolution over incremental data"
    ROTATED = BASE[20:] + BASE[:20]  # same bag, same bigrams but 3: only the DP can tell
    TEXT_PAIRS = [
        (BASE + " streams", BASE),
        (BASE, BASE + " streams"),
        (BASE, BASE.replace("v", "w")),
        (ROTATED + "s", BASE),
        (BASE, ROTATED + "s"),
        (BASE, ROTATED),
    ]

    @staticmethod
    def _profiles(text_pairs):
        return [
            (make_profile(2 * index, text_x), make_profile(2 * index + 1, text_y))
            for index, (text_x, text_y) in enumerate(text_pairs)
        ]

    def test_every_length_order_reaches_the_dp_and_scores_exactly(self):
        threshold = 0.8
        pairs = self._profiles(self.TEXT_PAIRS)
        scalar = EditDistanceMatcher(threshold)
        results = [evaluate_pair(scalar, profile_x, profile_y) for profile_x, profile_y in pairs]
        assert scalar.kernel_counts["dp_calls"] == len(pairs)
        assert [result.is_match for result in results] == [True] * 3 + [False] * 3
        for result, (text_x, text_y) in zip(results, self.TEXT_PAIRS):
            longest = max(len(text_x), len(text_y))
            bound = int((1.0 - threshold) * longest) + 1
            distance = levenshtein(text_x, text_y)
            assert result.similarity == 1.0 - min(distance, bound + 1) / longest
        batched = EditDistanceMatcher(threshold)
        assert batched_results(batched, pairs) == results
        assert batched.kernel_counts == scalar.kernel_counts

    def test_profile_first_seen_mid_batch(self):
        """A signature missing from the cache is built inside the loop."""
        known_x, known_y = make_profile(0, self.BASE), make_profile(1, self.ROTATED)
        fresh = make_profile(2, self.BASE + " streams")
        pairs = [(known_x, known_y), (known_x, fresh), (fresh, known_y)]
        warm = EditDistanceMatcher(0.8)
        evaluate_pair(warm, known_x, known_y)
        assert set(warm._records) == {0, 1}
        cold = EditDistanceMatcher(0.8)
        assert warm._batch_scores(*by_pid(pairs)) == cold._batch_scores(*by_pid(pairs))
        assert set(warm._records) == {0, 1, 2}

    def test_similarity_counts_as_a_batch_of_one(self):
        for pair in self._profiles(self.TEXT_PAIRS[:1] + [("x", "x"), ("aaaa bbbb", "xxxx yyyy")]):
            scalar, batched = EditDistanceMatcher(0.8), EditDistanceMatcher(0.8)
            similarity = evaluate_pair(scalar, *pair).similarity
            assert batched._batch_scores(*by_pid([pair])) == [similarity]
            assert scalar.kernel_counts == batched.kernel_counts
            assert sum(scalar.kernel_counts.values()) == 1


class TestSnapshotExcludesDerivedCaches:
    def test_text_cache_not_in_snapshot(self):
        matcher = EditDistanceMatcher(0.8)
        for pid in range(50):
            evaluate_pair(
                matcher,
                make_profile(2 * pid, f"profile number {pid} alpha beta gamma"),
                make_profile(2 * pid + 1, f"profile number {pid} alpha beta gamma!"),
            )
        assert len(matcher._records) == 100
        state = matcher.snapshot_state()
        assert "_records" not in state
        assert "_metrics" not in state

    def test_snapshot_payload_stays_bounded(self):
        """Checkpoint payload must not grow with the number of profiles
        seen — the text cache is derivable state."""
        matcher = EditDistanceMatcher(0.8)
        empty_size = len(pickle.dumps(matcher.snapshot_state()))
        for pid in range(500):
            evaluate_pair(
                matcher,
                make_profile(2 * pid, f"some long profile text number {pid} " * 3),
                make_profile(2 * pid + 1, f"other profile text number {pid} " * 3),
            )
        warm_size = len(pickle.dumps(matcher.snapshot_state()))
        assert warm_size <= empty_size + 256

    def test_restore_rebuilds_cache_and_scores_identically(self):
        matcher = EditDistanceMatcher(0.8)
        pairs = [
            (
                make_profile(2 * pid, f"record {pid} alpha beta"),
                make_profile(2 * pid + 1, f"record {pid} alpha betas"),
            )
            for pid in range(20)
        ]
        expected = batched_results(matcher, pairs)
        snapshot = matcher.snapshot_state()

        restored = EditDistanceMatcher(0.99)
        restored.restore_state(snapshot)
        assert restored.threshold == matcher.threshold
        assert restored._records == {}
        assert restored.kernel_counts == matcher.kernel_counts
        fresh = EditDistanceMatcher(0.8)
        fresh.restore_state(snapshot)
        fresh.reset_stats()
        assert batched_results(fresh, pairs) == expected
