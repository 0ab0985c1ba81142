"""Tests for similarity functions, including hypothesis metric properties."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.matching.similarity import (
    dice,
    jaccard,
    levenshtein,
    normalized_edit_similarity,
)

from tests.reference.levenshtein import levenshtein as textbook_levenshtein

short_text = st.text(alphabet="abcde ", max_size=24)
token_sets = st.frozensets(st.sampled_from(["a", "b", "c", "d", "e", "f"]), max_size=6)

# Includes characters beyond the Basic Multilingual Plane (a clef and an
# emoji) so the bit-vector kernel is exercised on astral-plane code points,
# and is long enough (via max_size below) to cross the 64-character word
# boundary into the multi-word big-int regime.
kernel_text = st.text(alphabet="abcd 𝄞😀é", max_size=90)


class TestJaccard:
    def test_identical(self):
        assert jaccard({"a", "b"}, {"a", "b"}) == 1.0

    def test_disjoint(self):
        assert jaccard({"a"}, {"b"}) == 0.0

    def test_partial(self):
        assert jaccard({"a", "b"}, {"b", "c"}) == pytest.approx(1 / 3)

    def test_empty_sets(self):
        assert jaccard(set(), set()) == 0.0
        assert jaccard({"a"}, set()) == 0.0

    @given(token_sets, token_sets)
    def test_bounds_and_symmetry(self, x, y):
        value = jaccard(x, y)
        assert 0.0 <= value <= 1.0
        assert value == jaccard(y, x)

    @given(token_sets)
    def test_self_similarity(self, x):
        if x:
            assert jaccard(x, x) == 1.0


class TestDiceAndOverlap:
    def test_dice_partial(self):
        assert dice({"a", "b"}, {"b", "c"}) == pytest.approx(0.5)

    @given(token_sets, token_sets)
    def test_dice_dominates_jaccard(self, x, y):
        assert dice(x, y) >= jaccard(x, y)


class TestLevenshtein:
    @pytest.mark.parametrize(
        "a,b,expected",
        [
            ("", "", 0),
            ("a", "", 1),
            ("", "abc", 3),
            ("kitten", "sitting", 3),
            ("flaw", "lawn", 2),
            ("abc", "abc", 0),
            ("abc", "abd", 1),
            ("abc", "acb", 2),
            ("𝄞😀", "😀𝄞", 2),  # astral-plane code points
            ("a" * 70, "a" * 69 + "b", 1),  # beyond one 64-bit word
        ],
    )
    def test_known_distances(self, a, b, expected):
        assert levenshtein(a, b) == expected

    def test_bound_caps_result(self):
        assert levenshtein("aaaa", "bbbb", max_distance=2) == 3

    def test_bound_exact_when_within(self):
        assert levenshtein("kitten", "sitting", max_distance=3) == 3
        assert levenshtein("kitten", "sitting", max_distance=10) == 3

    def test_bound_zero(self):
        assert levenshtein("same", "same", max_distance=0) == 0
        assert levenshtein("same", "diff", max_distance=0) == 1

    @given(short_text, short_text)
    def test_symmetry(self, a, b):
        assert levenshtein(a, b) == levenshtein(b, a)

    @given(short_text, short_text)
    def test_bounds(self, a, b):
        distance = levenshtein(a, b)
        assert abs(len(a) - len(b)) <= distance <= max(len(a), len(b))

    @given(short_text, short_text, short_text)
    @settings(max_examples=50)
    def test_triangle_inequality(self, a, b, c):
        assert levenshtein(a, c) <= levenshtein(a, b) + levenshtein(b, c)

    @given(short_text, short_text, st.integers(min_value=0, max_value=30))
    def test_banded_agrees_with_full(self, a, b, k):
        full = levenshtein(a, b)
        banded = levenshtein(a, b, max_distance=k)
        assert banded == (full if full <= k else k + 1)

    @given(short_text)
    def test_identity(self, a):
        assert levenshtein(a, a) == 0


class TestEditDistanceKernels:
    """The bit-parallel kernel against the textbook table of
    ``tests/reference/levenshtein.py`` — the two must return identical
    integers (and hence identical similarity floats) for every input."""

    @given(kernel_text, kernel_text, st.integers(min_value=0, max_value=12))
    @settings(max_examples=150)
    def test_kernels_agree_under_bound(self, a, b, k):
        """Bounded distances straddling ``k`` agree with the textbook table,
        including the capped ``k + 1`` overflow value."""
        full = textbook_levenshtein(a, b)
        assert levenshtein(a, b, max_distance=k) == (full if full <= k else k + 1)

    @given(kernel_text, kernel_text)
    @settings(max_examples=60)
    def test_kernels_agree_unbounded(self, a, b):
        assert levenshtein(a, b) == textbook_levenshtein(a, b)

    def test_long_pattern_uses_multiword_bitvector(self):
        """Patterns past 64 chars exercise the big-int Myers regime."""
        base = "the quick brown fox jumps over the lazy dog " * 3  # 135 chars
        edited = base[:40] + "X" + base[41:100] + "YZ" + base[100:]
        expected = textbook_levenshtein(base, edited)
        assert expected > 0
        assert levenshtein(base, edited) == expected
        assert levenshtein(base, edited, max_distance=expected) == expected
        assert levenshtein(base, edited, max_distance=expected - 1) == expected

    @given(kernel_text, kernel_text, st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=60)
    def test_normalized_similarity_bit_identical_across_kernels(self, a, b, t):
        """The similarity float is the one the textbook distance gives when
        clamped to the band ``min_similarity`` asks for."""
        longest = max(len(a), len(b))
        if longest == 0:
            expected = 0.0
        else:
            bound = int((1.0 - t) * longest) + 1
            distance = min(textbook_levenshtein(a, b), bound + 1, longest)
            expected = 1.0 - distance / longest
        assert normalized_edit_similarity(a, b, min_similarity=t).hex() == expected.hex()

    def test_float_bit_identity_across_hash_seeds(self):
        """``peq`` is a dict keyed by characters, so iteration order could
        vary with PYTHONHASHSEED — the similarity floats must not."""
        script = (
            "from repro.matching.similarity import "
            "normalized_edit_similarity as nes\n"
            "pairs = [('kitten', 'sitting'), ('𝄞😀ab', 'ab😀𝄞'), "
            "('progressive entity resolution over incremental data streams "
            "with budgets', 'progresive entity resolutoin over incremental "
            "data stream with budget'), ('', 'x')]\n"
            "print([nes(a, b, min_similarity=0.5).hex() for a, b in pairs])\n"
        )
        src_dir = str(Path(repro.__file__).parents[1])
        outputs = set()
        for seed in ("0", "1", "424242"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src_dir)
            result = subprocess.run(
                [sys.executable, "-c", script],
                env=env,
                capture_output=True,
                text=True,
                check=True,
            )
            outputs.add(result.stdout)
        assert len(outputs) == 1


class TestNormalizedEditSimilarity:
    def test_identical(self):
        assert normalized_edit_similarity("abc", "abc") == 1.0

    def test_empty_pair(self):
        assert normalized_edit_similarity("", "") == 0.0

    def test_known_value(self):
        # distance 3 over max length 7
        assert normalized_edit_similarity("kitten", "sitting") == pytest.approx(1 - 3 / 7)

    def test_min_similarity_exact_above_threshold(self):
        exact = normalized_edit_similarity("kitten", "sitting")
        thresholded = normalized_edit_similarity("kitten", "sitting", min_similarity=0.5)
        assert thresholded == pytest.approx(exact)

    def test_min_similarity_validation(self):
        with pytest.raises(ValueError):
            normalized_edit_similarity("a", "b", min_similarity=1.5)

    @given(short_text, short_text)
    def test_bounds(self, a, b):
        assert 0.0 <= normalized_edit_similarity(a, b) <= 1.0

    @given(short_text, short_text, st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=60)
    def test_threshold_decision_is_exact(self, a, b, threshold):
        """The banded computation must never flip a >=threshold decision."""
        longest = max(len(a), len(b))
        true_similarity = (1.0 - levenshtein(a, b) / longest) if longest else 0.0
        approx = normalized_edit_similarity(a, b, min_similarity=threshold)
        assert (approx >= threshold) == (true_similarity >= threshold)
