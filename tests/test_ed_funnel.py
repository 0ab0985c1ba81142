"""The edit-distance funnel against an independent oracle.

``EditDistanceMatcher`` answers most comparisons from per-profile bit
signatures before any DP runs.  These tests hold every stage to the textbook
Levenshtein table of ``tests/reference/levenshtein.py`` (no code shared with
``src/``): the three exact cuts may only fire where the true distance is
beyond the band, and whatever the heuristic prefilter lets through must score
exactly as a brute-force computation would.  The counters are held to the
funnel invariant — every comparison is counted by exactly one stage — on
serial, sharded and fault-rescued runs.
"""

from __future__ import annotations

import os
import random
import signal

from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.core.increments import make_stream_plan, split_into_increments
from repro.evaluation.experiments import _build_matcher, _build_system
from repro.matching.matcher import KERNEL_COUNTERS, EditDistanceMatcher
from repro.streaming.engine import StreamingEngine

from tests.conftest import batched_results, make_profile, pool_or_skip
from tests.reference.levenshtein import levenshtein
from tests.reference.multisets import bigrams, common_bigrams, common_chars, common_repeats
from tests.reference.scalar_execution import evaluate_pair

EXACT_CUTS = ("length_cuts", "qgram_cuts", "bag_cuts")

# The adversaries of signature filters: tiny alphabets and long runs of one
# character (repeat signatures carry all the information), astral-plane
# characters, texts of length 0/1/2, texts longer than ``max_text_length``.
_alphabets = st.sampled_from(["ab", "abc", "ab𝄞😀", "abcdefgh é𝄞", "abcdefghijklmnopqrstuvwxyz 𝄞"])


@st.composite
def _text(draw, alphabet):
    shape = draw(st.sampled_from(["any", "long", "long", "runs", "runs"]))
    if shape == "any":
        return draw(st.text(alphabet=alphabet, max_size=6))
    if shape == "long":
        return draw(st.text(alphabet=alphabet, min_size=16, max_size=48))
    runs = draw(
        st.lists(st.tuples(st.sampled_from(alphabet), st.integers(1, 30)), min_size=1, max_size=4)
    )
    return "".join(char * length for char, length in runs)


@st.composite
def _text_pair(draw):
    """Two texts: unrelated, or the second a few edits away from the first
    (so pairs land on both sides of the band, not only far outside it)."""
    alphabet = draw(_alphabets)
    text_x = draw(_text(alphabet))
    if draw(st.booleans()):
        return text_x, draw(_text(alphabet))
    chars = list(text_x)
    for _ in range(draw(st.integers(0, 8))):
        position = draw(st.integers(0, len(chars)))
        edit = draw(st.sampled_from(["insert", "delete", "substitute", "overwrite"]))
        if edit == "insert":
            chars.insert(position, draw(st.sampled_from(alphabet)))
        elif edit == "overwrite":  # clustered substitutions: what the bag cut sees best
            run = draw(st.integers(1, 12))
            chars[position : position + run] = draw(st.sampled_from(alphabet)) * run
        elif position < len(chars):
            if edit == "delete":
                del chars[position]
            else:
                chars[position] = draw(st.sampled_from(alphabet))
    return text_x, "".join(chars)


_thresholds = st.sampled_from([0.0, 0.5, 0.8, 0.9, 0.95, 1.0]) | st.floats(0.0, 1.0) | st.floats(0.6, 1.0)


def _pairs_of(text_pairs):
    return [
        (make_profile(2 * index, text_x), make_profile(2 * index + 1, text_y))
        for index, (text_x, text_y) in enumerate(text_pairs)
    ]


@given(
    text_pairs=st.lists(_text_pair(), min_size=1, max_size=3),
    threshold=_thresholds,
    max_text_length=st.sampled_from([8, 12, 20, 40, 160]),
)
@settings(max_examples=1500, deadline=None)
def test_funnel_against_textbook_levenshtein(text_pairs, threshold, max_text_length):
    matcher = EditDistanceMatcher(threshold, max_text_length=max_text_length)
    pairs = _pairs_of(text_pairs)
    scalar = []
    for (profile_x, profile_y), (text_x, text_y) in zip(pairs, text_pairs):
        before = dict(matcher.kernel_counts)
        result = evaluate_pair(matcher, profile_x, profile_y)
        scalar.append(result)
        (stage,) = [name for name in KERNEL_COUNTERS if matcher.kernel_counts[name] != before[name]]
        assert matcher.kernel_counts[stage] == before[stage] + 1
        event(stage)

        text_x, text_y = text_x[:max_text_length], text_y[:max_text_length]
        longest = max(len(text_x), len(text_y))
        distance = levenshtein(text_x, text_y)
        bound = int((1.0 - threshold) * longest) + 1
        if stage in EXACT_CUTS:
            assert distance > bound
        if stage != "prefilter_rejects":
            if longest == 0:
                expected = 0.0
            else:
                expected = 1.0 - min(distance, bound + 1, longest) / longest
                assert result.is_match == (1.0 - distance / longest >= threshold)
            assert result.similarity == expected
    assert sum(matcher.kernel_counts.values()) == matcher.comparisons_executed == len(pairs)

    batched = EditDistanceMatcher(threshold, max_text_length=max_text_length)
    assert batched_results(batched, pairs) == scalar
    assert batched.kernel_counts == matcher.kernel_counts


@given(pair=_text_pair(), data=st.data())
@settings(max_examples=200, deadline=None)
def test_signature_masks_count_the_multiset_intersections(pair, data):
    """The popcounts of the gram, repeat and char ``AND`` of two
    signatures are the ``Counter`` intersections of
    ``tests/reference/multisets.py``, whatever texts the matcher's memoized
    masks and runs were built on first."""
    text_x, text_y = pair
    matcher = EditDistanceMatcher(0.8)
    assert max(len(text_x), len(text_y)) <= matcher.max_text_length  # wire texts
    for text in data.draw(st.lists(st.sampled_from([text_x, text_y, text_x[::-1], text_y[::-1]]))):
        matcher._derive(text)
    signature_x, signature_y = matcher._derive(text_x), matcher._derive(text_y)
    assert signature_x.grams == len(bigrams(text_x))
    assert (signature_x.gram_bits & signature_y.gram_bits).bit_count() == common_bigrams(
        text_x, text_y
    )
    assert (signature_x.repeat_bits & signature_y.repeat_bits).bit_count() == common_repeats(
        text_x, text_y
    )
    assert (signature_x.char_bits & signature_y.char_bits).bit_count() == common_chars(
        text_x, text_y
    )


@given(
    alphabet=_alphabets,
    data=st.data(),
    threshold=_thresholds,
    seed=st.integers(0, 2**16),
)
@settings(max_examples=100, deadline=None)
def test_bit_assignment_is_unobservable(alphabet, data, threshold, seed):
    """Which bit stands for which bigram depends on the order profiles are
    first prepared in; the floats must not."""
    texts = data.draw(st.lists(_text(alphabet), min_size=2, max_size=6))
    profiles = [make_profile(pid, text) for pid, text in enumerate(texts)]
    lookup = {profile.pid: profile for profile in profiles}
    pairs = [(x, y) for x in lookup for y in lookup if x < y]
    in_order = EditDistanceMatcher(threshold, max_text_length=40)
    shuffled = EditDistanceMatcher(threshold, max_text_length=40)
    signatures = shuffled._records
    signatures.profiles = lookup
    for profile in random.Random(seed).sample(profiles, len(profiles)):
        signatures[profile.pid]  # built on this first lookup
    assert shuffled._batch_scores(pairs, lookup) == in_order._batch_scores(pairs, lookup)
    assert shuffled.kernel_counts == in_order.kernel_counts


# ----------------------------------------------------------------------
# Funnel invariant on engine runs: serial, sharded, fault-rescued
# ----------------------------------------------------------------------
def _funnel(dataset, *, workers=1, kill=False):
    """Kernel counters and comparison count of one I-PES + ED run; with
    ``kill``, a worker is SIGKILLed first and the run is re-scored
    in-process by the pool's rescue replica."""
    pool = pool_or_skip("ED", workers) if workers > 1 else None
    try:
        if kill:
            os.kill(pool._processes[0].pid, signal.SIGKILL)
        engine = StreamingEngine(_build_matcher("ED"), budget=8.0, workers=workers, pool=pool)
        plan = make_stream_plan(split_into_increments(dataset, 8, seed=0), rate=5.0)
        result = engine.run(_build_system("I-PES", dataset), plan, dataset.ground_truth)
        counters = result.details["metrics"]["counters"]
        if pool is not None:
            assert counters["parallel.rounds_sharded"] > 0
            assert pool.healthy is not kill
        funnel = {name: counters[f"matcher.kernel.{name}"] for name in KERNEL_COUNTERS}
        assert sum(funnel.values()) == result.comparisons_executed == counters["matcher.evaluations"]
        return funnel
    finally:
        if pool is not None:
            pool.close()


def test_every_comparison_is_counted_by_exactly_one_stage(small_dblp_acm):
    serial = _funnel(small_dblp_acm)
    assert serial["qgram_cuts"] > 0 and serial["dp_calls"] > 0
    # Merged from the workers' replies ...
    assert _funnel(small_dblp_acm, workers=2) == serial
    # ... and from the rescue replica, after a worker was killed (the run
    # is one hand-off, at the drain's join).
    assert _funnel(small_dblp_acm, workers=2, kill=True) == serial
