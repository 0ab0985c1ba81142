"""Bit-identity tests for the batched matcher kernel.

The engines' batched execution path is only sound if ``evaluate_batch``
produces *exactly* what the same pairs give one at a time — same
similarities, same costs (``estimate_cost_batch``, which the engine passes
in), same flags, stats and metrics counters, in the same accumulation
order.  These tests compare a batch against the pair-at-a-time oracle
(``tests/reference/scalar_execution.py``) on real dataset profiles for
both matchers, and check the vectorized similarity kernels against their
scalar definitions.
"""

from __future__ import annotations

import random

import pytest

from repro.core.increments import make_stream_plan, split_into_increments
from repro.matching.matcher import EditDistanceMatcher, JaccardMatcher
from repro.matching.similarity import dice, jaccard
from repro.observability.metrics import MetricsRegistry
from repro.streaming.engine import StreamingEngine
from repro.streaming.pipelined import PipelinedStreamingEngine

from tests.conftest import batched_results, build_matcher, build_system, by_pid, make_profile
from tests.reference.scalar_execution import estimate_pair, evaluate_pair


def _sample_pairs(dataset, n=200, seed=7):
    rng = random.Random(seed)
    profiles = dataset.profiles
    return [
        (profiles[rng.randrange(len(profiles))], profiles[rng.randrange(len(profiles))])
        for _ in range(n)
    ]


def _run_scalar(matcher, pairs):
    registry = MetricsRegistry()
    matcher.bind_metrics(registry)
    results = [evaluate_pair(matcher, x, y) for x, y in pairs]
    return results, registry.snapshot(include_wall=False)["counters"]


def _run_batched(matcher, pairs):
    registry = MetricsRegistry()
    matcher.bind_metrics(registry)
    results = batched_results(matcher, pairs)
    return results, registry.snapshot(include_wall=False)["counters"]


def _evaluate_batch(matcher, pairs):
    pid_pairs, lookup = by_pid(pairs)
    return matcher.evaluate_batch(pid_pairs, lookup, matcher.estimate_cost_batch(pid_pairs, lookup))


def _assert_identical(matcher_name, pairs):
    scalar_matcher = build_matcher(matcher_name)
    batched_matcher = build_matcher(matcher_name)
    scalar_results, scalar_counters = _run_scalar(scalar_matcher, pairs)
    batched_results, batched_counters = _run_batched(batched_matcher, pairs)
    assert len(scalar_results) == len(batched_results)
    for scalar, batched in zip(scalar_results, batched_results):
        assert scalar.similarity == batched.similarity
        assert scalar.cost == batched.cost
        assert scalar.is_match == batched.is_match
    assert scalar_counters == batched_counters
    # Float accumulations must agree bit-for-bit (same summation order).
    assert scalar_matcher.total_cost == batched_matcher.total_cost
    assert scalar_matcher.comparisons_executed == batched_matcher.comparisons_executed
    assert scalar_matcher.matches_found == batched_matcher.matches_found


def test_jaccard_batch_bit_identical(small_dblp_acm):
    _assert_identical("JS", _sample_pairs(small_dblp_acm))


def test_edit_distance_batch_bit_identical(small_movies):
    _assert_identical("ED", _sample_pairs(small_movies))


def test_batch_accounting_folds_from_the_previous_totals(small_dblp_acm):
    """Accounting happens once per batch, continuing the running totals; a
    batch without pairs (or without matches) must not create a counter."""
    pairs = _sample_pairs(small_dblp_acm, n=90)
    scalar_matcher = build_matcher("JS")
    _, scalar_counters = _run_scalar(scalar_matcher, pairs)
    batched_matcher = build_matcher("JS")
    registry = MetricsRegistry()
    batched_matcher.bind_metrics(registry)
    assert batched_matcher.evaluate_batch([], {}, []) == []
    assert registry.snapshot(include_wall=False)["counters"] == {}
    for start in range(0, len(pairs), 30):
        _evaluate_batch(batched_matcher, pairs[start : start + 30])
    assert registry.snapshot(include_wall=False)["counters"] == scalar_counters
    assert batched_matcher.total_cost == scalar_matcher.total_cost
    assert batched_matcher.matches_found == scalar_matcher.matches_found
    unmatched, unmatched_registry = build_matcher("JS"), MetricsRegistry()
    unmatched.bind_metrics(unmatched_registry)
    _evaluate_batch(unmatched, [(make_profile(0, "north"), make_profile(1, "south"))])
    assert set(unmatched_registry.snapshot(include_wall=False)["counters"]) == {
        "matcher.evaluations",
        "matcher.virtual_cost_s",
    }


#: Each matcher's work units per pair: tokens for JS, the character product
#: of the full texts (the quadratic DP) for ED.
WORK_UNITS = {
    "JS": lambda x, y: len(x.tokens()) + len(y.tokens()),
    "ED": lambda x, y: float(x.text_length()) * float(y.text_length()),
}


def test_estimate_cost_batch_matches_scalar(small_dblp_acm):
    pairs = _sample_pairs(small_dblp_acm, n=100)
    for name, units in WORK_UNITS.items():
        matcher = build_matcher(name)
        batched = matcher.estimate_cost_batch(*by_pid(pairs))
        assert batched == [matcher.cost_model.charge(units(x, y)) for x, y in pairs]
        assert batched == [estimate_pair(matcher, x, y) for x, y in pairs]


def test_ed_pricing_from_length_records_equals_the_profile_expression(small_dblp_acm):
    """ED prices a pair off pid → ``float(text_length)`` records: on every
    pair of a whole dataset, cold and warm, the costs are float-equal to
    the expression read straight off the two profiles."""
    profiles = small_dblp_acm.profiles
    pairs, lookup = by_pid([(x, y) for i, x in enumerate(profiles) for y in profiles[i:]])
    matcher = EditDistanceMatcher()
    base, per_unit = matcher.cost_model.base, matcher.cost_model.per_unit
    expected = [
        base + per_unit * (float(lookup[x].text_length()) * float(lookup[y].text_length()))
        for x, y in pairs
    ]
    assert matcher.estimate_cost_batch(pairs, lookup) == expected
    assert matcher.estimate_cost_batch(pairs[::-1], lookup) == expected[::-1]


def test_similarity_kernels_match_scalar_definitions():
    # Texts whose token sets are empty, disjoint, overlapping and equal.
    texts = [
        ("", ""),
        ("abc", ""),
        ("abc bcd", "bcd cde"),
        ("abc bcd cde", "cde bcd abc"),
        ("aaa bbb ccc ddd eee fff", "ddd eee fff ggg hhh iii"),
    ]
    token_pairs = [
        (make_profile(2 * pid, text_x), make_profile(2 * pid + 1, text_y))
        for pid, (text_x, text_y) in enumerate(texts)
    ]
    assert [len(x.tokens() | y.tokens()) for x, y in token_pairs] == [0, 1, 3, 3, 9]
    assert JaccardMatcher()._batch_scores(*by_pid(token_pairs)) == [
        jaccard(x.tokens(), y.tokens()) for x, y in token_pairs
    ]
    # The ED prefilter reads its Dice off bit signatures.  With the floor
    # above 1 it "rejects" every pair, with that Dice as the score.
    texts = ["ab", "abab", "alpha beta", "alpha betas", "aaaa bbbb", "xxxx yyyy", "𝄞😀𝄞😀 é"]
    profiles = [make_profile(pid, text) for pid, text in enumerate(texts)]
    matcher = EditDistanceMatcher(0.8, prefilter_floor=2.0)
    for profile_x, text_x in zip(profiles, texts):
        bigrams_x = {text_x[i : i + 2] for i in range(len(text_x) - 1)}
        for profile_y, text_y in zip(profiles, texts):
            bigrams_y = {text_y[i : i + 2] for i in range(len(text_y) - 1)}
            [score] = matcher._batch_scores(*by_pid([(profile_x, profile_y)]))
            assert score == dice(bigrams_x, bigrams_y)


@pytest.mark.parametrize("matcher_name, strategy", [("JS", "I-PBS"), ("ED", "I-PES")])
@pytest.mark.parametrize("engine_cls", [StreamingEngine, PipelinedStreamingEngine])
def test_evaluate_batch_once_per_round_that_executed(
    small_dblp_acm, matcher_name, strategy, engine_cls
):
    """Without a fleet the kernel scores every round that executed pairs
    with exactly one ``evaluate_batch`` call, and the calls' flags add up
    to the executed comparisons.  Outside-in tracers wrap that method by
    name (by swapping the instance's class, as here) to read the matching
    layer, so a kernel that scores around it reads as no matching at all."""
    calls: list[int] = []
    matcher = build_matcher(matcher_name)

    class Spy(type(matcher)):
        def evaluate_batch(self, pairs, profiles, costs):
            flags = super().evaluate_batch(pairs, profiles, costs)
            calls.append(len(flags))
            return flags

    matcher.__class__ = Spy
    rounds: list[tuple[int, int]] = []  # (evaluate_batch calls, pairs executed)

    class Engine(engine_cls):
        def _execute_batch_kernel(self, state, batch, match_timer):
            calls_before = len(calls)
            executed_before = state.recorder.comparisons_executed
            clock = super()._execute_batch_kernel(state, batch, match_timer)
            rounds.append(
                (len(calls) - calls_before, state.recorder.comparisons_executed - executed_before)
            )
            return clock

    plan = make_stream_plan(split_into_increments(small_dblp_acm, 8, seed=0), rate=5.0)
    # Budgets that end the run inside a round: a cut round executes a prefix.
    budget = 1.47 if matcher_name == "JS" else 8.0
    result = Engine(matcher, budget=budget).run(
        build_system(strategy, small_dblp_acm), plan, small_dblp_acm.ground_truth
    )
    counters = result.details["metrics"]["counters"]
    assert counters["engine.comparisons_cut_by_deadline"] > 0
    assert [n_calls for n_calls, _ in rounds] == [int(executed > 0) for _, executed in rounds]
    assert calls == [executed for _, executed in rounds if executed]
    assert sum(calls) == result.comparisons_executed == counters["engine.comparisons_executed"] > 0
