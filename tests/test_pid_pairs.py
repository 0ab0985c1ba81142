"""The matcher's pid-pair path, checked against independent references.

The engine hands a matcher the emitted ``(pid, pid)`` tuples and the
system's read-only pid → profile lookup; the matcher reads each pid's
profile once, into a pid-keyed derived record.  Whatever those records
held before, a JS pair must cost ``CostModel.charge`` of its two token
counts and score ``similarity.jaccard`` of its two token sets.  The
records must not outlive a run, travel in a checkpoint or a worker
template, or cost a profile read per compared pair.
"""

from __future__ import annotations

import pickle
from functools import reduce
from operator import add

import pytest

from repro.api import ERSession
from repro.core.increments import make_stream_plan, split_into_increments
from repro.core.profile import EntityProfile
from repro.datasets.registry import load_dataset
from repro.matching.matcher import JaccardMatcher
from repro.matching.similarity import jaccard
from repro.parallel.pool import _replica, _score, _template_state
from repro.streaming.engine import StreamingEngine
from repro.streaming.pipelined import PipelinedStreamingEngine

from tests.conftest import build_matcher, build_system, make_profile

TEXTS = [
    "",
    "a b",  # no token survives the tokenizer
    "alpha beta gamma",
    "alpha beta delta",
    "gamma delta epsilon zeta",
    "alpha",
    "omega psi",
]
LOOKUP = {pid: make_profile(pid, text) for pid, text in enumerate(TEXTS)}
#: The same pids naming other profiles (another dataset, another run).
OTHER = {pid: make_profile(pid, f"{text} other words {pid}") for pid, text in enumerate(TEXTS)}
PAIRS = [(x, y) for x in LOOKUP for y in LOOKUP if x < y]


def _reference(matcher, pairs, lookup):
    """Costs and scores from the scalar definitions, pair by pair."""
    charge = matcher.cost_model.charge
    costs, scores = [], []
    for pid_x, pid_y in pairs:
        tokens_x, tokens_y = lookup[pid_x].tokens(), lookup[pid_y].tokens()
        costs.append(charge(len(tokens_x) + len(tokens_y)))
        scores.append(jaccard(tokens_x, tokens_y))
    return costs, scores


def _read(matcher, pairs, lookup):
    return matcher.estimate_cost_batch(pairs, lookup), matcher._batch_scores(pairs, lookup)


def test_empty_token_sets():
    assert LOOKUP[0].tokens() == LOOKUP[1].tokens() == frozenset()
    matcher = JaccardMatcher()
    assert _read(matcher, PAIRS, LOOKUP) == _reference(matcher, PAIRS, LOOKUP)


def test_pid_first_seen_mid_batch():
    matcher = JaccardMatcher()
    _read(matcher, [(2, 3)], LOOKUP)
    assert set(matcher._records) == {2, 3}
    batch = [(2, 3), (2, 4), (4, 3), (3, 2), (5, 0)]
    costs, scores = _reference(matcher, batch, LOOKUP)
    assert _read(matcher, batch, LOOKUP) == (costs, scores)
    assert set(matcher._records) == {0, 2, 3, 4, 5}
    # The estimate is what the accounting charges, float for float.
    matcher.evaluate_batch(batch, LOOKUP, matcher.estimate_cost_batch(batch, LOOKUP))
    assert matcher.total_cost == reduce(add, costs, 0.0)


def test_batch_of_one():
    for pair in PAIRS:
        matcher = JaccardMatcher()
        assert _read(matcher, [pair], LOOKUP) == _reference(matcher, [pair], LOOKUP)


def test_batch_after_restore_state():
    source = JaccardMatcher(0.3)
    source.evaluate_batch(PAIRS[:5], LOOKUP, source.estimate_cost_batch(PAIRS[:5], LOOKUP))
    restored = JaccardMatcher()
    _read(restored, PAIRS, OTHER)  # records of the same pids, other profiles
    restored.restore_state(source.snapshot_state())
    assert restored.threshold == 0.3 and restored._records == {}
    assert _read(restored, PAIRS, LOOKUP) == _reference(restored, PAIRS, LOOKUP)


def test_same_batch_on_a_pool_replica():
    matcher = JaccardMatcher()
    _read(matcher, PAIRS, OTHER)
    replica = _replica((JaccardMatcher, _template_state(matcher)))
    similarities, counts = _score(replica, PAIRS, LOOKUP)
    assert similarities == _reference(matcher, PAIRS, LOOKUP)[1]
    assert counts == {}


def test_snapshot_and_template_carry_no_per_pid_records(small_dblp_acm):
    """Checkpoint and worker-template bytes do not grow with the profiles
    a run has compared."""
    matcher = build_matcher("JS")
    plan = make_stream_plan(split_into_increments(small_dblp_acm, 8, seed=0), rate=None)
    StreamingEngine(matcher, budget=300.0).run(
        build_system("I-PES", small_dblp_acm), plan, small_dblp_acm.ground_truth
    )
    assert len(matcher._records) > 100
    fresh = build_matcher("JS")
    snapshot = matcher.snapshot_state()
    assert set(snapshot) == set(fresh.snapshot_state())
    assert len(pickle.dumps(snapshot)) <= len(pickle.dumps(fresh.snapshot_state())) + 64
    assert _template_state(matcher) == _template_state(fresh)


@pytest.mark.parametrize("engine_cls", [StreamingEngine, PipelinedStreamingEngine])
@pytest.mark.parametrize("matcher_name", ["JS", "ED"])
def test_an_engine_run_again_on_another_dataset_equals_a_fresh_engine(engine_cls, matcher_name):
    """Regression: ``_setup`` reset the matcher's statistics but kept its
    pid-keyed records, so an ED engine run a second time scored the new
    dataset's profiles against the first one's signatures (21 duplicates
    instead of 47 on the serial engine)."""

    def run(engine, seed):
        dataset = load_dataset("dblp_acm", 0.1, seed=seed)
        plan = make_stream_plan(split_into_increments(dataset, 10, seed=0), rate=None)
        result = engine.run(build_system("I-PES", dataset), plan, dataset.ground_truth)
        return (
            result.duplicates,
            result.comparisons_executed,
            result.match_events,
            result.clock_end,
        )

    reused = engine_cls(build_matcher(matcher_name), budget=300.0)
    run(reused, 1)
    second = run(reused, 2)
    assert second == run(engine_cls(build_matcher(matcher_name), budget=300.0), 2)
    assert second[0]


def test_a_js_run_reads_tokens_a_constant_number_of_times_per_profile(monkeypatch):
    """``EntityProfile.tokens`` is called for blocking, for the ingest cost
    and for the matcher's record: three times per ingested profile, however
    many comparisons the run makes (it was about four per comparison)."""
    dataset = load_dataset("dblp_acm", 0.1, seed=1)
    calls = 0
    tokens = EntityProfile.tokens

    def counting(profile, tokenizer=None):
        nonlocal calls
        calls += 1
        return tokens(profile, tokenizer)

    monkeypatch.setattr(EntityProfile, "tokens", counting)
    result = ERSession(dataset, systems="I-PBS", matcher="JS", n_increments=10).run()
    assert result.increments_ingested == 10
    assert result.comparisons_executed > 10 * len(dataset)
    assert calls <= 3 * len(dataset)
