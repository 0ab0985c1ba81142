"""Pair-at-a-time comparison execution: the oracle of the batched kernel.

``ExecutionCore._execute_batch_kernel`` plans an emission round's deadline
cut over the round's costs with ``accumulate`` and ``bisect``, and scores
the surviving prefix in one ``evaluate_batch`` call.  The loop here does
neither.  It walks the round's pairs in emission order and, for each pair:

1. estimates its cost (a batch of one);
2. cuts the round if the pair cannot finish by the deadline: the time
   left is charged, nothing is credited;
3. charges it and scores it, ``account_costs([cost])`` then
   ``account_scores(_batch_scores([(pid_x, pid_y)], lookup))``;
4. records it, and ends the round if it finished exactly at the deadline.

:class:`ScalarStreamingEngine` and :class:`ScalarPipelinedEngine` run every
round through this loop.  A run on them must equal the production engine's
run bit for bit: clocks, curve, duplicates, counters and checkpoints
(``tests/test_engine_parity.py``).
"""

from __future__ import annotations

from typing import NamedTuple

from repro.streaming.engine import StreamingEngine
from repro.streaming.pipelined import PipelinedStreamingEngine

__all__ = [
    "PairOutcome",
    "ScalarPipelinedEngine",
    "ScalarStreamingEngine",
    "by_pid",
    "estimate_pair",
    "evaluate_pair",
    "execute_pairwise",
]


class PairOutcome(NamedTuple):
    """One pair's classification, similarity and virtual cost."""

    is_match: bool
    similarity: float
    cost: float


def by_pid(pairs) -> tuple[list[tuple[int, int]], dict]:
    """``(profile, profile)`` pairs as a matcher reads them: the ``(pid,
    pid)`` tuples and a pid → profile lookup."""
    lookup = {profile.pid: profile for pair in pairs for profile in pair}
    return [(profile_x.pid, profile_y.pid) for profile_x, profile_y in pairs], lookup


def estimate_pair(matcher, profile_x, profile_y) -> float:
    """The virtual cost of one pair, without executing it."""
    return matcher.estimate_cost_batch(*by_pid([(profile_x, profile_y)]))[0]


def evaluate_pair(matcher, profile_x, profile_y) -> PairOutcome:
    """One pair, charged and scored on its own (steps 1 and 3)."""
    cost = estimate_pair(matcher, profile_x, profile_y)
    matcher.account_costs([cost])
    [similarity] = matcher._batch_scores(*by_pid([(profile_x, profile_y)]))
    [is_match] = matcher.account_scores([similarity])
    return PairOutcome(is_match, similarity, cost)


def execute_pairwise(engine, state, batch, match_timer) -> float:
    """Execute one emission round pair by pair; returns the match clock."""
    profiles = state.system.profiles
    metrics = state.metrics
    budget = engine.budget
    clock = state.clock
    for position, (pid_x, pid_y) in enumerate(batch):
        canonical = (min(pid_x, pid_y), max(pid_x, pid_y))
        profile_x, profile_y = profiles[pid_x], profiles[pid_y]
        cost = estimate_pair(state.matcher, profile_x, profile_y)
        if clock + cost > budget:
            metrics.count("engine.comparisons_cut_by_deadline", len(batch) - position)
            match_timer.virtual += budget - clock
            return budget
        outcome = evaluate_pair(state.matcher, profile_x, profile_y)
        clock += cost
        match_timer.virtual += cost
        metrics.count("engine.comparisons_executed")
        if state.recorder.record(pid_x, pid_y, clock):
            metrics.count("engine.matches_recorded")
        if outcome.is_match:
            state.duplicates.add(canonical)
        if clock >= budget:
            break
    return clock


class ScalarStreamingEngine(StreamingEngine):
    """The serial engine, every round executed by :func:`execute_pairwise`."""

    def _execute_batch_kernel(self, state, batch, match_timer):
        return execute_pairwise(self, state, batch, match_timer)


class ScalarPipelinedEngine(PipelinedStreamingEngine):
    """The pipelined engine, every round executed by :func:`execute_pairwise`."""

    def _execute_batch_kernel(self, state, batch, match_timer):
        return execute_pairwise(self, state, batch, match_timer)
