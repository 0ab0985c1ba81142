"""I-PCS: Incremental Progressive Comparison Scheduling (paper §4, Alg. 2).

The comparison-centric strategy: every comparison that survives block
ghosting and I-WNP is pushed, with its CBS weight, into one global bounded
priority queue.  Effectiveness therefore hinges entirely on the weighting
scheme — the limitation that motivates I-PES.
"""

from __future__ import annotations

import copy
from typing import Iterable

from repro.core.profile import EntityProfile
from repro.metablocking.weights import WeightingScheme
from repro.pier.base import ComparisonGenerator, GetComparisons, IncrPrioritization, PierSystem
from repro.priority.bounded_pq import BoundedPriorityQueue

__all__ = ["IPCS"]


class IPCS(IncrPrioritization):
    """Comparison-centric prioritization with a bounded global queue.

    Parameters
    ----------
    beta:
        Block-ghosting parameter β.
    scheme:
        Meta-blocking weighting scheme (CBS by default, as in the paper).
    capacity:
        Bound of the global comparison queue; low-weight comparisons are
        evicted under pressure, trading eventual quality for memory.
    """

    name = "I-PCS"

    def __init__(
        self,
        beta: float = 0.2,
        scheme: WeightingScheme | None = None,
        capacity: int | None = 500_000,
    ) -> None:
        self.generator = ComparisonGenerator(beta=beta, scheme=scheme)
        self.refill = GetComparisons(scheme=self.generator.scheme)
        self.index: BoundedPriorityQueue[tuple[int, int]] = BoundedPriorityQueue(capacity)

    # ------------------------------------------------------------------
    def ingest_profiles(self, system: PierSystem, profiles: Iterable[EntityProfile]) -> float:
        costs = system.costs
        metrics = system.metrics
        executed = system.store.executed
        cost = 0.0
        skipped = 0
        pairs: list[tuple[int, int]] = []
        weights: list[float] = []
        for profile in profiles:
            kept, operations = self.generator.generate(system.collection, profile)
            cost += operations * costs.per_weight
            metrics.count("strategy.weighting_ops", operations)
            for left, right, weight in kept:
                pair = (left, right)  # canonical already
                if pair in executed:
                    skipped += 1
                    continue
                pairs.append(pair)
                weights.append(weight)
                cost += costs.per_enqueue
        if skipped:
            metrics.count("strategy.skipped_already_executed", skipped)
        # Generation reads the collection, never the index: offering the
        # increment's comparisons after the last profile is offering them
        # after each.
        self.index.enqueue_batch(pairs, weights)
        if pairs:
            metrics.count("strategy.comparisons_enqueued", len(pairs))
        return cost

    def on_empty_increment(self, system: PierSystem) -> float:
        # Alg. 2, lines 10-11: only refill when the index has run dry; keep
        # draining blocks until the index holds fresh work or nothing is left.
        metrics = system.metrics
        costs = system.costs
        cost = costs.per_round
        while not len(self.index):
            result = self.refill.next_batch(system.collection, system.store.executed)
            if result is None:
                break
            pairs, weights = result
            metrics.count("strategy.refill_batches")
            metrics.count("strategy.refill_pairs_scanned", self.refill.last_scanned)
            metrics.count("strategy.weighting_ops", len(pairs))
            cost += len(pairs) * costs.per_weight
            for _ in pairs:  # one float addition per enqueue, as charged per pair
                cost += costs.per_enqueue
            self.index.enqueue_batch(pairs, weights)
            if pairs:
                metrics.count("strategy.comparisons_enqueued", len(pairs))
        return cost

    def dequeue_batch(
        self, count: int, executed: set[tuple[int, int]]
    ) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
        return self.index.pop_batch(count, executed)

    def __len__(self) -> int:
        return len(self.index)

    # -- checkpoint support ---------------------------------------------
    def snapshot_state(self) -> dict[str, object]:
        # generator/scheme are pure configuration; only the queue and the
        # refill drain cursor mutate during a run.
        return {
            "index": copy.deepcopy(self.index),
            "refill": self.refill.snapshot_state(),
        }

    def restore_state(self, state: dict[str, object]) -> None:
        self.index = copy.deepcopy(state["index"])
        self.refill.restore_state(state["refill"])
