"""I-PCS: Incremental Progressive Comparison Scheduling (paper §4, Alg. 2).

The comparison-centric strategy: every comparison that survives block
ghosting and I-WNP is pushed, with its CBS weight, into one global bounded
priority queue.  Effectiveness therefore hinges entirely on the weighting
scheme — the limitation that motivates I-PES.
"""

from __future__ import annotations

import copy
from typing import Sequence

from repro.metablocking.weights import WeightingScheme
from repro.pier.base import IncrPrioritization
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
        super().__init__(beta=beta, scheme=scheme)
        self.index: BoundedPriorityQueue[tuple[int, int]] = BoundedPriorityQueue(capacity)

    # ------------------------------------------------------------------
    def offer(
        self, pairs: Sequence[tuple[int, int]], weights: Sequence[float]
    ) -> dict[str, int]:
        self.index.enqueue_batch(pairs, weights)
        return {"comparisons_enqueued": len(pairs)}

    def room(self) -> float:
        return self.index.room()

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
