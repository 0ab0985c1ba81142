"""I-PES as it was before its queues became plain heaps.

``E_PQ`` is one :class:`~repro.priority.bounded_pq.BoundedPriorityQueue`
object per entity and ``EntityQueue`` another, each with its own ``seq``
counter for first-in-first-out among equal weights, and comparisons are
inserted one at a time; everything else — Algorithm 4's double pruning, the
overflow queue, and Algorithm 2's generation and refill loops (inherited from
:class:`~repro.pier.base.IncrPrioritization`) — is the production code's.
:class:`~repro.pier.ipes.IPES` must dequeue the same pairs in the same order
and report the same dispositions, sizes, gauges and running averages
(``tests/test_ipes_heaps.py``).
"""

from __future__ import annotations

import copy
from collections import Counter

from repro.core.comparison import WeightedComparison
from repro.metablocking.weights import WeightingScheme
from repro.pier.base import IncrPrioritization
from repro.priority.bounded_pq import BoundedPriorityQueue

from tests.reference.emit_loop import per_pair_round

__all__ = ["BoundedQueuesIPES", "top_key"]


def top_key(queue: BoundedPriorityQueue) -> float:
    """The key of the item the queue's next ``dequeue`` pops, read off its
    heap: the production queue offers no peek, since nothing in ``src/``
    asks for one."""
    return queue._live_top()[2]


class BoundedQueuesIPES(IncrPrioritization):
    """Entity-centric prioritization (Algorithm 4), one queue object per entity.

    Parameters
    ----------
    beta:
        Block-ghosting parameter β used during candidate generation.
    scheme:
        Weighting scheme (CBS by default).
    overflow_capacity:
        Bound of the low-weight overflow queue ``PQ``.
    """

    name = "I-PES"

    def __init__(
        self,
        beta: float = 0.2,
        scheme: WeightingScheme | None = None,
        overflow_capacity: int = 100_000,
    ) -> None:
        super().__init__(beta=beta, scheme=scheme)
        self.entity_pq: dict[int, BoundedPriorityQueue[tuple[int, int]]] = {}
        self.entity_queue: BoundedPriorityQueue[int] = BoundedPriorityQueue()
        self.overflow: BoundedPriorityQueue[tuple[int, int]] = BoundedPriorityQueue(
            overflow_capacity
        )
        # Global running average of inserted comparison weights (Total/Count).
        self.total_weight = 0.0
        self.count = 0
        # Per-entity running averages for the insert() pruning condition.
        self._entity_totals: dict[int, tuple[float, int]] = {}
        self._entity_items = 0

    # ------------------------------------------------------------------
    # Insertion (Algorithm 4)
    # ------------------------------------------------------------------
    def offer(self, pairs, weights) -> Counter[str]:
        """One ``_insert_weighted`` call per comparison, routes counted."""
        return Counter(
            f"inserted_{self._insert_weighted(WeightedComparison(*pair, weight))}"
            for pair, weight in zip(pairs, weights)
        )

    def room(self) -> float:
        # 0: the fill offers after every block, which is exact for any index.
        return 0

    def _insert_weighted(self, weighted: WeightedComparison) -> str:
        """Lines 1-14 of Algorithm 4 for a single weighted comparison.

        Returns where the comparison ended up (``entity`` / ``balanced`` /
        ``pruned`` / ``overflow``) so callers can count dispositions.
        """
        weight = weighted.weight
        self.total_weight += weight
        self.count += 1
        pid_x, pid_y = weighted.left, weighted.right

        if self._top_weight(pid_x) < weight:
            self._entity_enqueue(pid_x, weighted)
            self.entity_queue.enqueue(pid_x, weight)
            return "entity"
        if self._top_weight(pid_y) < weight:
            self._entity_enqueue(pid_y, weighted)
            self.entity_queue.enqueue(pid_y, weight)
            return "entity"
        if weight > self.total_weight / self.count:
            queue_x = self.entity_pq.get(pid_x)
            queue_y = self.entity_pq.get(pid_y)
            size_x = len(queue_x) if queue_x else 0
            size_y = len(queue_y) if queue_y else 0
            owner = pid_x if size_x <= size_y else pid_y
            return self._insert_if_above_entity_average(weighted, owner)
        self.overflow.enqueue(weighted.pair, weight)
        return "overflow"

    def _insert_if_above_entity_average(self, weighted: WeightedComparison, owner: int) -> str:
        """The ``insert()`` function: admit only above the entity average.

        A comparison below the owner's average is pruned *from the entity
        structures*, not lost: it falls through to the bounded overflow
        queue.  Dropping it outright would break the cross-strategy
        agreement contract — refills drain each block once, so a dropped
        comparison would never be offered again and I-PES would execute a
        strictly smaller comparison universe than I-PCS/I-PBS.
        """
        total, count = self._entity_totals.get(owner, (0.0, 0))
        if count and weighted.weight <= total / count:
            self.overflow.enqueue(weighted.pair, weighted.weight)
            return "pruned"
        self._entity_enqueue(owner, weighted)
        return "balanced"

    def _entity_enqueue(self, owner: int, weighted: WeightedComparison) -> None:
        queue = self.entity_pq.get(owner)
        if queue is None:
            queue = BoundedPriorityQueue()
            self.entity_pq[owner] = queue
        queue.enqueue(weighted.pair, weighted.weight)
        self._entity_items += 1
        total, count = self._entity_totals.get(owner, (0.0, 0))
        self._entity_totals[owner] = (total + weighted.weight, count + 1)

    def _top_weight(self, pid: int) -> float:
        """Weight of the best pending comparison of an entity (-inf if none)."""
        queue = self.entity_pq.get(pid)
        if not queue:
            return float("-inf")
        return top_key(queue)

    # ------------------------------------------------------------------
    # Emission (CmpIndex.dequeue of §6)
    # ------------------------------------------------------------------
    def dequeue(self) -> tuple[int, int] | None:
        while True:
            if not self.entity_queue:
                self._refill_entity_queue()
            if not self.entity_queue:
                break
            entity = self.entity_queue.dequeue()
            queue = self.entity_pq.get(entity)
            if not queue:
                continue  # stale EntityQueue entry
            pair = queue.dequeue()
            self._entity_items -= 1
            if not queue:
                del self.entity_pq[entity]
                self._entity_totals.pop(entity, None)
            return pair
        # Entity structures exhausted: fall back to the overflow queue.
        if self.overflow:
            return self.overflow.dequeue()
        return None

    def dequeue_batch(self, count, executed):
        return per_pair_round(self.dequeue, count, executed)

    def _refill_entity_queue(self) -> None:
        """When EntityQueue drains, reseed it from all live entity queues."""
        for entity, queue in self.entity_pq.items():
            if queue:
                self.entity_queue.enqueue(entity, top_key(queue))

    # ------------------------------------------------------------------
    def gauges(self) -> dict[str, float]:
        return {
            "entity_queues": len(self.entity_pq),
            "overflow_depth": len(self.overflow),
        }

    def __len__(self) -> int:
        return self._entity_items + len(self.overflow)

    # -- checkpoint support ---------------------------------------------
    def snapshot_state(self) -> dict[str, object]:
        return {
            "entity_pq": {pid: copy.deepcopy(queue) for pid, queue in self.entity_pq.items()},
            "entity_queue": copy.deepcopy(self.entity_queue),
            "overflow": copy.deepcopy(self.overflow),
            "total_weight": self.total_weight,
            "count": self.count,
            "entity_totals": dict(self._entity_totals),
            "entity_items": self._entity_items,
            "refill": self.refill.snapshot_state(),
        }

    def restore_state(self, state: dict[str, object]) -> None:
        self.entity_pq = {pid: copy.deepcopy(queue) for pid, queue in state["entity_pq"].items()}
        self.entity_queue = copy.deepcopy(state["entity_queue"])
        self.overflow = copy.deepcopy(state["overflow"])
        self.total_weight = state["total_weight"]
        self.count = state["count"]
        self._entity_totals = dict(state["entity_totals"])
        self._entity_items = state["entity_items"]
        self.refill.restore_state(state["refill"])
