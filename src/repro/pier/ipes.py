"""I-PES: Incremental Progressive Entity Scheduling (paper §6, Alg. 4).

The entity-centric strategy.  Instead of one global comparison order (whose
quality stands or falls with the weighting scheme), I-PES ranks *entities*
by the weight of their best pending comparison and emits comparisons entity
by entity.  Three structures constitute its ``CmpIndex``:

* ``E_PQ`` — per-entity priority queues of weighted comparisons;
* ``EntityQueue`` — a priority queue of ``(entity, weight)`` tuples, where
  the weight is the entity's best comparison weight at insertion time;
* ``PQ`` — a bounded overflow queue for low-weighted comparisons.

``E_PQ`` and ``EntityQueue`` are unbounded and an entity's queue holds one
comparison on average, so they are plain ``heapq`` lists of
``(-weight, seq, item)`` rather than queue objects: the highest weight pops
first and ``seq`` — one strategy-wide counter, so monotone within every
list — keeps equal weights first-in-first-out without a comparison ever
reaching the item.  Only ``PQ`` evicts, and only it is a
:class:`~repro.priority.bounded_pq.BoundedPriorityQueue`.

Insertion applies the paper's double pruning: a comparison that does not
improve either endpoint's best, is only stored (a) with the endpoint owning
the smaller queue, and (b) if its weight beats both the global average
weight and that endpoint's per-entity average — otherwise it is demoted to
the bounded ``PQ``, keeping it out of the entity structures while never
losing it outright (refills offer each comparison once, so a hard drop
would shrink I-PES's comparison universe below the other strategies').
This bounds memory and sheds superfluous comparisons, making I-PES far less
sensitive to a poorly suited weighting scheme than I-PCS.
"""

from __future__ import annotations

import copy
from collections import Counter
from heapq import heappop, heappush
from typing import Iterable

from repro.core.comparison import WeightedComparison
from repro.core.profile import EntityProfile
from repro.metablocking.weights import WeightingScheme
from repro.pier.base import ComparisonGenerator, GetComparisons, IncrPrioritization, PierSystem
from repro.priority.bounded_pq import BoundedPriorityQueue

__all__ = ["IPES"]

_NO_TOP = float("-inf")


class IPES(IncrPrioritization):
    """Entity-centric prioritization (Algorithm 4).

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
        self.generator = ComparisonGenerator(beta=beta, scheme=scheme)
        self.refill = GetComparisons(scheme=self.generator.scheme)
        # Heaps of (-weight, seq, pair) per entity and of (-weight, seq, pid).
        self.entity_pq: dict[int, list[tuple[float, int, tuple[int, int]]]] = {}
        self.entity_queue: list[tuple[float, int, int]] = []
        self._seq = 0
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
    # Ingestion (Algorithm 4)
    # ------------------------------------------------------------------
    def ingest_profiles(self, system: PierSystem, profiles: Iterable[EntityProfile]) -> float:
        costs = system.costs
        metrics = system.metrics
        executed = system.store.executed
        cost = 0.0
        skipped = 0
        inserted: Counter[str] = Counter()
        for profile in profiles:
            kept, operations = self.generator.generate(system.collection, profile)
            cost += operations * costs.per_weight
            metrics.count("strategy.weighting_ops", operations)
            for weighted in kept:
                if (weighted.left, weighted.right) in executed:  # canonical already
                    skipped += 1
                    continue
                inserted[self._insert_weighted(weighted)] += 1
                cost += costs.per_enqueue
        if skipped:
            metrics.count("strategy.skipped_already_executed", skipped)
        self._count_inserted(metrics, inserted)
        return cost

    def on_empty_increment(self, system: PierSystem) -> float:
        metrics = system.metrics
        costs = system.costs
        cost = costs.per_round
        inserted: Counter[str] = Counter()
        while not len(self):
            result = self.refill.next_batch(
                system.collection, system.store.was_executed_canonical
            )
            if result is None:
                break
            batch, operations = result
            metrics.count("strategy.refill_batches")
            metrics.count("strategy.refill_pairs_scanned", self.refill.last_scanned)
            metrics.count("strategy.weighting_ops", operations)
            cost += operations * costs.per_weight
            for weighted in batch:
                inserted[self._insert_weighted(weighted)] += 1
                cost += costs.per_enqueue
        self._count_inserted(metrics, inserted)
        return cost

    @staticmethod
    def _count_inserted(metrics, inserted: Counter[str]) -> None:
        """One ``strategy.inserted_<disposition>`` count per disposition seen."""
        for disposition, amount in inserted.items():
            metrics.count(f"strategy.inserted_{disposition}", amount)

    def _insert_weighted(self, weighted: WeightedComparison) -> str:
        """Lines 1-14 of Algorithm 4 for a single weighted comparison.

        Returns where the comparison ended up (``entity`` / ``balanced`` /
        ``pruned`` / ``overflow``) so callers can count dispositions.
        """
        pid_x, pid_y, weight = weighted
        self.total_weight += weight
        self.count += 1

        for pid in (pid_x, pid_y):
            if self._top_weight(pid) < weight:
                self._entity_enqueue(pid, weighted)
                heappush(self.entity_queue, (-weight, self._seq, pid))
                self._seq += 1
                return "entity"
        if weight > self.total_weight / self.count:
            size_x = len(self.entity_pq.get(pid_x, ()))
            size_y = len(self.entity_pq.get(pid_y, ()))
            owner = pid_x if size_x <= size_y else pid_y
            return self._insert_if_above_entity_average(weighted, owner)
        self.overflow.enqueue((pid_x, pid_y), weight)
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
        left, right, weight = weighted
        queue = self.entity_pq.get(owner)
        if queue is None:
            queue = self.entity_pq[owner] = []
        heappush(queue, (-weight, self._seq, (left, right)))
        self._seq += 1
        self._entity_items += 1
        total, count = self._entity_totals.get(owner, (0.0, 0))
        self._entity_totals[owner] = (total + weight, count + 1)

    def _top_weight(self, pid: int) -> float:
        """Weight of the best pending comparison of an entity (-inf if none)."""
        queue = self.entity_pq.get(pid)
        if not queue:
            return _NO_TOP
        return -queue[0][0]

    # ------------------------------------------------------------------
    # Emission (CmpIndex.dequeue of §6)
    # ------------------------------------------------------------------
    def dequeue(self) -> tuple[int, int] | None:
        entity_queue = self.entity_queue
        entity_pq = self.entity_pq
        while True:
            if not entity_queue:
                self._refill_entity_queue()
                if not entity_queue:
                    break
            entity = heappop(entity_queue)[2]
            queue = entity_pq.get(entity)
            if not queue:
                continue  # stale EntityQueue entry
            pair = heappop(queue)[2]
            self._entity_items -= 1
            if not queue:
                del entity_pq[entity]
                self._entity_totals.pop(entity, None)
            return pair
        # Entity structures exhausted: fall back to the overflow queue.
        if self.overflow:
            return self.overflow.dequeue()
        return None

    def _refill_entity_queue(self) -> None:
        """When EntityQueue drains, reseed it from all live entity queues."""
        # Entities in E_PQ's insertion order, each at its top's (negated)
        # weight: emptied queues are deleted on dequeue, so all are live.
        for entity, queue in self.entity_pq.items():
            heappush(self.entity_queue, (queue[0][0], self._seq, entity))
            self._seq += 1

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
            # Heap entries are immutable tuples: copying the lists is deep enough.
            "entity_pq": {pid: list(queue) for pid, queue in self.entity_pq.items()},
            "entity_queue": list(self.entity_queue),
            "seq": self._seq,
            "overflow": copy.deepcopy(self.overflow),
            "total_weight": self.total_weight,
            "count": self.count,
            "entity_totals": dict(self._entity_totals),
            "entity_items": self._entity_items,
            "refill": self.refill.snapshot_state(),
        }

    def restore_state(self, state: dict[str, object]) -> None:
        self.entity_pq = {pid: list(queue) for pid, queue in state["entity_pq"].items()}
        self.entity_queue = list(state["entity_queue"])
        self._seq = state["seq"]
        self.overflow = copy.deepcopy(state["overflow"])
        self.total_weight = state["total_weight"]
        self.count = state["count"]
        self._entity_totals = dict(state["entity_totals"])
        self._entity_items = state["entity_items"]
        self.refill.restore_state(state["refill"])
