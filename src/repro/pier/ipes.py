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
from heapq import heappop, heappush
from typing import Sequence

from repro.metablocking.weights import WeightingScheme
from repro.pier.base import IncrPrioritization
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
        super().__init__(beta=beta, scheme=scheme)
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
    # Insertion (Algorithm 4)
    # ------------------------------------------------------------------
    def offer(
        self, pairs: Sequence[tuple[int, int]], weights: Sequence[float]
    ) -> dict[str, int]:
        """Lines 1-14 of Algorithm 4 for canonical pairs, in order.

        A comparison that improves an endpoint's best (first ``x``, then
        ``y``; a missing queue has top −∞) goes to that entity and enqueues
        it (``entity``).  Otherwise, above the global average it goes to the
        endpoint owning the smaller queue — the ``insert()`` function —
        unless it is at or below that owner's average (``balanced`` /
        ``pruned``); at or below the global average it goes to ``PQ``
        (``overflow``).  A pruned comparison falls through to ``PQ`` too,
        not lost: refills offer each comparison once, so a hard drop would
        shrink I-PES's comparison universe below the other strategies'.

        Returns how many comparisons took each route, as ``inserted_<route>``
        counts.  The heaps, running totals and ``seq`` live in locals for the
        whole batch; nothing here reads ``PQ``, so the comparisons bound for
        it are offered in one batch at the end, in order.
        """
        entity_pq = self.entity_pq
        entity_queue = self.entity_queue
        entity_totals = self._entity_totals
        overflow_pairs: list[tuple[int, int]] = []
        overflow_weights: list[float] = []
        total_weight = self.total_weight
        count = self.count
        seq = self._seq
        to_entity = balanced = pruned = overflow = 0
        for pair, weight in zip(pairs, weights):
            total_weight += weight
            count += 1
            pid_x, pid_y = pair
            queue_x = entity_pq.get(pid_x)
            queue_y = entity_pq.get(pid_y)
            improves = True
            if (-queue_x[0][0] if queue_x else _NO_TOP) < weight:
                owner, queue = pid_x, queue_x
            elif (-queue_y[0][0] if queue_y else _NO_TOP) < weight:
                owner, queue = pid_y, queue_y
            elif weight > total_weight / count:
                improves = False
                if len(queue_x or ()) <= len(queue_y or ()):
                    owner, queue = pid_x, queue_x
                else:
                    owner, queue = pid_y, queue_y
                total, items = entity_totals.get(owner, (0.0, 0))
                if items and weight <= total / items:
                    overflow_pairs.append(pair)
                    overflow_weights.append(weight)
                    pruned += 1
                    continue
            else:
                overflow_pairs.append(pair)
                overflow_weights.append(weight)
                overflow += 1
                continue
            if queue is None:
                queue = entity_pq[owner] = []
            heappush(queue, (-weight, seq, pair))
            seq += 1
            total, items = entity_totals.get(owner, (0.0, 0))
            entity_totals[owner] = (total + weight, items + 1)
            if improves:
                heappush(entity_queue, (-weight, seq, owner))
                seq += 1
                to_entity += 1
            else:
                balanced += 1
        self.total_weight = total_weight
        self.count = count
        self._seq = seq
        self._entity_items += to_entity + balanced
        self.overflow.enqueue_batch(overflow_pairs, overflow_weights)
        return {
            "inserted_entity": to_entity,
            "inserted_balanced": balanced,
            "inserted_pruned": pruned,
            "inserted_overflow": overflow,
        }

    def room(self) -> float:
        # Only ``PQ`` is bounded: the entity structures take any pair.
        return self.overflow.room()

    # ------------------------------------------------------------------
    # Emission (CmpIndex.dequeue of §6)
    # ------------------------------------------------------------------
    def dequeue_batch(
        self, count: int, executed: set[tuple[int, int]]
    ) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
        entity_queue = self.entity_queue
        entity_pq = self.entity_pq
        batch: list[tuple[int, int]] = []
        stale: list[tuple[int, int]] = []
        taken = 0  # comparisons removed from the entity structures
        while len(batch) < count:
            if not entity_queue:
                self._refill_entity_queue()
                if not entity_queue:
                    break
            entity = heappop(entity_queue)[2]
            queue = entity_pq.get(entity)
            if not queue:
                continue  # stale EntityQueue entry
            pair = heappop(queue)[2]
            taken += 1
            if not queue:
                del entity_pq[entity]
                self._entity_totals.pop(entity, None)
            if pair in executed:
                stale.append(pair)
            else:
                executed.add(pair)
                batch.append(pair)
        self._entity_items -= taken
        if len(batch) < count and self.overflow:
            # Entity structures exhausted: fall back to the overflow queue.
            more, more_stale = self.overflow.pop_batch(count - len(batch), executed)
            batch += more
            stale += more_stale
        return batch, stale

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
