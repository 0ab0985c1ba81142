"""I-PBS as it was with a global pair queue (paper §5, Alg. 3, literally).

Every surviving pair of an opened block enters one priority queue keyed
``(block size, -weight, seq)``: pairs of smaller generating blocks first,
then heavier pairs, then first offered.  The queue is refilled lazily, one
block at a time: from the smallest pending block ``b_min`` when it is empty,
or when ``b_min`` is strictly smaller than the block that generated the
queue's head (checked at every ingest and every idle call).  The queue is
unbounded, so nothing is evicted.

The production :class:`~repro.pier.ipbs.IPBS` keeps one run per opened
block instead and, in idle time, opens blocks until the runs hold ``K``
pairs.  On a static plan it must emit this oracle's ``(pid, pid)`` sequence
exactly, and on any plan run to exhaustion it must execute the same pairs.
"""

from __future__ import annotations

import copy
import heapq
from typing import Iterable

from repro.core.profile import EntityProfile
from repro.metablocking.sweep import pair_weights
from repro.metablocking.weights import CommonBlocksScheme, WeightingScheme
from repro.pier.base import IncrPrioritization, PierSystem, _member_counts

from tests.reference.emit_loop import per_pair_round


class PairQueueIPBS(IncrPrioritization):
    """Block-centric prioritization over one lazily refilled pair queue."""

    name = "I-PBS"

    def __init__(self, scheme: WeightingScheme | None = None) -> None:
        self.scheme = scheme or CommonBlocksScheme()
        # Min-heap of (block size, -weight, seq, pair).
        self.queue: list[tuple[int, float, int, tuple[int, int]]] = []
        self._seq = 0
        self.cardinality_index: dict[str, int] = {}
        self._cursor: dict[str, tuple[int, ...]] = {}
        self.queued: set[tuple[int, int]] = set()
        self._pending_heap: list[tuple[int, str]] = []

    def ingest_profiles(self, system: PierSystem, profiles: Iterable[EntityProfile]) -> float:
        collection = system.collection
        cost = 0.0
        for profile in profiles:
            for key in collection.blocks_of(profile.pid):
                block = collection.get(key)
                if block is None:
                    continue
                if collection.clean_clean:
                    new_comparisons = len(block.members(1 - profile.source))
                else:
                    new_comparisons = len(block) - 1
                count = self.cardinality_index.get(key, 0) + max(new_comparisons, 0)
                self.cardinality_index[key] = count
                if count > 0:
                    heapq.heappush(self._pending_heap, (count, key))
                cost += system.costs.per_enqueue
        return cost + self._consider_refill(system)

    def on_empty_increment(
        self, system: PierSystem, target: int = 1, until: float | None = None
    ) -> float:
        return system.costs.per_round + self._consider_refill(system)

    def _consider_refill(self, system: PierSystem) -> float:
        cost = 0.0
        while True:
            key, block = self._smallest_pending_block(system)
            if key is None:
                return cost
            if self.queue and len(block) >= self.queue[0][0]:
                return cost
            cost += self._process_block(system, key, block)
            if self.queue:
                return cost

    def _smallest_pending_block(self, system: PierSystem):
        collection = system.collection
        heap = self._pending_heap
        while heap:
            count, key = heap[0]
            current = self.cardinality_index.get(key)
            block = collection.get(key)
            if current is None or current <= 0 or block is None:
                heapq.heappop(heap)
                if block is None or (current is not None and current <= 0):
                    self._reset_block(key, block)
                continue
            if current != count:
                heapq.heapreplace(heap, (current, key))
                continue
            return key, block
        return None, None

    def _process_block(self, system: PierSystem, key: str, block) -> float:
        costs = system.costs
        collection = system.collection
        metrics = system.metrics
        cost = costs.per_block_open
        metrics.count("strategy.blocks_processed")
        executed = system.store.executed
        members = block.members_by_source
        seen = dict(zip(members, self._cursor.get(key, ())))
        pending = {
            pid: source
            for source, pids in members.items()
            for pid in pids[seen.get(source, 0) :]
        }
        if collection.clean_clean:
            partners = {source: members.get(1 - source, ()) for source in members}
        else:
            partners = dict.fromkeys(members, [pid for pids in members.values() for pid in pids])
        scan = [
            (pid_x, pid_y) if pid_x < pid_y else (pid_y, pid_x)
            for pid_x in sorted(pending)
            for pid_y in partners[pending[pid_x]]
            if pid_y > pid_x or pid_y not in pending
        ]
        survivors = [pair for pair in scan if pair not in self.queued and pair not in executed]
        metrics.count("strategy.refill_pairs_scanned", len(scan))
        if len(scan) > len(survivors):
            metrics.count("strategy.redundant_pairs", len(scan) - len(survivors))
        self.queued.update(survivors)
        for pair, weight in zip(survivors, pair_weights(collection, survivors, self.scheme)):
            heapq.heappush(self.queue, (len(block), -weight, self._seq, pair))
            self._seq += 1
            cost += costs.per_weight + costs.per_enqueue
        if survivors:
            metrics.count("strategy.comparisons_enqueued", len(survivors))
        self._reset_block(key, block)
        return cost

    def _reset_block(self, key: str, block) -> None:
        self.cardinality_index.pop(key, None)
        if block is None:
            self._cursor.pop(key, None)
        else:
            self._cursor[key] = _member_counts(block)

    def dequeue(self) -> tuple[int, int] | None:
        if not self.queue:
            return None
        pair = heapq.heappop(self.queue)[3]
        self.queued.discard(pair)
        return pair

    def dequeue_batch(self, count, executed):
        return per_pair_round(self.dequeue, count, executed)

    def gauges(self) -> dict[str, float]:
        return {"pending_blocks": len(self.cardinality_index)}

    def __len__(self) -> int:
        return len(self.queue)

    def snapshot_state(self) -> dict[str, object]:
        return copy.deepcopy(
            {
                "queue": self.queue,
                "seq": self._seq,
                "queued": self.queued,
                "cardinality_index": self.cardinality_index,
                "cursor": self._cursor,
                "pending_heap": self._pending_heap,
            }
        )

    def restore_state(self, state: dict[str, object]) -> None:
        state = copy.deepcopy(state)
        self.queue = state["queue"]
        self._seq = state["seq"]
        self.queued = state["queued"]
        self.cardinality_index = state["cardinality_index"]
        self._cursor = state["cursor"]
        self._pending_heap = state["pending_heap"]
