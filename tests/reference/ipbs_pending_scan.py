"""I-PBS as it was before the member cursor: ``pending × all members``.

The profile index ``PI`` is a set of pending pids per block, filled at
ingestion.  Opening a block walks every pending profile against every
member, so two pending profiles meet twice — ``(x, y)`` and again as
``(y, x)`` — and the second meeting is left to the already-generated test
to drop (exact membership in ``queued ∪ executed``, as in production).
Weights come from one ``scheme.weight`` call per surviving pair.

The production :class:`~repro.pier.ipbs.IPBS` must enqueue the same pairs
with the same keys in the same order and leave the same ``queued`` set and
cardinality index behind; it may only ask less often.
:attr:`PendingScanIPBS.probes` counts the pairs this scan built, mirrors
included.
"""

from __future__ import annotations

import copy
import heapq
from typing import Iterable

from repro.core.comparison import canonical_pair
from repro.core.profile import EntityProfile
from repro.metablocking.weights import CommonBlocksScheme, WeightingScheme
from repro.pier.base import IncrPrioritization, PierSystem
from repro.priority.bounded_pq import BoundedPriorityQueue

from tests.reference.emit_loop import per_pair_round


class PendingScanIPBS(IncrPrioritization):
    """Block-centric prioritization with a pending-set scan per block."""

    name = "I-PBS"

    def __init__(
        self,
        scheme: WeightingScheme | None = None,
        capacity: int | None = 500_000,
    ) -> None:
        self.scheme = scheme or CommonBlocksScheme()
        self.index: BoundedPriorityQueue[tuple[int, int]] = BoundedPriorityQueue(capacity)
        self.cardinality_index: dict[str, int] = {}
        self.profile_index: dict[str, set[int]] = {}
        self.queued: set[tuple[int, int]] = set()
        self._pending_heap: list[tuple[int, str]] = []
        self.probes = 0

    def ingest_profiles(self, system: PierSystem, profiles: Iterable[EntityProfile]) -> float:
        costs = system.costs
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
                self.profile_index.setdefault(key, set()).add(profile.pid)
                if count > 0:
                    heapq.heappush(self._pending_heap, (count, key))
                cost += costs.per_enqueue
        cost += self._consider_refill(system)
        return cost

    def on_empty_increment(
        self, system: PierSystem, target: int = 1, until: float | None = None
    ) -> float:
        return system.costs.per_round + self._consider_refill(system)

    def _consider_refill(self, system: PierSystem) -> float:
        cost = 0.0
        while True:
            b_min_key, b_min_block = self._smallest_pending_block(system)
            if b_min_key is None:
                return cost
            if len(self.index):
                top_block_size = -self.index.peek_key()[0]
                if len(b_min_block) >= top_block_size:
                    return cost
            cost += self._process_block(system, b_min_key, b_min_block)
            if len(self.index):
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
                    self._reset_block(key)
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
        pending = self.profile_index.get(key, set())
        block_size = len(block)
        cost = costs.per_block_open
        metrics.count("strategy.blocks_processed")
        redundant = 0
        survivors: list[tuple[int, int]] = []
        for pid_x in sorted(pending):
            profile_x = system.profiles[pid_x]
            if collection.clean_clean:
                partners = block.members(1 - profile_x.source)
            else:
                partners = [pid for pid in block if pid != pid_x]
            for pid_y in partners:
                self.probes += 1
                pair = canonical_pair(pid_x, pid_y)
                if pair in self.queued or system.store.was_executed(*pair):
                    redundant += 1
                    continue
                self.queued.add(pair)  # its mirror comes later in this scan
                survivors.append(pair)
        if redundant:
            metrics.count("strategy.redundant_pairs", redundant)
        for pair in survivors:
            weight = self.scheme.weight(collection, *pair)
            self.index.enqueue(pair, (-block_size, weight))
            cost += costs.per_weight + costs.per_enqueue
        if survivors:
            metrics.count("strategy.comparisons_enqueued", len(survivors))
        self._reset_block(key)
        return cost

    def _reset_block(self, key: str) -> None:
        self.cardinality_index.pop(key, None)
        self.profile_index.pop(key, None)

    def dequeue(self) -> tuple[int, int] | None:
        if not self.index:
            return None
        pair = self.index.dequeue()
        self.queued.discard(pair)
        return pair

    def dequeue_batch(self, count, executed):
        return per_pair_round(self.dequeue, count, executed)

    def __len__(self) -> int:
        return len(self.index)

    def snapshot_state(self) -> dict[str, object]:
        return {
            "index": copy.deepcopy(self.index),
            "queued": set(self.queued),
            "cardinality_index": dict(self.cardinality_index),
            "profile_index": {key: set(pids) for key, pids in self.profile_index.items()},
            "pending_heap": list(self._pending_heap),
            "probes": self.probes,
        }

    def restore_state(self, state: dict[str, object]) -> None:
        self.index = copy.deepcopy(state["index"])
        self.queued = set(state["queued"])
        self.cardinality_index = dict(state["cardinality_index"])
        self.profile_index = {key: set(pids) for key, pids in state["profile_index"].items()}
        self._pending_heap = list(state["pending_heap"])
        self.probes = state["probes"]
