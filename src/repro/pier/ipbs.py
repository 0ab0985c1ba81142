"""I-PBS: Incremental Progressive Block Scheduling (paper §5, Alg. 3).

Block-centric prioritization: blocks are processed smallest-first (small
blocks are most likely to contain duplicates).  Two global indexes track the
pending work per block:

* ``CI`` (cardinality index): block key → number of unexecuted comparisons
  its pending profiles can generate (the paper initializes entries to +∞ to
  mean "nothing pending"; we model that state by *absence* from the dict,
  which is equivalent and avoids ∞ arithmetic);
* ``PI`` (profile index): block key → pending (unexecuted) profiles.  Blocks
  only append, so these are the members past a per-source *cursor* set when
  the block is processed (as in :class:`~repro.pier.base.GetComparisons`).

Comparisons enter the global queue with the composite priority
``(-block_size, cbs_weight)``: comparisons from smaller generating blocks
come first, CBS breaks ties within a block.  Each new pair of a block is
generated once, and a pair already generated from an earlier block is
dropped.  The paper answers "already generated?" with a scalable Bloom
filter because it cannot afford the exact set; this implementation keeps
that set anyway — every generated pair is either still *queued* here or in
the store's *executed* set, which exactly-once execution needs regardless —
so the test is exact: two set probes, no false positive, no lost comparison.

The queue is refilled from the current smallest pending block ``b_min``
lazily: only when the queue is empty, or when ``b_min`` is *smaller* than
the block that generated the current queue head (so newly discovered small
blocks jump the line, while larger blocks wait until the queue drains —
this keeps the queue from growing without bound while preferring
comparisons from smaller blocks, the stated goals of the paper).
"""

from __future__ import annotations

import copy
import heapq
from typing import Iterable

from repro.core.profile import EntityProfile
from repro.metablocking.sweep import pair_weights
from repro.metablocking.weights import CommonBlocksScheme, WeightingScheme
from repro.pier.base import IncrPrioritization, PierSystem, _member_counts
from repro.priority.bounded_pq import BoundedPriorityQueue

__all__ = ["IPBS"]


class IPBS(IncrPrioritization):
    """Block-centric prioritization over smallest-pending-block refills."""

    name = "I-PBS"

    def __init__(
        self,
        scheme: WeightingScheme | None = None,
        capacity: int | None = 500_000,
    ) -> None:
        self.scheme = scheme or CommonBlocksScheme()
        self.index: BoundedPriorityQueue[tuple[int, int]] = BoundedPriorityQueue(capacity)
        self.cardinality_index: dict[str, int] = {}
        # Block key -> members per source when the block was last processed.
        self._cursor: dict[str, tuple[int, ...]] = {}
        # Pairs enqueued and not yet handed out.  The host claims every
        # dequeued pair into ``store.executed`` before the next refill, so
        # ``queued ∪ executed`` is every pair generated so far.  A pair the
        # bounded index evicts or refuses stays here: it is never generated
        # again, the loss the bound accepts.
        self.queued: set[tuple[int, int]] = set()
        # Lazy min-heap over (pending_count, key); entries whose count is
        # stale are discarded on pop, keeping b_min selection O(log n).
        self._pending_heap: list[tuple[int, str]] = []

    # ------------------------------------------------------------------
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
                if count > 0:
                    heapq.heappush(self._pending_heap, (count, key))
                cost += costs.per_enqueue
        cost += self._consider_refill(system)
        return cost

    def on_empty_increment(
        self, system: PierSystem, target: int = 1, until: float | None = None
    ) -> float:
        # Alg. 3's lazy refill at any round size (docs/ALGORITHMS.md).
        return system.costs.per_round + self._consider_refill(system)

    # ------------------------------------------------------------------
    def _consider_refill(self, system: PierSystem) -> float:
        """Process ``b_min`` when the lazy-refill condition holds (Alg. 3)."""
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
            # After processing one block, loop: an even smaller block may now
            # satisfy the condition (or the queue may still be empty).
            if len(self.index):
                return cost

    def _smallest_pending_block(self, system: PierSystem):
        """The live block with the fewest pending comparisons (``b_min``).

        Pops the lazy heap until an entry matches the current cardinality
        index; stale entries (block processed, purged, or count changed) are
        discarded, and changed counts are pushed back for a later pass.
        """
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
        """Generate the pending comparisons of a block into the queue."""
        costs = system.costs
        collection = system.collection
        metrics = system.metrics
        block_size = len(block)
        cost = costs.per_block_open
        metrics.count("strategy.blocks_processed")
        queued = self.queued
        executed = system.store.executed
        members = block.members_by_source
        seen = dict(zip(members, self._cursor.get(key, ())))
        # PI of Alg. 3: the members past the cursor, with their source.
        pending = {
            pid: source
            for source, pids in members.items()
            for pid in pids[seen.get(source, 0) :]
        }
        # Who a pending member of each source meets: the other source, or
        # on Dirty ER every member, sources laid back to back.
        if collection.clean_clean:
            partners = {source: members.get(1 - source, ()) for source in members}
        else:
            partners = dict.fromkeys(members, [pid for pids in members.values() for pid in pids])
        # Two pending profiles meet once, at the one that sorts first.
        scan = [
            (pid_x, pid_y) if pid_x < pid_y else (pid_y, pid_x)
            for pid_x in sorted(pending)
            for pid_y in partners[pending[pid_x]]
            if pid_y > pid_x or pid_y not in pending
        ]
        # A pair generated from an earlier common block already is redundant.
        survivors = [pair for pair in scan if pair not in queued and pair not in executed]
        metrics.count("strategy.refill_pairs_scanned", len(scan))
        if len(scan) > len(survivors):
            metrics.count("strategy.redundant_pairs", len(scan) - len(survivors))
        queued.update(survivors)
        weights = pair_weights(collection, survivors, self.scheme)
        per_pair = costs.per_weight + costs.per_enqueue
        for _ in survivors:  # one float addition per pair, as charged per pair
            cost += per_pair
        self.index.enqueue_batch(survivors, [(-block_size, weight) for weight in weights])
        if survivors:
            metrics.count("strategy.comparisons_enqueued", len(survivors))
        self._reset_block(key, block)
        return cost

    def _reset_block(self, key: str, block) -> None:
        """Lines 15-16 of Alg. 3: mark the block as having nothing pending."""
        self.cardinality_index.pop(key, None)
        if block is None:
            self._cursor.pop(key, None)  # purged: never comes back
        else:
            self._cursor[key] = _member_counts(block)

    # ------------------------------------------------------------------
    def dequeue_batch(
        self, count: int, executed: set[tuple[int, int]]
    ) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
        batch, stale = self.index.pop_batch(count, executed)
        self.queued.difference_update(batch)
        if stale:
            self.queued.difference_update(stale)
        return batch, stale

    def gauges(self) -> dict[str, float]:
        return {"pending_blocks": len(self.cardinality_index)}

    def __len__(self) -> int:
        return len(self.index)

    # -- checkpoint support ---------------------------------------------
    def snapshot_state(self) -> dict[str, object]:
        return {
            "index": copy.deepcopy(self.index),
            "queued": set(self.queued),
            "cardinality_index": dict(self.cardinality_index),
            "cursor": dict(self._cursor),
            "pending_heap": list(self._pending_heap),
        }

    def restore_state(self, state: dict[str, object]) -> None:
        self.index = copy.deepcopy(state["index"])
        self.queued = set(state["queued"])
        self.cardinality_index = dict(state["cardinality_index"])
        self._cursor = dict(state["cursor"])
        self._pending_heap = list(state["pending_heap"])
