"""I-PBS: Incremental Progressive Block Scheduling (paper §5, Alg. 3).

Block-centric prioritization: blocks are processed smallest-first (small
blocks are most likely to contain duplicates).  Two global indexes track the
pending work per block:

* ``CI`` (cardinality index): block key → number of unexecuted comparisons
  its pending profiles can generate (the paper's +∞, "nothing pending", is
  *absence* from the dict);
* ``PI`` (profile index): block key → pending profiles.  Blocks only
  append, so these are the members past a per-source *cursor* set when the
  block is processed (as in :class:`~repro.pier.base.GetComparisons`).

The ``CmpIndex`` is a deque of *runs*, one per processed block: its new
pairs by descending weight, handed out from the front.  Alg. 3's lazy
refill processes ``b_min``, the smallest pending block, when nothing is
queued and, at ingestion, when it is smaller than the front run's block,
whose run it then precedes; idle rounds append further ``b_min`` runs until
they hold ``K`` pairs (docs/ALGORITHMS.md).  A pair already generated from
an earlier block is dropped exactly, where the paper uses a Bloom filter:
every generated pair is still *queued* in a run or in the store's
*executed* set.
"""

from __future__ import annotations

import heapq
from collections import deque
from operator import itemgetter
from typing import Iterable

from repro.core.profile import EntityProfile
from repro.metablocking.sweep import pair_weights
from repro.metablocking.weights import CommonBlocksScheme, WeightingScheme
from repro.pier.base import IncrPrioritization, PierSystem, _member_counts

__all__ = ["IPBS"]


class IPBS(IncrPrioritization):
    """Block-centric prioritization over smallest-pending-block runs."""

    name = "I-PBS"

    def __init__(self, scheme: WeightingScheme | None = None) -> None:
        self.scheme = scheme or CommonBlocksScheme()
        # Pending runs, front first: (size of the block when it was
        # processed, its pairs not handed out yet, in emission order).
        self.runs: deque[tuple[int, tuple[tuple[int, int], ...]]] = deque()
        # The pairs of the runs; with ``store.executed``, every pair so far.
        self.queued: set[tuple[int, int]] = set()
        self.cardinality_index: dict[str, int] = {}
        # Block key -> members per source when the block was last processed.
        self._cursor: dict[str, tuple[int, ...]] = {}
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
        return cost + self._consider_refill(system)

    def on_empty_increment(
        self, system: PierSystem, target: int = 1, until: float | None = None
    ) -> float:
        """Alg. 3's lazy refill, then ``b_min`` runs at the back while the
        runs hold under ``target`` pairs and the cost is below ``until``."""
        cost = system.costs.per_round + self._consider_refill(system)
        while len(self.queued) < target and (until is None or cost < until):
            key, block = self._smallest_pending_block(system)
            if key is None:
                break
            cost += self._process_block(system, key, block, front=False)
        return cost

    # ------------------------------------------------------------------
    def _consider_refill(self, system: PierSystem) -> float:
        """Process ``b_min`` when the lazy-refill condition holds (Alg. 3)."""
        cost = 0.0
        while True:
            key, block = self._smallest_pending_block(system)
            if key is None or (self.queued and len(block) >= self.runs[0][0]):
                return cost
            cost += self._process_block(system, key, block, front=True)
            if self.queued:  # else the block had no new pair: try the next
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

    def _process_block(self, system: PierSystem, key: str, block, front: bool) -> float:
        """Generate the pending comparisons of a block as a run in front or at the back."""
        costs = system.costs
        collection = system.collection
        metrics = system.metrics
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
        self._reset_block(key, block)
        if not survivors:
            return cost
        queued.update(survivors)
        per_pair = costs.per_weight + costs.per_enqueue
        for _ in survivors:  # one float addition per pair, as charged per pair
            cost += per_pair
        weights = pair_weights(collection, survivors, self.scheme)
        # Stable, so equal weights leave in scan order.
        ranked = sorted(zip(survivors, weights), key=itemgetter(1), reverse=True)
        run = (len(block), tuple(map(itemgetter(0), ranked)))
        (self.runs.appendleft if front else self.runs.append)(run)
        metrics.count("strategy.comparisons_enqueued", len(survivors))
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
        batch: list[tuple[int, int]] = []
        stale: list[tuple[int, int]] = []
        runs = self.runs
        while runs and len(batch) < count:
            size, pairs = runs.popleft()
            need = count - len(batch)
            if need < len(pairs):  # the rest of the run stays in front
                runs.appendleft((size, pairs[need:]))
                pairs = pairs[:need]
            fresh = [pair for pair in pairs if pair not in executed]
            if len(fresh) < len(pairs):
                stale += [pair for pair in pairs if pair in executed]
            executed.update(fresh)
            batch += fresh
        self.queued.difference_update(batch, stale)
        return batch, stale

    def gauges(self) -> dict[str, float]:
        return {"pending_blocks": len(self.cardinality_index)}

    def __len__(self) -> int:
        return len(self.queued)

    # -- checkpoint support ---------------------------------------------
    def snapshot_state(self) -> dict[str, object]:
        # Runs are tuples, shared with the snapshot; ``queued`` is their pairs.
        return {
            "runs": list(self.runs),
            "cardinality_index": dict(self.cardinality_index),
            "cursor": dict(self._cursor),
            "pending_heap": list(self._pending_heap),
        }

    def restore_state(self, state: dict[str, object]) -> None:
        self.runs = deque(state["runs"])
        self.queued = {pair for _, pairs in self.runs for pair in pairs}
        self.cardinality_index = dict(state["cardinality_index"])
        self._cursor = dict(state["cursor"])
        self._pending_heap = list(state["pending_heap"])
