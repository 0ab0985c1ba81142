"""The refill as it was before the member cursor: rescan the whole block.

Every revisit of a grown block enumerates all of its pairs again and leaves
it to the executed set to drop the ones seen before; weights come from one
``scheme.weight`` call per surviving pair.  The production
:class:`~repro.pier.base.GetComparisons` must offer the same comparisons in
the same order — minus the pairs an earlier drain of the same block already
offered, which the rescan re-offers when they were never executed.
"""

from __future__ import annotations

import heapq
from typing import Container

from repro.blocking.blocks import BlockCollection
from repro.core.comparison import canonical_pair
from repro.metablocking.weights import CommonBlocksScheme, WeightingScheme


class FullRescanRefill:
    """Smallest-block-first refill with a full pair scan per drain."""

    def __init__(self, scheme: WeightingScheme | None = None) -> None:
        self.scheme = scheme or CommonBlocksScheme()
        self._drained_size: dict[str, int] = {}
        self._heap: list[tuple[int, str]] = []
        #: Key of the block the latest :meth:`next_batch` drained.
        self.last_key: str | None = None

    def _eligible(self, block) -> bool:
        size = len(block)
        return size >= 2 and size > self._drained_size.get(block.key, 0)

    def _pop_smallest(self, collection: BlockCollection):
        for attempt in range(2):
            while self._heap:
                size, key = heapq.heappop(self._heap)
                block = collection.get(key)
                if block is None or not self._eligible(block):
                    continue
                if len(block) != size:
                    heapq.heappush(self._heap, (len(block), key))
                    continue
                return block
            if attempt == 0:
                self._heap = [
                    (len(block), block.key) for block in collection if self._eligible(block)
                ]
                heapq.heapify(self._heap)
        return None

    def next_batch(
        self, collection: BlockCollection, executed: Container[tuple[int, int]]
    ) -> tuple[list[tuple[int, int]], list[float]] | None:
        block = self._pop_smallest(collection)
        if block is None:
            return None
        self.last_key = block.key
        self._drained_size[block.key] = len(block)
        pairs: list[tuple[int, int]] = []
        for pid_x, pid_y in block.pairs(collection.clean_clean):
            pair = canonical_pair(pid_x, pid_y)
            if pair in executed:
                continue
            pairs.append(pair)
        weights = [self.scheme.weight(collection, left, right) for left, right in pairs]
        return pairs, weights
