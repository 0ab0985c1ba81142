"""Plain batch ER (no prioritization) — the Figure 1 reference behaviour.

Batch ER performs blocking and then executes all block comparisons in
arbitrary (block insertion) order.  Matches surface uniformly over the run
rather than early; the run finishes when every block comparison has been
executed.  Used by the Figure 1 sketch benchmark and as the reference for
Definition 1/3 comparisons.
"""

from __future__ import annotations

from repro.progressive.base import BatchProgressiveSystem

__all__ = ["BatchERSystem"]


class BatchERSystem(BatchProgressiveSystem):
    """Unprioritized batch ER over token blocking."""

    name = "BATCH"

    def __init__(self, clean_clean: bool = False, max_block_size: int | None = 200, **kwargs):
        super().__init__(
            clean_clean=clean_clean, max_block_size=max_block_size, scope="all", **kwargs
        )
        self._block_order: list[str] = []
        self._block_cursor = 0
        self._buffer: list[tuple[int, int]] = []
        self._seen: set[tuple[int, int]] = set()

    def _estimate_init_cost(self) -> float:
        return len(self.collection) * self.costs.per_enqueue

    def _initialize(self) -> float:
        # No prioritization work at all: just snapshot the block order.
        self._block_order = [block.key for block in self.collection]
        self._block_cursor = 0
        self._buffer = []
        self._seen = set()
        return len(self._block_order) * self.costs.per_enqueue

    def _next_pairs(self, n: int) -> tuple[list[tuple[int, int]], float]:
        cost = 0.0
        while len(self._buffer) < n and self._block_cursor < len(self._block_order):
            key = self._block_order[self._block_cursor]
            self._block_cursor += 1
            block = self.collection.get(key)
            cost += self.costs.per_block_open
            if block is None:
                continue
            for pid_x, pid_y in block.pairs(self.collection.clean_clean):
                pair = (min(pid_x, pid_y), max(pid_x, pid_y))
                if pair in self._seen:
                    continue
                self._seen.add(pair)
                self._buffer.append(pair)
        pairs = self._buffer[:n]
        del self._buffer[:n]
        return pairs, cost + len(pairs) * self.costs.per_enqueue
