"""I-BASE: the incremental (non-progressive) baseline (Gazzarri & Herschel,
ICDE 2021).

For every increment, I-BASE performs incremental token blocking, applies
block ghosting and I-WNP per new profile, and hands *all* surviving
comparisons to the matcher in generation (FIFO) order.  Two properties
distinguish it from the PIER algorithms and drive the paper's findings:

* **No adaptivity** — the number of comparisons generated per increment is
  fixed by the data, independent of the input rate or matcher speed.  With
  an expensive matcher the backlog grows; the bounded internal queue then
  exerts back-pressure on ingestion (``ready_for_ingest``), delaying stream
  consumption (the missing × markers in Figure 7).
* **No globality** — the system goes idle between increments once the
  backlog drains (the staircase PC curves on slow streams in Figure 2);
  older promising comparisons are never revisited.
"""

from __future__ import annotations

import copy
from collections import deque

from repro.blocking.substrate import BlockingConfig
from repro.core.increments import Increment
from repro.metablocking.weights import WeightingScheme
from repro.pier.base import ComparisonGenerator
from repro.streaming.system import EmitResult, ERSystem, PipelineStats

__all__ = ["IBaseSystem"]


class IBaseSystem(ERSystem):
    """The incremental ER baseline pipeline.

    Parameters
    ----------
    beta:
        Block-ghosting parameter β (shared with the PIER algorithms so that
        comparisons are selected identically — only scheduling differs).
    chunk_size:
        Comparisons handed to the matcher per round (fixed, not adaptive).
    high_watermark:
        Back-pressure bound on the comparison backlog: ingestion of further
        increments stalls while the backlog is above this value.
    blocking:
        Blocking-substrate choice (token / lsh); ``None`` keeps the paper's
        token blocking.
    """

    name = "I-BASE"

    def __init__(
        self,
        clean_clean: bool = False,
        max_block_size: int | None = 200,
        beta: float = 0.2,
        scheme: WeightingScheme | None = None,
        chunk_size: int = 64,
        high_watermark: int = 2000,
        blocking: BlockingConfig | None = None,
    ) -> None:
        super().__init__(clean_clean, max_block_size, blocking)
        self.generator = ComparisonGenerator(beta=beta, scheme=scheme)
        self.chunk_size = chunk_size
        self.high_watermark = high_watermark
        self._fifo: deque[tuple[int, int]] = deque()

    # ------------------------------------------------------------------
    def ingest(self, increment: Increment) -> float:
        cost = self._index(increment)
        for profile in increment:
            kept, operations = self.generator.generate(self.collection, profile)
            cost += operations * self.costs.per_weight
            self.metrics.count("strategy.weighting_ops", operations)
            # Within a profile, higher-weighted comparisons go first (the
            # order I-WNP produced); across profiles/increments it is FIFO.
            # I-BASE commits comparisons at *enqueue* time: the executed-set
            # claim happens here, so later re-generations of the same pair
            # are dropped before they ever reach the FIFO.
            for weighted in sorted(kept, key=lambda c: -c.weight):
                pair = weighted.pair
                if not self.store.mark_executed(pair):
                    self.metrics.count("strategy.skipped_already_executed")
                    continue
                self._fifo.append(pair)
                self.metrics.count("strategy.comparisons_enqueued")
                cost += self.costs.per_enqueue
        return cost

    def has_work(self) -> bool:
        return bool(self._fifo)

    def emit(self, stats: PipelineStats) -> EmitResult:
        batch = []
        while self._fifo and len(batch) < self.chunk_size:
            batch.append(self._fifo.popleft())
        return EmitResult(batch=tuple(batch), cost=self.costs.per_round)

    def ready_for_ingest(self) -> bool:
        return len(self._fifo) < self.high_watermark

    def gauges(self) -> dict[str, float]:
        return {"queue_depth": len(self._fifo)}

    @property
    def backlog(self) -> int:
        return len(self._fifo)

    # -- checkpoint support ---------------------------------------------
    def snapshot(self) -> dict[str, object]:
        """Blocking state, the profile store, the FIFO backlog and the
        comparison store — the generator and cost tables are pure
        configuration."""
        return {
            "collection": copy.deepcopy(self.collection),
            "profiles": dict(self._profiles),
            "fifo": list(self._fifo),
            "store": self.store.snapshot_state(),
        }

    def restore(self, state: dict[str, object]) -> None:
        self.collection = copy.deepcopy(state["collection"])
        self._profiles = dict(state["profiles"])
        self._fifo = deque(state["fifo"])
        self.store.restore_state(state["store"])

    def describe(self) -> dict[str, object]:
        return {
            "name": self.name,
            "backlog": len(self._fifo),
            "profiles": len(self._profiles),
        }
