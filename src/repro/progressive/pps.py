"""PPS: Progressive Profile Scheduling (batch baseline, Simonini et al.).

Initialization builds the meta-blocking block graph, ranks profiles by
duplication likelihood (average incident edge weight), and prepares the
emission order:

1. the global *comparison list* — each profile's single best comparison,
   sorted by weight (emitted first);
2. then, profile by profile in likelihood order, each profile's ``top_k``
   best non-redundant comparisons.

The graph build enumerates every block pair, which is why PPS pays a long
initialization on large datasets (invisible start of its PC curve in
Figure 4, multi-hour pre-analysis on D_dbpedia in the paper).
"""

from __future__ import annotations

from repro.metablocking.block_graph import BlockGraph
from repro.metablocking.weights import CommonBlocksScheme, WeightingScheme
from repro.progressive.base import BatchProgressiveSystem

__all__ = ["PPSSystem"]


class PPSSystem(BatchProgressiveSystem):
    """Progressive Profile Scheduling packaged as an ERSystem.

    Parameters
    ----------
    top_k:
        Comparisons emitted per profile during the per-profile phase.
    scope:
        ``"all"`` (static / PPS-GLOBAL) or ``"last"`` (PPS-LOCAL).
    """

    def __init__(
        self,
        clean_clean: bool = False,
        max_block_size: int | None = 200,
        scheme: WeightingScheme | None = None,
        top_k: int = 10,
        scope: str = "all",
        **kwargs,
    ) -> None:
        super().__init__(
            clean_clean=clean_clean, max_block_size=max_block_size, scope=scope, **kwargs
        )
        self.scheme = scheme or CommonBlocksScheme()
        self.top_k = top_k
        self._emission: list[tuple[int, int]] = []
        self._cursor = 0
        self.name = {"all": "PPS", "last": "PPS-LOCAL"}[scope]

    # ------------------------------------------------------------------
    def _estimate_init_cost(self) -> float:
        enumerations = self.collection.total_comparisons()
        return enumerations * (self.costs.per_edge_enumeration + self.costs.per_weight)

    def _initialize(self) -> float:
        graph = BlockGraph(self.collection, self.scheme)
        cost = graph.edge_enumerations * self.costs.per_edge_enumeration
        cost += len(graph.edges) * self.costs.per_weight

        # Rank profiles by duplication likelihood (descending).
        profiles = graph.profiles()
        profiles.sort(key=graph.duplication_likelihood, reverse=True)
        cost += len(profiles) * self.costs.per_enqueue

        emission: list[tuple[int, int]] = []
        seen: set[tuple[int, int]] = set()

        # Phase 1: the global comparison list — each profile's best edge.
        best_per_profile: list[tuple[float, tuple[int, int]]] = []
        for pid in profiles:
            neighbors = graph.neighbors(pid)
            if not neighbors:
                continue
            partner, weight = neighbors[0]
            pair = (min(pid, partner), max(pid, partner))
            best_per_profile.append((weight, pair))
        best_per_profile.sort(key=lambda item: -item[0])
        for _, pair in best_per_profile:
            if pair not in seen:
                seen.add(pair)
                emission.append(pair)

        # Phase 2: per-profile top-k comparisons in likelihood order.
        for pid in profiles:
            emitted_for_profile = 0
            for partner, _ in graph.neighbors(pid):
                if emitted_for_profile >= self.top_k:
                    break
                pair = (min(pid, partner), max(pid, partner))
                if pair in seen:
                    continue
                seen.add(pair)
                emission.append(pair)
                emitted_for_profile += 1
        cost += len(emission) * self.costs.per_enqueue

        self._emission = emission
        self._cursor = 0
        return cost

    def _next_pairs(self, n: int) -> tuple[list[tuple[int, int]], float]:
        end = min(self._cursor + n, len(self._emission))
        pairs = self._emission[self._cursor : end]
        self._cursor = end
        return pairs, len(pairs) * self.costs.per_enqueue
