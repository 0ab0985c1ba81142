"""The idle fill as one offer per block: the oracle of the batched fill.

``IncrPrioritization.on_empty_increment`` drains blocks smallest first and
offers all of them in one call, counting its ``strategy.*`` metrics once
per fill; the weights come from AND + popcount over the collection's bit
masks.  This is the fill as it was before: one :meth:`offer` and one round
of ``strategy.*`` counts per drained block, the stop rule read off
``len(strategy)`` after every block, and CBS-style weights from plain
key-set intersections, the key sets read off the blocks' member lists
(not off the masks).  The batched fill must return the same cost, leave
the same index and counters, and emit the same pairs.
"""

from __future__ import annotations

from repro.blocking.blocks import BlockCollection
from repro.metablocking.weights import CountScheme
from repro.pier.ipcs import IPCS
from repro.pier.ipes import IPES

__all__ = ["PerBlockIPCS", "PerBlockIPES", "key_sets", "per_block_fill"]


def key_sets(collection: BlockCollection) -> dict[int, set[str]]:
    """pid → the keys of the live blocks that list it as a member."""
    keys: dict[int, set[str]] = {}
    for block in collection:
        for pid in block:
            keys.setdefault(pid, set()).add(block.key)
    return keys


def per_block_fill(strategy, system, target: int = 1, until: float | None = None) -> float:
    """``on_empty_increment`` with one offer per drained block."""
    scheme = strategy.refill.scheme
    assert isinstance(scheme, CountScheme), "key-set weights cover count schemes"
    metrics = system.metrics
    costs = system.costs
    per_enqueue = costs.per_enqueue
    cost = costs.per_round
    offered: set[tuple[int, int]] = set()
    keys = key_sets(system.collection)  # a fill adds no profile
    none: set[str] = set()
    while len(strategy) < target and (until is None or cost < until or not len(strategy)):
        result = strategy.refill.next_batch(system.collection, system.store.executed, offered)
        if result is None:
            break
        pairs, _ = result
        counts = [len(keys.get(x, none) & keys.get(y, none)) for x, y in pairs]
        weights = scheme.weights_from_counts(system.collection, pairs, counts)
        metrics.count("strategy.refill_batches")
        metrics.count("strategy.refill_pairs_scanned", strategy.refill.last_scanned)
        metrics.count("strategy.weighting_ops", len(pairs))
        cost += len(pairs) * costs.per_weight
        for _ in pairs:
            cost += per_enqueue
        for name, amount in strategy.offer(pairs, weights).items():
            if amount:
                metrics.count(f"strategy.{name}", amount)
    return cost


class PerBlockIPCS(IPCS):
    """I-PCS whose fills offer block by block."""

    on_empty_increment = per_block_fill


class PerBlockIPES(IPES):
    """I-PES whose fills offer block by block."""

    on_empty_increment = per_block_fill
