"""The emission round as it was: one ``dequeue`` call per comparison.

``PierSystem.emit`` asks its strategy for a whole round at once
(``IncrPrioritization.dequeue_batch``).  Before that it called the
strategy's own ``dequeue`` until ``count`` comparisons not executed yet were
claimed or the index ran dry, stepping over the stale ones.
:func:`per_pair_round` is that loop, and the ``*_dequeue`` functions are the
per-comparison ``dequeue`` each production strategy had, working on its
state as it is.  The reference strategies (which keep a ``dequeue`` of
their own) emit through :func:`per_pair_round`, and the batch methods are
held to it.
"""

from __future__ import annotations

from heapq import heappop
from typing import Callable, TypeVar

T = TypeVar("T")


def per_pair_round(
    dequeue: Callable[[], T | None], count: int, executed: set[T]
) -> tuple[list[T], list[T]]:
    """Up to ``count`` fresh items claimed into ``executed``, and the stale
    ones met on the way, each in dequeue order."""
    batch: list[T] = []
    stale: list[T] = []
    while len(batch) < count:
        item = dequeue()
        if item is None:
            break
        if item in executed:
            stale.append(item)
            continue
        executed.add(item)
        batch.append(item)
    return batch, stale


def ipcs_dequeue(strategy) -> tuple[int, int] | None:
    """I-PCS: the top of the global queue."""
    if not strategy.index:
        return None
    return strategy.index.dequeue()


def ipbs_dequeue(strategy) -> tuple[int, int] | None:
    """I-PBS: the next pair of the front run, no longer counted as queued."""
    if not strategy.runs:
        return None
    size, pairs = strategy.runs.popleft()
    if len(pairs) > 1:
        strategy.runs.appendleft((size, pairs[1:]))
    pair = pairs[0]
    strategy.queued.discard(pair)
    return pair


def ipes_dequeue(strategy) -> tuple[int, int] | None:
    """I-PES: the best comparison of the best entity; ``PQ`` once the entity
    structures are exhausted."""
    entity_queue = strategy.entity_queue
    entity_pq = strategy.entity_pq
    while True:
        if not entity_queue:
            strategy._refill_entity_queue()
            if not entity_queue:
                break
        entity = heappop(entity_queue)[2]
        queue = entity_pq.get(entity)
        if not queue:
            continue  # stale EntityQueue entry
        pair = heappop(queue)[2]
        strategy._entity_items -= 1
        if not queue:
            del entity_pq[entity]
            strategy._entity_totals.pop(entity, None)
        return pair
    if strategy.overflow:
        return strategy.overflow.dequeue()
    return None
