"""Is any work left?  Answered by scanning, for tests only.

A run never scans for work.  The engines ask ``system.has_work()``, which
each system answers from its own queue or cursor, and learn that a PIER
strategy has run dry from an idle refill that yields nothing.  These probes
answer the same question the slow way: they walk the whole block
collection, or read a batch baseline's emission order to its end on a
copy, and read neither the refill's heap nor the substrate's growth feed.
"""

from __future__ import annotations

import copy

from repro.incremental.ibase import IBaseSystem
from repro.pier.base import PierSystem
from repro.progressive.base import BatchProgressiveSystem


def refill_exhausted(refill, collection) -> bool:
    """Whether no block is eligible for ``refill`` (a ``GetComparisons``):
    every block of two or more members was drained at its current size."""
    cursor = refill.snapshot_state()["cursor"]
    return not any(
        len(block) >= 2 and len(block) > sum(cursor.get(block.key, ()))
        for block in collection
    )


def strategy_exhausted(strategy, system: PierSystem) -> bool:
    """No comparison queued and no refill possible.

    Block-centric strategies (I-PBS) refill from their cardinality index,
    the others from a ``GetComparisons``.
    """
    if len(strategy):
        return False
    collection = system.collection
    if hasattr(strategy, "cardinality_index"):
        return not any(
            count > 0 and collection.get(key) is not None
            for key, count in strategy.cardinality_index.items()
        )
    return refill_exhausted(strategy.refill, collection)


def nothing_left(system) -> bool:
    """Whether ``system`` has nothing left to emit.

    A PIER system: its strategy is exhausted.  I-BASE: its FIFO is empty.
    A batch baseline: it owes no initialization, and its emission order,
    read to the end on a copy, holds no pair it has not executed.
    """
    if isinstance(system, PierSystem):
        return strategy_exhausted(system.strategy, system)
    if isinstance(system, IBaseSystem):
        return system.backlog == 0
    assert isinstance(system, BatchProgressiveSystem), system
    if system._dirty:
        return False
    reader = copy.deepcopy(system)
    executed = system.store.executed
    while True:
        pairs, _cost = reader._next_pairs(reader.chunk_size)
        if not pairs:
            return True
        if not executed.issuperset(pairs):
            return False
