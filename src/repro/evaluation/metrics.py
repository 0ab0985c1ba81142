"""Blocking/ER quality metrics beyond the progress curves.

PC (pair completeness) is the paper's headline metric and lives on the
recorder; this module adds the companion metrics used throughout the
blocking literature, handy for sanity checks and for the examples.
"""

from __future__ import annotations

from typing import Iterable

from repro.blocking.blocks import BlockCollection
from repro.core.comparison import canonical_pair
from repro.core.dataset import GroundTruth

__all__ = [
    "pair_completeness",
    "pairs_quality",
    "reduction_ratio",
    "f_measure",
    "blocking_pair_completeness",
]


def pair_completeness(found: Iterable[tuple[int, int]], truth: GroundTruth) -> float:
    """PC = |found ∩ truth| / |truth|."""
    return truth.pair_completeness(found)


def pairs_quality(found: Iterable[tuple[int, int]], truth: GroundTruth) -> float:
    """PQ (a.k.a. precision of the candidate set) = |found ∩ truth| / |found|."""
    total = 0
    hits = 0
    for pair in found:
        total += 1
        if canonical_pair(*pair) in truth:
            hits += 1
    return hits / total if total else 0.0


def reduction_ratio(candidates: int, total_possible: int) -> float:
    """RR = 1 - candidates / total_possible (clamped to [0, 1])."""
    if total_possible <= 0:
        return 0.0
    return max(0.0, min(1.0, 1.0 - candidates / total_possible))


def f_measure(pc: float, pq: float) -> float:
    """Harmonic mean of PC and PQ."""
    if pc + pq == 0.0:
        return 0.0
    return 2.0 * pc * pq / (pc + pq)


def blocking_pair_completeness(collection: BlockCollection, truth: GroundTruth) -> float:
    """Upper bound on achievable PC: fraction of true matches co-occurring in
    at least one live block of the collection.

    Every downstream prioritization strategy can at best emit the pairs that
    blocking kept together, so this is the ceiling of all PC curves.
    """
    if not len(truth):
        return 1.0
    hits = sum(1 for pid_x, pid_y in truth if collection.common_blocks(pid_x, pid_y) > 0)
    return hits / len(truth)
