"""Generate-then-weigh I-WNP: candidate generation as the paper writes it.

Algorithm 2, lines 1-9, step by step: ghost the profile's blocks, gather the
co-block partners, collapse repeats (first appearance wins), weigh every
distinct candidate with one ``scheme.weight()`` call, keep what is at or
above the average.  The production single-sweep kernel
(:mod:`repro.metablocking.sweep`, :func:`repro.metablocking.wnp.sweep_wnp`)
must produce the same candidates in the same order with the same floats —
this module shares no code with it: ghosting is :func:`block_ghosting`
below, weights are the scheme's own per-pair definition.
"""

from __future__ import annotations

from typing import Sequence

from repro.blocking.blocks import Block, BlockCollection
from repro.core.comparison import WeightedComparison
from repro.core.profile import EntityProfile
from repro.metablocking.weights import CommonBlocksScheme, WeightingScheme

__all__ = [
    "ReferenceGenerator",
    "block_ghosting",
    "reference_candidate_weights",
    "reference_generate",
    "reference_pair_weights",
]


def block_ghosting(blocks: list[Block], beta: float) -> list[Block]:
    """Block ghosting (Gazzarri & Herschel, ICDE 2021) of a profile's blocks.

    Keeps every block no larger than ``|b_min| / beta``, where ``b_min`` is
    the smallest block in the list and ``beta`` is in ``(0, 1]``, in input
    order.  An empty input yields an empty list.
    """
    if not 0.0 < beta <= 1.0:
        raise ValueError(f"beta must be in (0, 1], got {beta}")
    if not blocks:
        return []
    threshold = min(len(block) for block in blocks) / beta
    return [block for block in blocks if len(block) <= threshold]


def reference_candidate_weights(
    collection: BlockCollection,
    profile: EntityProfile,
    scheme: WeightingScheme,
    beta: float,
) -> tuple[list[int], list[float]]:
    """The distinct candidates of ``profile`` in first-appearance order over
    its ghosted blocks, and one ``scheme.weight()`` per candidate.  On a
    Clean-Clean collection only the other source's members are partners."""
    blocks = block_ghosting(list(collection.iter_partner_blocks(profile.pid)), beta)
    gathered: list[int] = []
    for block in blocks:
        if collection.clean_clean:
            partners = block.members(1 - profile.source)
        else:
            partners = tuple(block)
        gathered.extend(pid for pid in partners if pid != profile.pid)
    candidates = list(dict.fromkeys(gathered))
    return candidates, [scheme.weight(collection, profile.pid, pid) for pid in candidates]


def reference_generate(
    collection: BlockCollection,
    profile: EntityProfile,
    scheme: WeightingScheme,
    beta: float,
) -> tuple[tuple[WeightedComparison, ...], int]:
    """The surviving weighted comparisons of ``profile`` and the number of
    weighting operations (one per distinct candidate)."""
    candidates, weights = reference_candidate_weights(collection, profile, scheme, beta)
    if not candidates:
        return (), 0
    average = sum(weights) / len(weights)
    kept = tuple(
        WeightedComparison(min(profile.pid, pid), max(profile.pid, pid), weight)
        for pid, weight in zip(candidates, weights)
        if weight >= average
    )
    return kept, len(weights)


def reference_pair_weights(
    collection: BlockCollection,
    pairs: Sequence[tuple[int, int]],
    scheme: WeightingScheme | None = None,
) -> list[float]:
    """One ``scheme.weight()`` call per pair, in order."""
    scheme = scheme or CommonBlocksScheme()
    return [scheme.weight(collection, left, right) for left, right in pairs]


class ReferenceGenerator:
    """:func:`reference_generate` in the shape of a strategy's ``generator``."""

    def __init__(self, beta: float, scheme: WeightingScheme) -> None:
        self.beta = beta
        self.scheme = scheme

    def generate(self, collection, profile):
        return reference_generate(collection, profile, self.scheme, self.beta)
