"""Meta-blocking weighting schemes.

Weighting schemes score a comparison ``c_{x,y}`` by how likely the two
profiles are to match, using only blocking evidence (no attribute access).
The paper uses **CBS** (Common Blocks Scheme) throughout because it is the
cheapest to maintain incrementally; the other classic schemes (ECBS, JS,
ARCS) are provided both for completeness and for the weighting-scheme
ablation benchmark.

Every scheme has one per-pair definition, :meth:`~WeightingScheme.weight`,
and the bulk paths (:mod:`repro.metablocking.sweep`) reproduce it float for
float.  The count-based schemes (CBS, ECBS, JS) derive a weight from the
co-occurrence count ``|B(p_x) ∩ B(p_y)|`` plus block-count sizes, so each
has exactly one count→weight method, :meth:`~CountScheme.weights_from_counts`,
which its ``weight``, the single sweep and ``pair_weights`` all call.  ARCS
sums ``1/||b||`` over the common blocks instead, so the sweep accumulates
those terms for it and ``pair_weights`` calls its ``weight``.
"""

from __future__ import annotations

import math
from typing import Iterable, Protocol

from repro.blocking.blocks import BlockCollection

__all__ = [
    "WeightingScheme",
    "CountScheme",
    "CommonBlocksScheme",
    "EnhancedCommonBlocksScheme",
    "JaccardScheme",
    "ARCSScheme",
    "make_scheme",
]


class WeightingScheme(Protocol):
    """Interface of all weighting schemes."""

    name: str

    def weight(self, collection: BlockCollection, pid_x: int, pid_y: int) -> float:
        """Match-likelihood weight of the comparison ``(pid_x, pid_y)``."""
        ...


class CountScheme:
    """A scheme whose weight is a function of the co-occurrence count."""

    def weights_from_counts(
        self,
        collection: BlockCollection,
        pairs: Iterable[tuple[int, int]],
        counts: Iterable[int],
    ) -> list[float]:
        """The weight of each ``(x, y)`` pair given ``|B(x) ∩ B(y)|``, in order."""
        raise NotImplementedError

    def weight(self, collection: BlockCollection, pid_x: int, pid_y: int) -> float:
        common = collection.common_blocks(pid_x, pid_y)
        return self.weights_from_counts(collection, ((pid_x, pid_y),), (common,))[0]


class CommonBlocksScheme(CountScheme):
    """CBS: ``w(c_{x,y}) = |B(p_x) ∩ B(p_y)|``.

    The fastest scheme; the paper's default.  Its known failure mode —
    over-weighting pairs of *long* profiles that share many tokens without
    matching — is what motivates the entity-centric I-PES strategy.
    """

    name = "CBS"

    def weights_from_counts(self, collection, pairs, counts) -> list[float]:
        return list(map(float, counts))


class EnhancedCommonBlocksScheme(CountScheme):
    """ECBS: CBS boosted by the rarity of each profile's blocks.

    ``w = CBS * log(|B| / |B(p_x)|) * log(|B| / |B(p_y)|)`` — profiles that
    appear in few blocks give more specific evidence.
    """

    name = "ECBS"

    def weights_from_counts(self, collection, pairs, counts) -> list[float]:
        total_blocks = max(len(collection), 1)
        block_count_of = collection.block_count_of
        log1p = math.log1p
        return [
            common
            * log1p(total_blocks / (block_count_of(pid_x) or 1))
            * log1p(total_blocks / (block_count_of(pid_y) or 1))
            if common
            else 0.0
            for (pid_x, pid_y), common in zip(pairs, counts)
        ]


class JaccardScheme(CountScheme):
    """JS scheme: Jaccard coefficient of the two profiles' block sets."""

    name = "JS-scheme"

    def weights_from_counts(self, collection, pairs, counts) -> list[float]:
        block_count_of = collection.block_count_of
        weights = []
        for (pid_x, pid_y), common in zip(pairs, counts):
            if common == 0:
                weights.append(0.0)
                continue
            union = block_count_of(pid_x) + block_count_of(pid_y) - common
            weights.append(common / union if union else 0.0)
        return weights


class ARCSScheme:
    """ARCS: sum over common blocks of ``1 / ||b||``.

    Small blocks contribute more — comparisons supported by rare tokens are
    more reliable evidence than those supported by frequent ones.  The
    common blocks are summed in sorted-key order so the floating-point
    accumulation is independent of set-iteration order (PYTHONHASHSEED) and
    bit-identical to the sweep path, which visits a profile's blocks in the
    same sorted order.
    """

    name = "ARCS"

    def weight(self, collection: BlockCollection, pid_x: int, pid_y: int) -> float:
        keys_x = collection.blocks_of(pid_x)
        keys_y = collection.blocks_of(pid_y)
        if not keys_x or not keys_y:
            return 0.0
        if len(keys_x) > len(keys_y):
            keys_x, keys_y = keys_y, keys_x
        clean_clean = collection.clean_clean
        total = 0.0
        for key in sorted(keys_x):
            if key in keys_y:
                block = collection.get(key)
                if block is None:
                    continue
                cardinality = block.comparison_count(clean_clean)
                if cardinality > 0:
                    total += 1.0 / cardinality
        return total


_SCHEMES = {
    "cbs": CommonBlocksScheme,
    "ecbs": EnhancedCommonBlocksScheme,
    "js": JaccardScheme,
    "arcs": ARCSScheme,
}


def make_scheme(name: str) -> WeightingScheme:
    """Instantiate a weighting scheme by (case-insensitive) name."""
    try:
        return _SCHEMES[name.lower()]()
    except KeyError:
        raise ValueError(
            f"unknown weighting scheme {name!r}; choose from {sorted(_SCHEMES)}"
        ) from None
