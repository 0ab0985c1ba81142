"""Single-sweep weighting kernel: fused candidate generation + weights.

Weighing candidates one ``scheme.weight()`` call at a time costs
``O(candidates × |B(p)|)`` Python-level set intersections per new profile:
CBS/ECBS/JS each re-intersect the two profiles' full block-key sets and
ARCS re-derives block cardinalities pair by pair.  Meta-blocking weights
over a token index are, however, computable in a single co-occurrence
counting sweep (cf. SPER,
arXiv:2512.23491, and the blocking survey, arXiv:1905.06167): one pass over
the new profile's blocks accumulates per-partner statistics in one dict —

* occurrence counts give **CBS** directly,
* ``+= 1/||b||`` per co-occurrence gives **ARCS**,
* the counts plus cached ``|B(p)|`` sizes give **ECBS** and **JS**.

That is ``O(Σ|b|)`` per profile, with the counting inner loop executed at C
speed (``Counter.update`` over the index's member lists).  Candidate
de-duplication falls out for free: each partner appears once in the
accumulator however many blocks it shares.

Paths that drain a block (the idle refill, I-PBS, PBS, the PPS block graph)
already know their pairs and need only the weights.  For them a sweep would
touch every member of every block of each left profile, however few pairs
were asked for; :func:`pair_weights` instead takes the CBS count of every
pair — the plain ``|B(x) ∩ B(y)|`` of the definition — from one
comprehension of ``AND`` + popcount over the substrate's block masks.

The sweep must agree float for float with the definition — ghost, gather,
de-duplicate, one ``scheme.weight()`` per candidate — which lives on as the
oracle ``tests/reference/per_pair_weighting.py``
(``tests/test_sweep_weights.py`` holds the two together):

* blocks are visited in sorted-key order (via
  :meth:`~repro.blocking.blocks.BlockCollection.iter_partner_blocks`), so
  the ARCS float accumulation adds the same terms in the same order as the
  sorted per-pair intersection;
* candidates are emitted in first-appearance order over the (ghosted)
  block list — the order an ordered de-duplication of the gathered
  partners gives;
* count-based weights come from the scheme's one count→weight method,
  :meth:`~repro.metablocking.weights.CountScheme.weights_from_counts`, which
  its ``weight()`` calls too, with every pair in the same ``(x, y)`` order.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain, repeat
from operator import attrgetter
from typing import Iterable, Sequence

from repro.blocking.blocks import Block, BlockCollection
from repro.metablocking.weights import ARCSScheme, CommonBlocksScheme, WeightingScheme

__all__ = ["pair_weights", "sweep_candidate_weights"]

#: C-level size fetch for the ghosting threshold scan (``len()`` would pay a
#: Python ``__len__`` dispatch per block).
_block_size = attrgetter("_size")


def _arcs_totals(
    blocks: Sequence[Block], clean_clean: bool, cross_only: bool, other: int
) -> dict[int, float]:
    """Accumulate ``Σ 1/||b||`` per partner over a profile's blocks.

    Blocks arrive in sorted-key order, so each partner's float sum adds its
    terms in exactly the order the (sorted) per-pair ARCS intersection does.
    """
    totals: dict[int, float] = {}
    for block in blocks:
        cardinality = block.comparison_count(clean_clean)
        if cardinality <= 0:
            continue
        inverse = 1.0 / cardinality
        if cross_only:
            members: Iterable[int] = block.members_by_source.get(other, ())
        else:
            members = block
        for partner in members:
            totals[partner] = totals.get(partner, 0.0) + inverse
    return totals


def _member_lists(
    blocks: Sequence[Block], cross_only: bool, other: int
) -> list[list[int]]:
    """The member lists the sweep statistics run over, one per block."""
    if cross_only:
        lists = []
        for block in blocks:
            members = block.members_by_source.get(other)
            if members:
                lists.append(members)
        return lists
    return [
        members for block in blocks for members in block.members_by_source.values()
    ]


def sweep_candidate_weights(
    collection: BlockCollection,
    pid: int,
    scheme: WeightingScheme | None = None,
    *,
    beta: float | None = None,
    source: int | None = None,
) -> tuple[list[int], list[float]]:
    """Candidates and weights of ``pid`` in one sweep, as parallel lists.

    Callers on the hot path (I-WNP) consume the two lists directly so the
    weight sum and pruning run over plain float lists at C speed.

    Parameters
    ----------
    collection:
        The live block collection (purged blocks are skipped).
    pid:
        The profile whose candidate comparisons are generated.  Every
        co-block partner is a candidate.
    scheme:
        Weighting scheme; ``None`` means CBS, as in the paper.
    beta:
        Block-ghosting parameter.  When given, candidates are gathered only
        from blocks no larger than ``|b_min| / beta`` (block ghosting,
        Gazzarri & Herschel, ICDE 2021), while weights are
        still computed against the *full* block evidence, as generating
        first and weighing afterwards would.  ``None`` disables ghosting.
    source:
        Optional source hint of ``pid`` on Clean-Clean collections; the
        sweep then reads only the other source's member lists, so it never
        meets a same-source partner.

    Candidates come back in first-appearance order over the (ghosted) sorted
    block list.
    """
    scheme = scheme or CommonBlocksScheme()
    blocks = collection.iter_partner_blocks(pid)
    if not blocks:
        return [], []

    if beta is None:
        ghosted: Sequence[Block] = blocks
    else:
        if not 0.0 < beta <= 1.0:
            raise ValueError(f"beta must be in (0, 1], got {beta}")
        threshold = min(map(_block_size, blocks)) / beta
        ghosted = [block for block in blocks if block._size <= threshold]

    # First-appearance de-duplication runs at C speed: one dict.fromkeys
    # over the chained member lists.
    cross_only = collection.clean_clean and source is not None
    other = 1 - source if cross_only else 0
    order = dict.fromkeys(
        chain.from_iterable(_member_lists(ghosted, cross_only, other))
    )
    order.pop(pid, None)
    candidates = list(order)
    if not candidates:
        return [], []

    if isinstance(scheme, ARCSScheme):
        totals = _arcs_totals(blocks, collection.clean_clean, cross_only, other)
        return candidates, [totals.get(partner, 0.0) for partner in candidates]
    counts: Counter = Counter()
    counts.update(chain.from_iterable(_member_lists(blocks, cross_only, other)))
    return candidates, scheme.weights_from_counts(
        collection, zip(repeat(pid), candidates), map(counts.__getitem__, candidates)
    )


def pair_weights(
    collection: BlockCollection,
    pairs: Sequence[tuple[int, int]],
    scheme: WeightingScheme | None = None,
) -> list[float]:
    """The weight of each pair of a drained block, in order.

    Count-based schemes read every ``|B(x) ∩ B(y)|`` from one
    :meth:`~repro.blocking.blocks.BlockCollection.common_block_counts` call
    and turn it into weights with their ``weights_from_counts``; ARCS weighs
    pair by pair with ``scheme.weight``.
    """
    scheme = scheme or CommonBlocksScheme()
    if isinstance(scheme, ARCSScheme):
        weight = scheme.weight
        return [weight(collection, left, right) for left, right in pairs]
    return scheme.weights_from_counts(
        collection, pairs, collection.common_block_counts(pairs)
    )
