"""Weighted Node Pruning, incremental (I-WNP).

WNP is a meta-blocking comparison-cleaning technique: for each profile
(node), it weighs all candidate comparisons incident to that node and keeps
only those whose weight is at least the node-local average.

**I-WNP** (Gazzarri & Herschel, ICDE 2021) is the incremental variant used
inside I-BASE, I-PCS and I-PES: it operates on the candidate list ``C_x`` of
one newly arrived profile at a time, using the *current* state of the block
collection to compute weights (an online approximation of the batch
weights).  :func:`sweep_wnp` takes candidates and weights from one pass
over the profile's (ghosted) block list (:mod:`repro.metablocking.sweep`);
each distinct candidate is weighted — and charged — exactly once.  The
oracle for it is the generate-then-weigh formulation in
``tests/reference/per_pair_weighting.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.blocking.blocks import BlockCollection
from repro.core.comparison import WeightedComparison
from repro.metablocking.sweep import sweep_candidate_weights
from repro.metablocking.weights import WeightingScheme

__all__ = ["WNPResult", "sweep_wnp"]


@dataclass(frozen=True, slots=True)
class WNPResult:
    """Outcome of I-WNP on one profile's candidate list: the kept
    comparisons, and one weighting operation per candidate."""

    kept: tuple[WeightedComparison, ...]
    weighting_cost_units: int


def sweep_wnp(
    collection: BlockCollection,
    pid_x: int,
    scheme: WeightingScheme | None = None,
    *,
    beta: float | None = None,
    source: int | None = None,
) -> WNPResult:
    """I-WNP: weigh the candidates of ``pid_x`` and prune below-average ones.

    Fuses candidate generation (with optional block ghosting ``beta``) and
    weighting into one pass over ``pid_x``'s block index (see
    :func:`~repro.metablocking.sweep.sweep_candidate_weights`), then keeps
    the comparisons whose weight is at least the average over the candidate
    list, in candidate order, each as a canonical pair.
    """
    candidates, weights = sweep_candidate_weights(
        collection, pid_x, scheme, beta=beta, source=source
    )
    if not weights:
        return WNPResult(kept=(), weighting_cost_units=0)
    average = sum(weights) / len(weights)
    comparison = WeightedComparison
    kept = tuple(
        [
            comparison(pid_x, pid_y, weight)
            if pid_x < pid_y
            else comparison(pid_y, pid_x, weight)
            for pid_y, weight in zip(candidates, weights)
            if weight >= average
        ]
    )
    return WNPResult(kept=kept, weighting_cost_units=len(weights))
