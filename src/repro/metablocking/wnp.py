"""Weighted Node Pruning — batch (WNP) and incremental (I-WNP).

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
from typing import Callable

from repro.blocking.substrate import BlockingSubstrate
from repro.core.comparison import WeightedComparison
from repro.metablocking.sweep import sweep_candidate_weights
from repro.metablocking.weights import WeightingScheme

__all__ = ["WNPResult", "sweep_wnp"]


@dataclass(frozen=True, slots=True)
class WNPResult:
    """Outcome of a (I-)WNP invocation on one profile's candidate list."""

    kept: tuple[WeightedComparison, ...]
    pruned: int
    weighting_cost_units: int

    @property
    def total_candidates(self) -> int:
        return len(self.kept) + self.pruned


def _prune_below_average(
    pid_x: int, candidates: list[int], weights: list[float]
) -> WNPResult:
    """The WNP pruning rule: keep comparisons at or above the local average."""
    if not weights:
        return WNPResult(kept=(), pruned=0, weighting_cost_units=0)
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
    return WNPResult(
        kept=kept,
        pruned=len(weights) - len(kept),
        weighting_cost_units=len(weights),
    )


def sweep_wnp(
    collection: BlockingSubstrate,
    pid_x: int,
    valid_partner: Callable[[int], bool] | None,
    scheme: WeightingScheme | None = None,
    *,
    beta: float | None = None,
    source: int | None = None,
) -> WNPResult:
    """I-WNP: weigh the candidates of ``pid_x`` and prune below-average ones.

    Fuses candidate generation (with optional block ghosting ``beta``) and
    weighting into one pass over ``pid_x``'s block index, then keeps the
    comparisons whose weight is at least the average over the candidate
    list.  ``valid_partner=None`` skips the per-candidate filter (see
    :func:`~repro.metablocking.sweep.sweep_candidate_weights`).
    """
    candidates, weights = sweep_candidate_weights(
        collection, pid_x, valid_partner, scheme, beta=beta, source=source
    )
    return _prune_below_average(pid_x, candidates, weights)
