"""Meta-blocking: weighting schemes, (I-)WNP comparison cleaning, block graph."""

from repro.metablocking.block_graph import BlockGraph
from repro.metablocking.sweep import sweep_candidate_weights
from repro.metablocking.weights import (
    ARCSScheme,
    CommonBlocksScheme,
    EnhancedCommonBlocksScheme,
    JaccardScheme,
    WeightingScheme,
    make_scheme,
)
from repro.metablocking.wnp import WNPResult, sweep_wnp

__all__ = [
    "ARCSScheme",
    "BlockGraph",
    "CommonBlocksScheme",
    "EnhancedCommonBlocksScheme",
    "JaccardScheme",
    "WNPResult",
    "WeightingScheme",
    "make_scheme",
    "sweep_candidate_weights",
    "sweep_wnp",
]
