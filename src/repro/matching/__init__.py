"""Match functions (JS / ED) with virtual-time cost accounting."""

from repro.matching.matcher import (
    CostModel,
    EditDistanceMatcher,
    JaccardMatcher,
    Matcher,
)
from repro.matching.similarity import (
    dice,
    jaccard,
    levenshtein,
    normalized_edit_similarity,
)

__all__ = [
    "CostModel",
    "EditDistanceMatcher",
    "JaccardMatcher",
    "Matcher",
    "dice",
    "jaccard",
    "levenshtein",
    "normalized_edit_similarity",
]
