"""Core data model: profiles, comparisons, datasets, increments."""

from repro.core.comparison import WeightedComparison, canonical_pair
from repro.core.dataset import Dataset, ERKind, GroundTruth
from repro.core.increments import (
    Increment,
    StreamPlan,
    make_bursty_stream_plan,
    make_poisson_stream_plan,
    make_stream_plan,
    split_into_increments,
)
from repro.core.profile import Attribute, EntityProfile
from repro.core.tokenizer import Tokenizer, default_tokenizer

__all__ = [
    "Attribute",
    "Dataset",
    "ERKind",
    "EntityProfile",
    "GroundTruth",
    "Increment",
    "StreamPlan",
    "Tokenizer",
    "WeightedComparison",
    "canonical_pair",
    "default_tokenizer",
    "make_bursty_stream_plan",
    "make_poisson_stream_plan",
    "make_stream_plan",
    "split_into_increments",
]
