"""Strategy-selection heuristic (the paper's stated future work).

The paper concludes: *"Future work includes the integration of a heuristic
for determining the best appropriate method to use for the given data."*
Its evaluation gives the decision evidence:

* on **relational** data with short, uniform values (the census/Febrl
  dataset), the smallest blocks are highly informative and the
  block-centric **I-PBS** wins;
* on **heterogeneous** data with skewed value lengths (dbpedia, movies),
  CBS-driven orders are polluted by long profiles and tiny coincidental
  blocks, so the entity-centric **I-PES** is the robust choice.

:func:`choose_strategy` operationalizes this on a profile sample using two
cheap statistics: the coefficient of variation of profile text lengths
(length skew) and the attribute-name diversity (schema heterogeneity).
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from repro.core.profile import EntityProfile
from repro.pier.base import IncrPrioritization
from repro.pier.ipbs import IPBS
from repro.pier.ipes import IPES

__all__ = ["DataProfileStats", "profile_sample_stats", "choose_strategy", "make_chosen_strategy"]


class DataProfileStats:
    """Summary statistics of a profile sample used by the heuristic."""

    __slots__ = ("sample_size", "length_cv", "schema_diversity", "mean_tokens")

    def __init__(self, sample_size: int, length_cv: float, schema_diversity: float,
                 mean_tokens: float) -> None:
        self.sample_size = sample_size
        self.length_cv = length_cv
        self.schema_diversity = schema_diversity
        self.mean_tokens = mean_tokens

    def __repr__(self) -> str:
        return (
            f"DataProfileStats(n={self.sample_size}, length_cv={self.length_cv:.2f}, "
            f"schema_diversity={self.schema_diversity:.2f}, mean_tokens={self.mean_tokens:.1f})"
        )


def profile_sample_stats(profiles: Iterable[EntityProfile]) -> DataProfileStats:
    """Compute the heuristic's inputs from a profile sample."""
    lengths: list[int] = []
    attribute_names: set[str] = set()
    attribute_slots = 0
    token_counts: list[int] = []
    for profile in profiles:
        lengths.append(profile.text_length())
        token_counts.append(len(profile.tokens()))
        for attribute in profile.attributes:
            attribute_names.add(attribute.name)
            attribute_slots += 1
    n = len(lengths)
    if n == 0:
        return DataProfileStats(0, 0.0, 0.0, 0.0)
    mean_length = sum(lengths) / n
    if mean_length > 0:
        variance = sum((length - mean_length) ** 2 for length in lengths) / n
        length_cv = math.sqrt(variance) / mean_length
    else:
        length_cv = 0.0
    # Distinct attribute names per attribute slot: ~0 for one fixed schema
    # over a large sample, →1 for fully heterogeneous data.
    schema_diversity = len(attribute_names) / attribute_slots if attribute_slots else 0.0
    mean_tokens = sum(token_counts) / n
    return DataProfileStats(n, length_cv, schema_diversity, mean_tokens)


def choose_strategy(
    sample: Sequence[EntityProfile],
    length_cv_threshold: float = 0.45,
    mean_tokens_threshold: float = 14.0,
) -> str:
    """Pick ``"I-PBS"`` or ``"I-PES"`` for a data sample.

    Relational-looking data (uniform short values) → I-PBS; anything with
    pronounced length skew or verbose profiles → I-PES (the paper's default
    method of choice).
    """
    stats = profile_sample_stats(sample)
    looks_relational = (
        stats.length_cv <= length_cv_threshold
        and stats.mean_tokens <= mean_tokens_threshold
    )
    return "I-PBS" if looks_relational else "I-PES"


def make_chosen_strategy(sample: Sequence[EntityProfile], **kwargs) -> IncrPrioritization:
    """Instantiate the heuristic's pick."""
    if choose_strategy(sample) == "I-PBS":
        return IPBS(scheme=kwargs.get("scheme"))
    return IPES(**kwargs)
