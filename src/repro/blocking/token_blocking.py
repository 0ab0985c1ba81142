"""Incremental blocking — the Incremental Blocking framework component.

This component receives data increments, indexes their profiles into the
shared blocking substrate, and charges virtual time for the work done
(tokenization + per-key index updates).  It mirrors the "Incremental
Blocking" box of the paper's Figure 3: it outputs the maintained block
collection together with the increment that was just indexed, and it can
emit *empty* increments to trigger downstream prioritization when no new
data is available.

The substrate defaults to token blocking (the class predates the substrate
protocol, hence its name); a :class:`~repro.blocking.substrate.BlockingConfig`
swaps in the MinHash-LSH tier without touching any consumer — everything downstream reads the collection through the
:class:`~repro.blocking.substrate.BlockingSubstrate` protocol.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

from repro.blocking.substrate import BlockingConfig, BlockingSubstrate, make_collection
from repro.core.increments import Increment
from repro.core.profile import EntityProfile

__all__ = ["BlockingCosts", "IncrementalTokenBlocking"]


@dataclass(frozen=True, slots=True)
class BlockingCosts:
    """Virtual cost parameters of the blocking step.

    ``per_profile`` covers reading/scrubbing/tokenizing one profile;
    ``per_token`` covers one inverted-index update.
    """

    per_profile: float = 5e-5
    per_token: float = 2e-6


class IncrementalTokenBlocking:
    """Maintains a blocking substrate across increments, with cost accounting.

    ``blocking`` selects the substrate (token / lsh);
    ``None`` keeps the historic token-blocking default.
    """

    def __init__(
        self,
        clean_clean: bool = False,
        max_block_size: int | None = 200,
        costs: BlockingCosts | None = None,
        blocking: BlockingConfig | None = None,
    ) -> None:
        self.collection: BlockingSubstrate = make_collection(
            blocking, clean_clean=clean_clean, max_block_size=max_block_size
        )
        self.costs = costs or BlockingCosts()
        self.profiles_processed = 0
        self.total_cost = 0.0
        self._profiles: dict[int, EntityProfile] = {}

    def process_increment(self, increment: Increment) -> float:
        """Index all profiles of an increment; return the virtual cost."""
        cost = 0.0
        for profile in increment:
            cost += self.process_profile(profile)
        return cost

    def process_profile(self, profile: EntityProfile) -> float:
        """Index one profile; return the virtual cost charged."""
        self.collection.add_profile(profile)
        self._profiles[profile.pid] = profile
        self.profiles_processed += 1
        cost = self.costs.per_profile + self.costs.per_token * len(profile.tokens())
        self.total_cost += cost
        return cost

    # ------------------------------------------------------------------
    # Profile store (the pipeline needs profiles back by pid when matching)
    # ------------------------------------------------------------------
    @property
    def profiles(self) -> Mapping[int, EntityProfile]:
        """Read-only pid → profile view of every profile indexed so far."""
        return MappingProxyType(self._profiles)
