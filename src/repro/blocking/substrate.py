"""The blocking-substrate contract: what every candidate index must expose.

Token blocking was the only substrate for the first seven growth steps, so
its concrete class (:class:`~repro.blocking.blocks.BlockCollection`) *was*
the interface: the sweep kernel, the weighting schemes, the strategies and
the checkpoint layer all called the same dozen methods without a name for
the contract.  This module gives it one.  Every system holds its substrate
as ``ERSystem.collection`` and indexes increments into it through
``ERSystem._index``.

:class:`BlockingSubstrate` is that de-facto interface, written down as a
runtime-checkable protocol.  Two substrates implement it:

``token``
    Classic token blocking (:class:`~repro.blocking.blocks.BlockCollection`)
    — one block per token, the paper's configuration.
``lsh``
    Incremental MinHash-LSH (:class:`~repro.blocking.lsh.LSHBlockCollection`)
    — banded signature buckets *are* the blocks, so candidate volume scales
    with the number of near-duplicates instead of the token vocabulary.

A substrate decides the candidates by the blocks it builds and nothing
else: every co-block pair is a candidate, and no consumer asks it about
individual pairs.

The protocol deliberately includes the purge/intern semantics
(``purged_keys`` / ``key_id``), the growth feed and the telemetry drain hook:
substrates ride through engine checkpoints via ``copy.deepcopy`` of the
collection itself, so *everything* a substrate accumulates — bucket tables,
signature caches, undrained grown keys and counter deltas — must live on the
collection object itself.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator, Protocol, runtime_checkable

from repro.blocking.blocks import Block, BlockCollection
from repro.core.profile import EntityProfile

__all__ = [
    "BLOCKING_SUBSTRATES",
    "BlockingConfig",
    "BlockingSubstrate",
    "make_collection",
]

#: The substrate names accepted by ``EngineOptions.blocking`` / ``--blocking``.
BLOCKING_SUBSTRATES = ("token", "lsh")


@dataclass(frozen=True, slots=True)
class BlockingConfig:
    """Substrate choice plus the MinHash-LSH shape parameters.

    ``lsh_bands`` × ``lsh_rows`` is the signature length; the banding
    threshold — the Jaccard similarity at which a pair has a ~50% chance of
    sharing a bucket — is approximately ``(1 / bands) ** (1 / rows)``.
    ``lsh_seed`` seeds the universal-hash permutations, so two collections
    built with the same config bucket identically on any host and hash seed.
    The LSH knobs are carried (and ignored) for the ``token`` substrate so
    one config value can describe every substrate.
    """

    substrate: str = "token"
    lsh_bands: int = 16
    lsh_rows: int = 2
    lsh_seed: int = 0

    def __post_init__(self) -> None:
        if self.substrate not in BLOCKING_SUBSTRATES:
            raise ValueError(
                f"substrate must be one of {BLOCKING_SUBSTRATES}, "
                f"got {self.substrate!r}"
            )
        if self.lsh_bands < 1:
            raise ValueError(f"lsh_bands must be >= 1, got {self.lsh_bands}")
        if self.lsh_rows < 1:
            raise ValueError(f"lsh_rows must be >= 1, got {self.lsh_rows}")

    @property
    def threshold(self) -> float:
        """Approximate Jaccard similarity at 50% bucket-collision probability."""
        return (1.0 / self.lsh_bands) ** (1.0 / self.lsh_rows)


@runtime_checkable
class BlockingSubstrate(Protocol):
    """What the metablocking layer requires from a candidate index.

    Semantics every implementation must honor:

    * **Add-only maintenance** — profiles are only ever added; re-adding an
      indexed pid raises (re-indexing would double-count comparisons).
    * **Purge-and-blacklist** — keys whose block grows past
      ``max_block_size`` are purged and never recreated; ``purged_keys``
      reports them, ``key_id`` keeps their dense id reserved.
    * **Growth is announced** — every addition to a live block records the
      block's key until ``drain_grown`` hands it out, once, to the feed's
      single consumer (the idle refill); a key purged by that addition is
      announced too.  With add-only maintenance this is the whole change
      log a consumer needs: a block it has seen can only differ by members
      appended since.
    * **Deterministic block order** — ``iter_partner_blocks`` returns the
      profile's live blocks sorted by key, so weighting and candidate
      generation are bit-identical across hosts, hash seeds, and
      checkpoint restores.
    * **Deep-copy snapshots** — all mutable state (including undrained
      telemetry) lives on the object, so ``copy.deepcopy`` is a complete
      snapshot.
    """

    clean_clean: bool
    max_block_size: int | None

    # -- incremental maintenance ---------------------------------------
    def add_profile(self, profile: EntityProfile) -> set[str]: ...

    # -- lookup ---------------------------------------------------------
    def __len__(self) -> int: ...
    def __iter__(self) -> Iterator[Block]: ...
    def __contains__(self, key: str) -> bool: ...
    def get(self, key: str) -> Block | None: ...
    def keys(self) -> Iterable[str]: ...
    def key_id(self, key: str) -> int | None: ...
    def blocks_of(self, pid: int) -> frozenset[str]: ...
    def block_count_of(self, pid: int) -> int: ...
    def iter_partner_blocks(self, pid: int) -> tuple[Block, ...]: ...
    def partner_counts(self, pid: int, source: int | None = None) -> Counter: ...
    def common_blocks(self, pid_x: int, pid_y: int) -> int: ...
    def common_block_counts(self, pairs: Iterable[tuple[int, int]]) -> list[int]: ...
    def profiles_indexed(self) -> int: ...
    def is_indexed(self, pid: int) -> bool: ...
    def total_comparisons(self) -> int: ...
    def purged_keys(self) -> frozenset[str]: ...

    # -- change feed ------------------------------------------------------
    def drain_grown(self) -> set[str]: ...

    # -- observability ---------------------------------------------------
    def drain_metrics(self) -> dict[str, float]: ...


def make_collection(
    config: BlockingConfig | None,
    *,
    clean_clean: bool = False,
    max_block_size: int | None = 200,
) -> BlockingSubstrate:
    """Build the collection a :class:`BlockingConfig` describes.

    ``None`` means the default token substrate — callers that never heard
    of LSH keep working unchanged.
    """
    if config is None or config.substrate == "token":
        return BlockCollection(clean_clean=clean_clean, max_block_size=max_block_size)
    from repro.blocking.lsh import LSHBlockCollection

    return LSHBlockCollection(
        clean_clean=clean_clean,
        max_block_size=max_block_size,
        bands=config.lsh_bands,
        rows=config.lsh_rows,
        seed=config.lsh_seed,
    )
