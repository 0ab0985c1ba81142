"""Choosing the blocking substrate: token blocking or MinHash-LSH.

Every system holds its substrate as ``ERSystem.collection`` — a
:class:`~repro.blocking.blocks.BlockCollection` — and indexes increments
into it through ``ERSystem._index``.  Two substrates exist:

``token``
    Classic token blocking (:class:`~repro.blocking.blocks.BlockCollection`)
    — one block per token, the paper's configuration.
``lsh``
    Incremental MinHash-LSH (:class:`~repro.blocking.lsh.LSHBlockCollection`,
    a subclass) — banded signature buckets *are* the blocks, so candidate
    volume scales with the number of near-duplicates instead of the token
    vocabulary.

A substrate decides the candidates by the blocks it builds and nothing
else: every co-block pair is a candidate, and no consumer asks it about
individual pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.blocking.blocks import BlockCollection

__all__ = [
    "BLOCKING_SUBSTRATES",
    "BlockingConfig",
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


def make_collection(
    config: BlockingConfig | None,
    *,
    clean_clean: bool = False,
    max_block_size: int | None = 200,
) -> BlockCollection:
    """Build the collection a :class:`BlockingConfig` describes.

    ``None`` means the default token substrate — callers that never heard
    of LSH keep working unchanged.  Any name but ``"token"`` and ``"lsh"``
    raises ``ValueError``.
    """
    if config is None or config.substrate == "token":
        return BlockCollection(clean_clean=clean_clean, max_block_size=max_block_size)
    if config.substrate != "lsh":
        raise ValueError(f"unknown substrate {config.substrate!r}")
    from repro.blocking.lsh import LSHBlockCollection

    return LSHBlockCollection(
        clean_clean=clean_clean,
        max_block_size=max_block_size,
        bands=config.lsh_bands,
        rows=config.lsh_rows,
        seed=config.lsh_seed,
    )
