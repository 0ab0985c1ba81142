"""Blocking substrates (token, MinHash-LSH)."""

from repro.blocking.blocks import Block, BlockCollection
from repro.blocking.lsh import LSHBlockCollection, MinHasher
from repro.blocking.substrate import (
    BLOCKING_SUBSTRATES,
    BlockingConfig,
    make_collection,
)

__all__ = [
    "BLOCKING_SUBSTRATES",
    "Block",
    "BlockCollection",
    "BlockingConfig",
    "LSHBlockCollection",
    "MinHasher",
    "make_collection",
]
