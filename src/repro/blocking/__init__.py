"""Blocking substrates (token, MinHash-LSH)."""

from repro.blocking.blocks import Block, BlockCollection
from repro.blocking.lsh import LSHBlockCollection, MinHasher
from repro.blocking.substrate import (
    BLOCKING_SUBSTRATES,
    BlockingConfig,
    BlockingSubstrate,
    make_collection,
)
from repro.blocking.token_blocking import BlockingCosts, IncrementalTokenBlocking

__all__ = [
    "BLOCKING_SUBSTRATES",
    "Block",
    "BlockCollection",
    "BlockingConfig",
    "BlockingCosts",
    "BlockingSubstrate",
    "IncrementalTokenBlocking",
    "LSHBlockCollection",
    "MinHasher",
    "make_collection",
]
