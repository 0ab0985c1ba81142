"""Blocking substrates (token, MinHash-LSH) and block cleaning."""

from repro.blocking.blocks import Block, BlockCollection
from repro.blocking.cleaning import block_filtering, block_ghosting
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
    "block_filtering",
    "block_ghosting",
    "make_collection",
]
