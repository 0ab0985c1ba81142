"""Token blocking: the incrementally maintained block collection."""

from repro.blocking.blocks import Block, BlockCollection

__all__ = ["Block", "BlockCollection"]
