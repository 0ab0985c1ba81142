"""A compatibility shim for the performance ledger's front-end replay.

Its only caller is ``benchmarks/ledger/replay.py``, which builds its
collection through :func:`make_collection` and blanks its ``blocking.*`` /
``metablocking.*`` rows when the import fails.  It is removed when the
ledger becomes a reader of the product's own spans (ROADMAP item 2).
"""

from __future__ import annotations

from repro.blocking.blocks import BlockCollection

__all__ = ["make_collection"]


def make_collection(
    config: None = None, *, clean_clean: bool = False, max_block_size: int | None = 200
) -> BlockCollection:
    """A token-blocking :class:`BlockCollection`; ``config`` must be ``None``."""
    return BlockCollection(clean_clean, max_block_size)
