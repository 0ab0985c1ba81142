"""Tests for block ghosting, as the generate-then-weigh oracle applies it.

Production ghosting runs inside the sweep
(:func:`repro.metablocking.sweep.sweep_candidate_weights`), which the oracle
is checked against in ``tests/test_sweep_weights.py``.
"""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.blocking.blocks import Block

from tests.reference.per_pair_weighting import block_ghosting


def _block(key: str, size: int) -> Block:
    block = Block(key)
    for pid in range(size):
        block.add(pid, 0)
    return block


class TestBlockGhosting:
    def test_keeps_blocks_up_to_threshold(self):
        blocks = [_block("a", 2), _block("b", 4), _block("c", 10)]
        kept = block_ghosting(blocks, beta=0.5)  # threshold = 2 / 0.5 = 4
        assert [b.key for b in kept] == ["a", "b"]

    def test_beta_one_keeps_only_smallest_size(self):
        blocks = [_block("a", 2), _block("b", 2), _block("c", 3)]
        kept = block_ghosting(blocks, beta=1.0)
        assert [b.key for b in kept] == ["a", "b"]

    def test_small_beta_keeps_everything(self):
        blocks = [_block("a", 2), _block("b", 200)]
        assert len(block_ghosting(blocks, beta=0.01)) == 2

    def test_empty_input(self):
        assert block_ghosting([], beta=0.5) == []

    def test_invalid_beta(self):
        for beta in (0.0, -1.0, 1.5):
            with pytest.raises(ValueError):
                block_ghosting([_block("a", 2)], beta=beta)

    def test_preserves_order(self):
        blocks = [_block("b", 3), _block("a", 2), _block("c", 3)]
        kept = block_ghosting(blocks, beta=0.5)
        assert [b.key for b in kept] == ["b", "a", "c"]

    @given(
        st.lists(st.integers(min_value=1, max_value=50), min_size=1, max_size=12),
        st.floats(min_value=0.05, max_value=1.0),
    )
    def test_smallest_block_always_survives(self, sizes, beta):
        blocks = [_block(f"k{i}", size) for i, size in enumerate(sizes)]
        kept = block_ghosting(blocks, beta=beta)
        assert kept
        assert min(len(b) for b in kept) == min(sizes)

