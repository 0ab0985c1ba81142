"""Tests for comparison candidates and canonical pairs."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.comparison import WeightedComparison, canonical_pair


class TestCanonicalPair:
    def test_orders_ascending(self):
        assert canonical_pair(5, 2) == (2, 5)
        assert canonical_pair(2, 5) == (2, 5)

    def test_self_pair_rejected(self):
        with pytest.raises(ValueError):
            canonical_pair(3, 3)

    @given(st.integers(min_value=0, max_value=10**9), st.integers(min_value=0, max_value=10**9))
    def test_symmetric(self, x, y):
        if x == y:
            return
        assert canonical_pair(x, y) == canonical_pair(y, x)
        left, right = canonical_pair(x, y)
        assert left < right


class TestWeightedComparison:
    def test_pair_view_and_weight(self):
        weighted = WeightedComparison(4, 9, 3.5)
        assert weighted.pair == (4, 9)
        assert weighted.weight == 3.5
