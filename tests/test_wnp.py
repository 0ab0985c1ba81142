"""Tests for I-WNP comparison cleaning."""

from __future__ import annotations

from repro.blocking.blocks import BlockCollection
from repro.metablocking.wnp import sweep_wnp

from tests.conftest import make_profile


def _collection() -> BlockCollection:
    collection = BlockCollection(max_block_size=None)
    collection.add_profile(make_profile(0, "alpha beta gamma delta"))
    collection.add_profile(make_profile(1, "alpha beta gamma"))  # strong partner
    collection.add_profile(make_profile(2, "alpha"))             # weak partner
    collection.add_profile(make_profile(3, "alpha beta"))        # medium partner
    return collection


def _partners(result, pid: int) -> set[int]:
    return {right if left == pid else left for left, right, _ in result.kept}


class TestIncrementalWNP:
    def test_prunes_below_average(self):
        result = sweep_wnp(_collection(), 0)
        # weights: p1=3, p2=1, p3=2 → average 2 → keep p1, p3
        assert _partners(result, 0) == {1, 3}
        assert result.weighting_cost_units - len(result.kept) == 1

    def test_weights_attached(self):
        result = sweep_wnp(_collection(), 0)
        assert {(c.pair, c.weight) for c in result.kept} == {((0, 1), 3.0), ((0, 3), 2.0)}

    def test_empty_candidates(self):
        collection = _collection()
        collection.add_profile(make_profile(4, "omega"))  # shares no block
        result = sweep_wnp(collection, 4)
        assert result.kept == ()
        assert result.weighting_cost_units == 0

    def test_self_candidate_ignored(self):
        result = sweep_wnp(_collection(), 0)
        assert 0 not in _partners(result, 0)

    def test_duplicate_candidates_collapsed(self):
        """A partner met in three shared blocks is weighted — and charged — once."""
        collection = BlockCollection(max_block_size=None)
        collection.add_profile(make_profile(0, "alpha beta gamma delta"))
        collection.add_profile(make_profile(1, "alpha beta gamma"))
        result = sweep_wnp(collection, 0)
        assert len(result.kept) == 1
        assert result.weighting_cost_units == 1

    def test_single_candidate_always_kept(self):
        """A single candidate equals the average and must survive."""
        collection = BlockCollection(max_block_size=None)
        collection.add_profile(make_profile(0, "alpha beta gamma delta"))
        collection.add_profile(make_profile(2, "alpha"))
        result = sweep_wnp(collection, 0)
        assert len(result.kept) == 1

    def test_total_candidates_bookkeeping(self):
        """One weighting operation per distinct candidate, kept or pruned."""
        result = sweep_wnp(_collection(), 0)
        assert result.weighting_cost_units == 3


class TestBatchWNP:
    def test_gathers_all_coblock_partners(self):
        result = sweep_wnp(_collection(), 2)  # p2's one block holds everyone
        assert result.weighting_cost_units == 3

    def test_partner_filter(self):
        """On Clean-Clean collections the source hint is the partner filter:
        same-source co-block partners are never candidates."""
        collection = BlockCollection(clean_clean=True, max_block_size=None)
        collection.add_profile(make_profile(0, "alpha beta", source=0))
        collection.add_profile(make_profile(1, "alpha beta", source=0))
        collection.add_profile(make_profile(2, "alpha", source=1))
        result = sweep_wnp(collection, 0, source=0)
        assert _partners(result, 0) == {2}
        assert result.weighting_cost_units == 1
