"""Tests for WNP / I-WNP comparison cleaning."""

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


class TestIncrementalWNP:
    def test_prunes_below_average(self):
        collection = _collection()
        result = sweep_wnp(collection, 0, None)
        kept_partners = {c.other(0) for c in (w.comparison() for w in result.kept)}
        # weights: p1=3, p2=1, p3=2 → average 2 → keep p1, p3
        assert kept_partners == {1, 3}
        assert result.pruned == 1

    def test_weights_attached(self):
        collection = _collection()
        result = sweep_wnp(collection, 0, lambda pid: pid == 1)
        assert result.kept[0].weight == 3.0

    def test_empty_candidates(self):
        result = sweep_wnp(_collection(), 0, lambda pid: False)
        assert result.kept == ()
        assert result.weighting_cost_units == 0

    def test_self_candidate_ignored(self):
        result = sweep_wnp(_collection(), 0, lambda pid: pid == 0)
        assert result.kept == ()

    def test_duplicate_candidates_collapsed(self):
        """A partner met in three shared blocks is weighted — and charged — once."""
        collection = _collection()
        result = sweep_wnp(collection, 0, lambda pid: pid == 1)
        assert len(result.kept) == 1
        assert result.weighting_cost_units == 1

    def test_single_candidate_always_kept(self):
        """A single candidate equals the average and must survive."""
        result = sweep_wnp(_collection(), 0, lambda pid: pid == 2)
        assert len(result.kept) == 1

    def test_total_candidates_bookkeeping(self):
        result = sweep_wnp(_collection(), 0, None)
        assert result.total_candidates == 3


class TestBatchWNP:
    def test_gathers_all_coblock_partners(self):
        collection = _collection()
        result = sweep_wnp(collection, 0, lambda pid: True)
        assert result.total_candidates == 3

    def test_partner_filter(self):
        collection = _collection()
        result = sweep_wnp(collection, 0, lambda pid: pid != 1)
        partners = {w.comparison().other(0) for w in result.kept}
        assert 1 not in partners
