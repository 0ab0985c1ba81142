"""Tests for the meta-blocking block graph used by batch PPS."""

from __future__ import annotations

from repro.blocking.blocks import BlockCollection
from repro.metablocking.block_graph import BlockGraph

from tests.conftest import make_profile


def _collection() -> BlockCollection:
    collection = BlockCollection(max_block_size=None)
    collection.add_profile(make_profile(0, "alpha beta"))
    collection.add_profile(make_profile(1, "alpha beta"))
    collection.add_profile(make_profile(2, "alpha"))
    collection.add_profile(make_profile(3, "solo"))
    return collection


class TestBlockGraph:
    def test_edges_for_coblocked_pairs(self):
        graph = BlockGraph(_collection())
        assert set(graph.edges) == {(0, 1), (0, 2), (1, 2)}

    def test_edge_weights_are_cbs(self):
        graph = BlockGraph(_collection())
        assert graph.edges[(0, 1)] == 2.0
        assert graph.edges[(0, 2)] == 1.0

    def test_duplication_likelihood(self):
        graph = BlockGraph(_collection())
        # p0 edges: (0,1)=2, (0,2)=1 → avg 1.5 ; p2 edges: 1,1 → avg 1.0
        assert graph.duplication_likelihood(0) == 1.5
        assert graph.duplication_likelihood(2) == 1.0
        assert graph.duplication_likelihood(3) == 0.0

    def test_neighbors_sorted_by_weight(self):
        graph = BlockGraph(_collection())
        neighbors = graph.neighbors(0)
        assert neighbors[0] == (1, 2.0)

    def test_edge_enumeration_counter(self):
        graph = BlockGraph(_collection())
        # 'alpha' block of size 3 → 3 pairs, 'beta' block of size 2 → 1 pair
        assert graph.edge_enumerations == 4

    def test_isolated_profiles_absent(self):
        graph = BlockGraph(_collection())
        assert 3 not in graph.profiles()

    def test_len_counts_edges(self):
        assert len(BlockGraph(_collection())) == 3
