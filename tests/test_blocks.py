"""Tests for blocks and the incremental block collection."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blocking.blocks import Block, BlockCollection
from repro.core.profile import EntityProfile

from tests.conftest import make_profile


class TestBlock:
    def test_add_and_len(self):
        block = Block("tok")
        block.add(1, 0)
        block.add(2, 1)
        assert len(block) == 2
        assert set(block) == {1, 2}

    def test_members_by_source(self):
        block = Block("tok")
        block.add(1, 0)
        block.add(2, 1)
        block.add(3, 1)
        assert block.members(0) == (1,)
        assert block.members(1) == (2, 3)
        assert block.members(9) == ()

    def test_members_snapshot_cannot_corrupt_index(self):
        """members() hands out a copy; mutating it must not touch the block."""
        block = Block("tok")
        block.add(1, 0)
        block.add(2, 0)
        snapshot = block.members(0)
        assert isinstance(snapshot, tuple)  # immutable — no .append to misuse
        assert block.members(0) == (1, 2)
        assert len(block) == 2

    def test_comparison_count_cache_invalidated_on_add(self):
        block = Block("tok")
        block.add(1, 0)
        block.add(2, 0)
        assert block.comparison_count(clean_clean=False) == 1
        block.add(3, 0)
        assert block.comparison_count(clean_clean=False) == 3
        # switching the kind must not serve the stale cached value
        block_cc = Block("tok2")
        block_cc.add(1, 0)
        block_cc.add(2, 1)
        assert block_cc.comparison_count(clean_clean=False) == 1
        assert block_cc.comparison_count(clean_clean=True) == 1
        block_cc.add(3, 1)
        assert block_cc.comparison_count(clean_clean=True) == 2
        assert block_cc.comparison_count(clean_clean=False) == 3

    def test_comparison_count_dirty(self):
        block = Block("tok")
        for pid in range(4):
            block.add(pid, 0)
        assert block.comparison_count(clean_clean=False) == 6

    def test_comparison_count_clean_clean(self):
        block = Block("tok")
        block.add(1, 0)
        block.add(2, 0)
        block.add(3, 1)
        assert block.comparison_count(clean_clean=True) == 2

    def test_pairs_dirty(self):
        block = Block("tok")
        for pid in (1, 2, 3):
            block.add(pid, 0)
        assert set(block.pairs(False)) == {(1, 2), (1, 3), (2, 3)}

    def test_pairs_clean_clean_cross_source_only(self):
        block = Block("tok")
        block.add(1, 0)
        block.add(2, 0)
        block.add(3, 1)
        assert set(block.pairs(True)) == {(1, 3), (2, 3)}


class TestBlockCollection:
    def test_add_profile_indexes_tokens(self):
        collection = BlockCollection()
        collection.add_profile(make_profile(1, "alpha beta"))
        assert "alpha" in collection
        assert collection.blocks_of(1) == {"alpha", "beta"}

    def test_readd_rejected(self):
        collection = BlockCollection()
        collection.add_profile(make_profile(1, "alpha"))
        with pytest.raises(ValueError):
            collection.add_profile(make_profile(1, "alpha"))

    def test_common_blocks(self):
        collection = BlockCollection()
        collection.add_profile(make_profile(1, "alpha beta gamma"))
        collection.add_profile(make_profile(2, "beta gamma delta"))
        assert collection.common_blocks(1, 2) == 2
        assert collection.common_blocks(1, 99) == 0

    def test_purging_drops_oversized_blocks(self):
        collection = BlockCollection(max_block_size=3)
        for pid in range(5):
            collection.add_profile(make_profile(pid, "shared unique%d" % pid))
        assert "shared" not in collection
        assert all("shared" not in collection.blocks_of(pid) for pid in range(5))
        assert "shared" in collection.purged_keys()

    def test_purged_token_not_reindexed(self):
        collection = BlockCollection(max_block_size=2)
        for pid in range(4):
            collection.add_profile(make_profile(pid, "common extra%d" % pid))
        # after purge, new arrivals with the token must not recreate the block
        collection.add_profile(make_profile(10, "common fresh"))
        assert "common" not in collection
        assert collection.blocks_of(10) == {"fresh"}

    def test_max_block_size_validation(self):
        with pytest.raises(ValueError):
            BlockCollection(max_block_size=1)

    def test_total_comparisons_dirty_incremental(self):
        collection = BlockCollection(max_block_size=None)
        for pid in range(4):
            collection.add_profile(make_profile(pid, "shared"))
        assert collection.total_comparisons() == 6

    def test_total_comparisons_clean_clean(self):
        collection = BlockCollection(clean_clean=True, max_block_size=None)
        collection.add_profile(make_profile(0, "shared", source=0))
        collection.add_profile(make_profile(1, "shared", source=0))
        collection.add_profile(make_profile(2, "shared", source=1))
        assert collection.total_comparisons() == 2

    def test_total_comparisons_after_purge(self):
        collection = BlockCollection(max_block_size=2)
        for pid in range(4):
            collection.add_profile(make_profile(pid, "common only%d" % pid))
        # 'common' purged on 3rd insert; remaining blocks are singletons
        assert collection.total_comparisons() == 0

    def test_profiles_indexed(self):
        collection = BlockCollection()
        assert collection.profiles_indexed() == 0
        collection.add_profile(make_profile(1, "alpha"))
        assert collection.profiles_indexed() == 1
        assert collection.is_indexed(1)
        assert not collection.is_indexed(2)

    @given(st.lists(st.integers(min_value=0, max_value=6), min_size=0, max_size=30))
    @settings(max_examples=60)
    def test_total_comparisons_invariant(self, token_choices):
        """The incremental counter must always equal the from-scratch sum."""
        collection = BlockCollection(max_block_size=4)
        for pid, token_index in enumerate(token_choices):
            profile = EntityProfile(pid, {"v": f"tok{token_index} own{pid}"})
            collection.add_profile(profile)
        recomputed = sum(
            block.comparison_count(collection.clean_clean) for block in collection
        )
        assert collection.total_comparisons() == recomputed

    @given(
        st.lists(
            st.tuples(st.integers(min_value=0, max_value=4), st.booleans()),
            max_size=25,
        )
    )
    @settings(max_examples=60)
    def test_total_comparisons_invariant_clean_clean(self, entries):
        collection = BlockCollection(clean_clean=True, max_block_size=5)
        for pid, (token_index, source) in enumerate(entries):
            profile = EntityProfile(pid, {"v": f"tok{token_index}"}, source=int(source))
            collection.add_profile(profile)
        recomputed = sum(
            block.comparison_count(collection.clean_clean) for block in collection
        )
        assert collection.total_comparisons() == recomputed

    def test_block_count_of_matches_blocks_of(self):
        collection = BlockCollection(max_block_size=3)
        for pid in range(5):
            collection.add_profile(make_profile(pid, "shared own%d" % pid))
        for pid in range(5):
            assert collection.block_count_of(pid) == len(collection.blocks_of(pid))
        assert collection.block_count_of(99) == 0

    def test_iter_partner_blocks_skips_purged_and_sorted(self):
        collection = BlockCollection(max_block_size=3)
        for pid in range(5):
            collection.add_profile(make_profile(pid, "zzshared aaown%d" % pid))
        blocks = collection.iter_partner_blocks(0)
        assert [block.key for block in blocks] == ["aaown0"]  # purged 'zzshared' gone
        # cache refreshes after a purge triggered by later arrivals
        collection.add_profile(make_profile(10, "aaown0 fresh"))
        collection.add_profile(make_profile(11, "aaown0 other"))
        collection.add_profile(make_profile(12, "aaown0 more"))
        assert [block.key for block in collection.iter_partner_blocks(0)] == []

    def test_inverse_index_consistency(self):
        collection = BlockCollection(max_block_size=10)
        for pid in range(8):
            collection.add_profile(make_profile(pid, f"shared tok{pid % 3}"))
        for block in collection:
            for pid in block:
                assert block.key in collection.blocks_of(pid)


class TestBlocksOfImmutableView:
    """Regression: ``blocks_of`` used to hand out the live internal key set,
    which purges mutate in place — callers holding the return value saw it
    change under them (and could corrupt the index by mutating it back)."""

    def test_returns_frozenset(self):
        collection = BlockCollection()
        collection.add_profile(make_profile(1, "alpha beta"))
        view = collection.blocks_of(1)
        assert isinstance(view, frozenset)
        assert collection.blocks_of(99) == frozenset()

    def test_snapshot_survives_later_purge(self):
        collection = BlockCollection(max_block_size=3)
        collection.add_profile(make_profile(0, "shared own0"))
        snapshot = collection.blocks_of(0)
        assert snapshot == {"shared", "own0"}
        for pid in range(1, 5):  # 4th 'shared' member triggers the purge
            collection.add_profile(make_profile(pid, "shared own%d" % pid))
        assert "shared" in snapshot  # caller's snapshot is frozen in time
        assert "shared" not in collection.blocks_of(0)

    def test_view_cannot_mutate_index(self):
        collection = BlockCollection()
        collection.add_profile(make_profile(1, "alpha"))
        view = collection.blocks_of(1)
        with pytest.raises(AttributeError):
            view.add("rogue")
        assert collection.blocks_of(1) == {"alpha"}


class TestPurgeReAddInteraction:
    """``max_block_size`` purging against later/updated arrivals: purged keys
    are blacklisted forever, dense ids stay reserved, and the incremental
    comparison counter stays consistent through every interleaving."""

    def test_updated_profile_does_not_resurrect_purged_key(self):
        collection = BlockCollection(max_block_size=2)
        for pid in range(4):
            collection.add_profile(make_profile(pid, "hub extra%d" % pid))
        assert "hub" in collection.purged_keys()
        # An "updated" record arrives as a new pid carrying the purged token
        # plus fresh ones: the purged key must stay dead, fresh keys index.
        collection.add_profile(make_profile(10, "hub fresh other"))
        assert "hub" not in collection
        assert collection.blocks_of(10) == {"fresh", "other"}
        assert collection.block_count_of(10) == 2
        assert "hub" in collection.purged_keys()

    def test_readd_rejected_even_after_purge_emptied_blocks(self):
        collection = BlockCollection(max_block_size=2)
        for pid in range(4):
            collection.add_profile(make_profile(pid, "hub"))
        assert collection.blocks_of(0) == frozenset()  # all its blocks purged
        assert collection.is_indexed(0)
        with pytest.raises(ValueError):
            collection.add_profile(make_profile(0, "hub brand-new"))

    def test_comparison_counter_consistent_through_purge_and_readds(self):
        collection = BlockCollection(max_block_size=3)
        for pid in range(6):
            collection.add_profile(make_profile(pid, "hub tok%d" % (pid % 2)))
        collection.add_profile(make_profile(10, "hub tok0 tok1"))
        recomputed = sum(
            block.comparison_count(collection.clean_clean) for block in collection
        )
        assert collection.total_comparisons() == recomputed


_PURGE_HASHSEED_SCRIPT = """
from repro.blocking.blocks import BlockCollection
from repro.core.profile import EntityProfile

collection = BlockCollection(max_block_size=5)
# Skewed stream: a hot hub token that gets purged mid-stream, plus per-pid
# tokens, plus "updated" re-arrivals carrying purged tokens under new pids.
for pid in range(40):
    collection.add_profile(EntityProfile(pid, {"v": "hub tok%d own%d" % (pid % 7, pid)}))
for pid in range(100, 110):
    collection.add_profile(EntityProfile(pid, {"v": "hub tok0 fresh%d" % pid}))
print(sorted(collection.purged_keys()))
print(collection.total_comparisons())
for pid in sorted(list(range(40)) + list(range(100, 110))):
    print(pid, sorted(collection.blocks_of(pid)), collection.block_count_of(pid))
print(sorted(collection.keys()))
# NOTE: dense key *ids* are deliberately not probed — interning follows the
# (hash-seed dependent) token iteration order; every downstream consumer
# sorts blocks by key, never by id, so the emitted streams stay identical.
"""


class TestPurgeHashSeedStability:
    """Purge timing, blacklists, and dense ids must be independent of the
    interpreter hash seed (token iteration order varies per seed)."""

    @staticmethod
    def _purge_trace_under_seed(seed: str) -> str:
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = seed
        src_dir = str(Path(__file__).resolve().parent.parent / "src")
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = src_dir + (os.pathsep + existing if existing else "")
        proc = subprocess.run(
            [sys.executable, "-c", _PURGE_HASHSEED_SCRIPT],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        return proc.stdout

    def test_purge_trace_identical_across_hash_seeds(self):
        out_a = self._purge_trace_under_seed("0")
        out_b = self._purge_trace_under_seed("31337")
        assert out_a == out_b
        assert "hub" in out_a  # the hub block really was purged
        assert len(out_a.splitlines()) > 50
