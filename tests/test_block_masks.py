"""The block collection's bit-mask membership against a dict-of-sets model.

``BlockCollection`` keeps one int per profile whose set bits are its live
blocks.  Every membership read — ``blocks_of``, ``block_count_of``,
``iter_partner_blocks``, ``common_blocks``, ``common_block_counts``,
``is_indexed``, ``profiles_indexed`` — must read what a plain model of
pid → key set reads, through purges (small ``max_block_size``) and across a
pickle or ``deepcopy`` round trip taken in the middle of the sequence, with
profiles added afterwards.  A purged block's bit is reused by the next
new block, and unpickling refuses a mask bit that names no live block.
"""

from __future__ import annotations

import copy
import pickle
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blocking.blocks import BlockCollection

from tests.conftest import make_profile

VOCABULARY = ("ash", "birch", "cedar", "dogwood", "elm", "fir", "gum")


class _Model:
    """Token blocking with purging over plain sets."""

    def __init__(self, clean_clean: bool, max_block_size: int) -> None:
        self.clean_clean = clean_clean
        self.max_block_size = max_block_size
        self.members: dict[str, list[int]] = {}
        self.purged: set[str] = set()
        self.keys_of: dict[int, set[str]] = {}

    def add(self, pid: int, tokens: list[str]) -> None:
        keys = self.keys_of[pid] = set()
        for token in sorted(tokens):
            if token in self.purged:
                continue
            members = self.members.setdefault(token, [])
            members.append(pid)
            if len(members) > self.max_block_size:
                self.purged.add(token)
                for member in self.members.pop(token):
                    self.keys_of[member].discard(token)
            else:
                keys.add(token)


def _assert_reads_like(collection: BlockCollection, model: _Model) -> None:
    pids = sorted(model.keys_of)
    assert collection.profiles_indexed() == len(pids)
    assert not collection.is_indexed(-1)
    assert collection.blocks_of(-1) == frozenset() and collection.block_count_of(-1) == 0
    for pid in pids:
        keys = model.keys_of[pid]
        assert collection.is_indexed(pid)
        assert collection.blocks_of(pid) == keys
        assert collection.block_count_of(pid) == len(keys)
        blocks = collection.iter_partner_blocks(pid)
        assert [block.key for block in blocks] == sorted(keys)
        assert all(collection.get(block.key) is block for block in blocks)
    pairs = list(combinations(pids + [-1], 2))
    expected = [len(model.keys_of.get(x, set()) & model.keys_of.get(y, set())) for x, y in pairs]
    assert [collection.common_blocks(x, y) for x, y in pairs] == expected
    assert collection.common_block_counts(pairs) == expected
    assert set(collection.keys()) == set(model.members)
    assert collection.purged_keys() == model.purged


_profile = st.tuples(
    st.lists(st.sampled_from(VOCABULARY), min_size=1, max_size=4, unique=True),
    st.integers(0, 1),
)


@given(
    profiles=st.lists(_profile, min_size=1, max_size=24),
    clean_clean=st.booleans(),
    max_block_size=st.integers(2, 4),
    cut=st.integers(0, 24),
    round_trip=st.sampled_from(["pickle", "deepcopy"]),
)
@settings(max_examples=150, deadline=None)
def test_masks_read_like_key_sets(profiles, clean_clean, max_block_size, cut, round_trip):
    collection = BlockCollection(clean_clean=clean_clean, max_block_size=max_block_size)
    model = _Model(clean_clean, max_block_size)
    for pid, (tokens, source) in enumerate(profiles):
        if pid == cut:
            before = collection
            if round_trip == "pickle":
                collection = pickle.loads(pickle.dumps(collection, pickle.HIGHEST_PROTOCOL))
            else:
                collection = copy.deepcopy(collection)
                frozen = copy.deepcopy(model)
        collection.add_profile(make_profile(pid, " ".join(tokens), source=source))
        model.add(pid, tokens)
        _assert_reads_like(collection, model)
    if round_trip == "deepcopy" and cut < len(profiles):
        _assert_reads_like(before, frozen)  # adds to the copy left it alone


@given(profiles=st.lists(_profile, min_size=1, max_size=24), max_block_size=st.integers(2, 4))
@settings(max_examples=100, deadline=None)
def test_masks_are_as_wide_as_the_blocks_live_at_once(profiles, max_block_size):
    """A purge frees its block's bit for the next new block: the bits in
    use never outnumber the blocks that were live at one time, which during
    one ``add_profile`` is at most those live before it plus its tokens."""
    collection = BlockCollection(max_block_size=max_block_size)
    bound = 0
    for pid, (tokens, source) in enumerate(profiles):
        bound = max(bound, len(collection) + len(tokens))
        collection.add_profile(make_profile(pid, " ".join(tokens), source=source))
        assert len(collection._keys) <= bound


def test_a_stream_of_new_keys_reuses_purged_bits():
    collection = BlockCollection(max_block_size=2)
    for pid in range(301):
        # Two keys per three profiles: the third one purges both.
        collection.add_profile(make_profile(pid, f"k{pid // 3} k{pid // 3 + 1000}"))
    assert len(collection.purged_keys()) == 200
    assert len(collection._keys) == 2  # not one bit per key ever seen
    assert collection.blocks_of(300) == {"k100", "k1100"}
    assert collection.common_blocks(299, 300) == 0


@pytest.mark.parametrize(
    "bits",
    [lambda keys: (2**33,), lambda keys: (len(keys),), lambda keys: (-1,)],
    ids=["huge", "past-the-keys", "negative"],
)
def test_unpickling_refuses_a_bit_of_no_live_block(bits):
    collection = BlockCollection(max_block_size=2)
    for pid, text in enumerate(["ash birch", "ash cedar", "ash birch"]):
        collection.add_profile(make_profile(pid, text))
    state = collection.__getstate__()
    assert state["_keys"][0] is None  # "ash" was purged: its bit is free
    for bad in (bits(state["_keys"]), (0,)):
        hostile = {**state, "_mask_of": {**state["_mask_of"], 1: bad}}
        with pytest.raises(ValueError, match="no live block"):
            BlockCollection.__new__(BlockCollection).__setstate__(hostile)
    restored = BlockCollection.__new__(BlockCollection)
    restored.__setstate__(state)
    assert restored.blocks_of(1) == {"cedar"}
