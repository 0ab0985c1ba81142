"""Blocks and the incrementally maintained block collection.

Token blocking places each profile in one block per token appearing in its
attribute values.  The :class:`BlockCollection` is the shared substrate of
every algorithm in this library: it is built incrementally (profiles are
only ever *added*, as increments arrive) and maintains both the token →
profiles mapping and its inverse (profile → blocks, one bit mask per
profile), which the weighting schemes and the single-sweep weighting kernel
(:mod:`repro.metablocking.sweep`) read on every comparison.
"""

from __future__ import annotations

import copy
import heapq
from typing import Iterable, Iterator

from repro.core.profile import EntityProfile

__all__ = ["Block", "BlockCollection"]


class Block:
    """A single block: the profiles sharing one blocking key (token).

    Profiles are kept per source so that Clean-Clean ER can generate only
    cross-source comparisons without filtering after the fact.
    """

    __slots__ = ("key", "members_by_source", "_size", "_cc_value", "_cc_kind")

    def __init__(self, key: str) -> None:
        self.key = key
        self.members_by_source: dict[int, list[int]] = {}
        self._size = 0
        self._cc_value = 0
        self._cc_kind: bool | None = None  # None → cardinality cache invalid

    def add(self, pid: int, source: int) -> None:
        self.members_by_source.setdefault(source, []).append(pid)
        self._size += 1
        self._cc_kind = None

    def __len__(self) -> int:
        return self._size

    def __iter__(self) -> Iterator[int]:
        for members in self.members_by_source.values():
            yield from members

    def members(self, source: int) -> tuple[int, ...]:
        """Members of one source, as an immutable snapshot.

        A tuple is returned (not the internal list) so that strategies
        cannot corrupt the index by mutating what they are handed.
        """
        return tuple(self.members_by_source.get(source, ()))

    def comparison_count(self, clean_clean: bool) -> int:
        """Number of comparisons ||b|| this block can generate.

        Cached until the next :meth:`add` — ARCS weighting and the
        smallest-block-first refill consult it once per co-occurrence, so
        recomputing the product per call is measurable on hot paths.
        """
        if self._cc_kind is clean_clean:
            return self._cc_value
        if clean_clean:
            count = len(self.members_by_source.get(0, ())) * len(
                self.members_by_source.get(1, ())
            )
        else:
            count = self._size * (self._size - 1) // 2
        self._cc_value = count
        self._cc_kind = clean_clean
        return count

    def pairs(self, clean_clean: bool) -> Iterator[tuple[int, int]]:
        """Yield all candidate pid pairs of this block (not canonicalized)."""
        if clean_clean:
            left_members = self.members_by_source.get(0, ())
            right_members = self.members_by_source.get(1, ())
            for pid_x in left_members:
                for pid_y in right_members:
                    yield (pid_x, pid_y)
        else:
            flat = list(self)
            for i, pid_x in enumerate(flat):
                for pid_y in flat[i + 1 :]:
                    yield (pid_x, pid_y)

    def __repr__(self) -> str:
        return f"Block(key={self.key!r}, size={self._size})"


def _bit_indexes(mask: int) -> Iterator[int]:
    """The indexes of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class BlockCollection:
    """Incrementally maintained token → block index with its inverse.

    What every consumer (the sweep kernel, the weighting schemes, the
    strategies, the checkpoint layer) relies on:

    * **Add-only maintenance** — profiles are only ever added; re-adding an
      indexed pid raises (re-indexing would double-count comparisons).
    * **Purge-and-blacklist** — a key whose block grows past
      ``max_block_size`` is purged and never recreated (``purged_keys``).
    * **Growth is announced** — see :meth:`drain_grown`.
    * **Deterministic block order** — :meth:`iter_partner_blocks` returns a
      profile's live blocks sorted by key, so weights and candidates are
      bit-identical across hosts, hash seeds and checkpoint restores.
    * **Membership is a bit mask** — a block gets a bit index when it is
      created, and a profile's int has its live blocks' bits set, so
      :meth:`common_blocks` is ``AND`` + popcount.  A purge clears the bit
      in every mask and frees it for the next new block, so masks are as
      wide as the most blocks live at once, not as all keys ever seen.
    * **Snapshots** — all mutable state (the undrained growth feed
      included) lives on the object, so ``copy.deepcopy`` is a complete
      snapshot; a pickle stores each mask as its bit indexes, and
      unpickling refuses an index that names no live block.

    Parameters
    ----------
    clean_clean:
        Whether the dataset is Clean-Clean (controls pair generation and
        comparison counting inside blocks).
    max_block_size:
        Block purging threshold: a block that grows beyond this many
        profiles is dropped and its token blacklisted, since oversized
        blocks yield an excessive number of uninformative comparisons
        (incremental block purging, per Gazzarri & Herschel ICDE 2021).
        ``None`` disables purging.
    """

    __slots__ = (
        "clean_clean",
        "max_block_size",
        "_blocks",
        "_mask_of",
        "_keys",
        "_bit_of",
        "_free_bits",
        "_purged_keys",
        "_total_comparisons",
        "_grown",
    )

    def __init__(self, clean_clean: bool = False, max_block_size: int | None = 200) -> None:
        if max_block_size is not None and max_block_size < 2:
            raise ValueError("max_block_size must be >= 2 (or None)")
        self.clean_clean = clean_clean
        self.max_block_size = max_block_size
        self._blocks: dict[str, Block] = {}
        # pid -> bit mask of its live blocks; bit i stands for _keys[i].
        self._mask_of: dict[int, int] = {}
        # Bit i's live key, or None once its block is purged.
        self._keys: list[str | None] = []
        # live key -> bit index (never ``1 << i``, which costs O(i) bytes).
        self._bit_of: dict[str, int] = {}
        # Heap of the None slots of _keys: the lowest is reused first.
        self._free_bits: list[int] = []
        self._purged_keys: set[str] = set()
        self._total_comparisons = 0
        # Keys whose block gained a member since drain_grown() last ran.
        self._grown: set[str] = set()

    # ------------------------------------------------------------------
    # Incremental maintenance
    # ------------------------------------------------------------------
    def add_profile(self, profile: EntityProfile) -> None:
        """Index a newly arrived profile.

        Idempotent per profile: re-adding a pid that is already indexed is an
        error, because re-indexing would double-count comparisons.
        """
        if profile.pid in self._mask_of:
            raise ValueError(f"profile {profile.pid} already indexed")
        mask = 0
        grown = self._grown
        # Sorted: the tokens come from a frozenset, whose iteration
        # order follows the interpreter's hash seed, and this order decides
        # block creation order — hence ``iter(collection)``, which the batch
        # baselines build their schedules from.
        for token in sorted(profile.tokens()):
            if token in self._purged_keys:
                continue
            grown.add(token)
            block = self._blocks.get(token)
            if block is None:
                block = Block(token)
                self._blocks[token] = block
                if self._free_bits:
                    bit = heapq.heappop(self._free_bits)
                    self._keys[bit] = token
                else:
                    bit = len(self._keys)
                    self._keys.append(token)
                self._bit_of[token] = bit
            if self.clean_clean:
                gained = len(block.members_by_source.get(1 - profile.source, ()))
            else:
                gained = len(block)
            block.add(profile.pid, profile.source)
            self._total_comparisons += gained
            if self.max_block_size is not None and len(block) > self.max_block_size:
                self._purge_block(token)
            else:
                mask |= 1 << self._bit_of[token]
        self._mask_of[profile.pid] = mask

    def _purge_block(self, key: str) -> None:
        block = self._blocks.pop(key)
        self._purged_keys.add(key)
        self._total_comparisons -= block.comparison_count(self.clean_clean)
        bit = self._bit_of.pop(key)
        self._keys[bit] = None
        heapq.heappush(self._free_bits, bit)
        keep = ~(1 << bit)
        for pid in block:
            # The profile whose addition purges the block has no mask yet.
            if pid in self._mask_of:
                self._mask_of[pid] &= keep

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._blocks)

    def __contains__(self, key: str) -> bool:
        return key in self._blocks

    def __iter__(self) -> Iterator[Block]:
        return iter(self._blocks.values())

    def get(self, key: str) -> Block | None:
        return self._blocks.get(key)

    def blocks_of(self, pid: int) -> frozenset[str]:
        """Keys of the live blocks containing ``pid`` (B(p) in the paper)."""
        keys = self._keys
        return frozenset(keys[bit] for bit in _bit_indexes(self._mask_of.get(pid, 0)))

    def block_count_of(self, pid: int) -> int:
        """|B(p)| — number of live blocks containing ``pid`` (one popcount)."""
        return self._mask_of.get(pid, 0).bit_count()

    def iter_partner_blocks(self, pid: int) -> tuple[Block, ...]:
        """The live blocks containing ``pid``, sorted by key.

        This is the substrate of the single-sweep weighting kernel: one
        call hands back every block whose members are ``pid``'s candidate
        partners, purged blocks already skipped, in a deterministic
        (hash-seed independent) order.
        """
        blocks = self._blocks
        return tuple(blocks[key] for key in sorted(self.blocks_of(pid)))

    def profiles_indexed(self) -> int:
        return len(self._mask_of)

    def is_indexed(self, pid: int) -> bool:
        return pid in self._mask_of

    def total_comparisons(self) -> int:
        """Aggregate ||b|| over all live blocks (with multiplicity).

        Maintained incrementally, so this is O(1) — it is consulted on every
        increment by the GLOBAL baseline adaptations.
        """
        return self._total_comparisons

    def keys(self) -> Iterable[str]:
        return self._blocks.keys()

    def purged_keys(self) -> frozenset[str]:
        return frozenset(self._purged_keys)

    def drain_grown(self) -> set[str]:
        """Keys whose block gained a member since the last drain (then reset).

        The growth feed of the idle refill
        (:class:`~repro.pier.base.GetComparisons`): a block that can offer a
        new pair has gained a member, so whoever drains this never has to
        scan the collection for such blocks.  A key whose block was purged
        by that very addition is reported once too, so the consumer can
        forget it.  The feed has **one consumer per collection** — what one
        drain hands out, no later drain repeats — and lives on the
        collection so it rides through checkpoints with the rest of the
        index.  Undrained (I-PBS and the baselines have no
        use for it) it holds at most one entry per key ever indexed.  The
        set is unordered: consumers whose results depend on the order must
        sort it.
        """
        grown = self._grown
        self._grown = set()
        return grown

    def common_blocks(self, pid_x: int, pid_y: int) -> int:
        """|B(p_x) ∩ B(p_y)| — the raw ingredient of the CBS weight."""
        mask_of = self._mask_of
        return (mask_of.get(pid_x, 0) & mask_of.get(pid_y, 0)).bit_count()

    def common_block_counts(self, pairs: Iterable[tuple[int, int]]) -> list[int]:
        """:meth:`common_blocks` of every pair, in order, in one pass."""
        mask_of = self._mask_of.get
        return [(mask_of(x, 0) & mask_of(y, 0)).bit_count() for x, y in pairs]

    # -- snapshots ------------------------------------------------------
    def __getstate__(self) -> dict[str, object]:
        state = {
            name: getattr(self, name)
            for name in self.__slots__
            if name not in ("_bit_of", "_free_bits")
        }
        # A raw mask pickles at the width of its highest bit.
        state["_mask_of"] = {
            pid: tuple(_bit_indexes(mask)) for pid, mask in self._mask_of.items()
        }
        return state

    def __setstate__(self, state: dict[str, object]) -> None:
        for name, value in state.items():
            setattr(self, name, value)
        keys = self._keys
        self._bit_of = {key: bit for bit, key in enumerate(keys) if key is not None}
        self._free_bits = [bit for bit, key in enumerate(keys) if key is None]
        live = set(self._bit_of.values())
        masks = {}
        for pid, bits in state["_mask_of"].items():
            # Checked before shifting: a stray ``1 << 2**33`` is a 1 GiB int.
            if not live.issuperset(bits):
                raise ValueError(f"profile {pid}'s mask names a bit of no live block")
            masks[pid] = sum(1 << bit for bit in set(bits))
        self._mask_of = masks

    def __deepcopy__(self, memo: dict) -> "BlockCollection":
        clone = BlockCollection.__new__(BlockCollection)
        memo[id(self)] = clone
        for name in self.__slots__:
            setattr(clone, name, copy.deepcopy(getattr(self, name), memo))
        return clone

    def __repr__(self) -> str:
        return (
            f"BlockCollection(blocks={len(self._blocks)}, "
            f"profiles={len(self._mask_of)}, purged={len(self._purged_keys)})"
        )
