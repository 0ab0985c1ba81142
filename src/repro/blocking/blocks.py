"""Blocks and the incrementally maintained block collection.

Token blocking places each profile in one block per token appearing in its
attribute values.  The :class:`BlockCollection` is the shared substrate of
every algorithm in this library: it is built incrementally (profiles are
only ever *added*, as increments arrive) and maintains both the token →
profiles mapping and its inverse (profile → blocks), which the weighting
schemes and the single-sweep weighting kernel
(:mod:`repro.metablocking.sweep`) read on every comparison.
"""

from __future__ import annotations

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
    * **Deep-copy snapshots** — all mutable state (the undrained growth
      feed included) lives on the object, so ``copy.deepcopy`` is a complete
      snapshot.

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
        "_blocks_of",
        "_purged_keys",
        "_total_comparisons",
        "_profile_blocks",
        "_grown",
    )

    def __init__(self, clean_clean: bool = False, max_block_size: int | None = 200) -> None:
        if max_block_size is not None and max_block_size < 2:
            raise ValueError("max_block_size must be >= 2 (or None)")
        self.clean_clean = clean_clean
        self.max_block_size = max_block_size
        self._blocks: dict[str, Block] = {}
        self._blocks_of: dict[int, set[str]] = {}
        self._purged_keys: set[str] = set()
        self._total_comparisons = 0
        # Per-profile cache of the sorted live-block tuple behind
        # iter_partner_blocks; invalidated when the profile's key set
        # changes (its own add, or a purge touching it).
        self._profile_blocks: dict[int, tuple[Block, ...]] = {}
        # Keys whose block gained a member since drain_grown() last ran.
        self._grown: set[str] = set()

    # ------------------------------------------------------------------
    # Incremental maintenance
    # ------------------------------------------------------------------
    def add_profile(self, profile: EntityProfile) -> set[str]:
        """Index a newly arrived profile; return the keys of its live blocks.

        Idempotent per profile: re-adding a pid that is already indexed is an
        error, because re-indexing would double-count comparisons.
        """
        if profile.pid in self._blocks_of:
            raise ValueError(f"profile {profile.pid} already indexed")
        keys: set[str] = set()
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
            if self.clean_clean:
                gained = len(block.members_by_source.get(1 - profile.source, ()))
            else:
                gained = len(block)
            block.add(profile.pid, profile.source)
            self._total_comparisons += gained
            if self.max_block_size is not None and len(block) > self.max_block_size:
                self._purge_block(token)
            else:
                keys.add(token)
        self._blocks_of[profile.pid] = keys
        self._profile_blocks.pop(profile.pid, None)
        return keys

    def _purge_block(self, key: str) -> None:
        block = self._blocks.pop(key)
        self._purged_keys.add(key)
        self._total_comparisons -= block.comparison_count(self.clean_clean)
        for pid in block:
            member_keys = self._blocks_of.get(pid)
            if member_keys is not None:
                member_keys.discard(key)
            self._profile_blocks.pop(pid, None)

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
        """Keys of the live blocks containing ``pid`` (B(p) in the paper).

        An immutable view: the internal key set is live, shared state
        (purges mutate it in place), so handing it out would let callers
        alias-mutate the index.
        """
        keys = self._blocks_of.get(pid)
        return frozenset(keys) if keys else frozenset()

    def block_count_of(self, pid: int) -> int:
        """|B(p)| — number of live blocks containing ``pid`` (O(1))."""
        keys = self._blocks_of.get(pid)
        return len(keys) if keys else 0

    def iter_partner_blocks(self, pid: int) -> tuple[Block, ...]:
        """The live blocks containing ``pid``, sorted by key — cached.

        This is the substrate of the single-sweep weighting kernel: one
        call hands back every block whose members are ``pid``'s candidate
        partners, purged blocks already skipped, in a deterministic
        (hash-seed independent) order.  The tuple is cached per profile and
        invalidated only when the profile's key set changes, so repeated
        sweeps over the same profile do not re-sort.
        """
        cached = self._profile_blocks.get(pid)
        if cached is None:
            blocks = self._blocks
            cached = tuple(
                block
                for block in (blocks.get(key) for key in sorted(self._blocks_of.get(pid, ())))
                if block is not None
            )
            self._profile_blocks[pid] = cached
        return cached

    def profiles_indexed(self) -> int:
        return len(self._blocks_of)

    def is_indexed(self, pid: int) -> bool:
        return pid in self._blocks_of

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
        keys_x = self._blocks_of.get(pid_x)
        keys_y = self._blocks_of.get(pid_y)
        if not keys_x or not keys_y:
            return 0
        return len(keys_x & keys_y)

    def common_block_counts(self, pairs: Iterable[tuple[int, int]]) -> list[int]:
        """:meth:`common_blocks` of every pair, in order, in one pass."""
        keys_of = self._blocks_of.get
        none: frozenset[str] = frozenset()
        return [len(keys_of(x, none) & keys_of(y, none)) for x, y in pairs]

    def __repr__(self) -> str:
        return (
            f"BlockCollection(blocks={len(self._blocks)}, "
            f"profiles={len(self._blocks_of)}, purged={len(self._purged_keys)})"
        )
