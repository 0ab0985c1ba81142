"""Incremental MinHash-LSH: the sublinear candidate-generation substrate.

Token blocking's candidate volume grows with the token vocabulary — every
shared token makes a pair a candidate, and the weighting layer pays
O(candidates) before any prioritizer runs.  Locality-sensitive hashing over
MinHash signatures (Broder '97; see also the blocking survey,
arXiv:1905.06167) bounds that volume by *similarity* instead: a pair
becomes a candidate only if at least one of ``bands`` signature slices
matches exactly, which happens with probability ``1 - (1 - s^rows)^bands``
for token-Jaccard ``s`` — an S-curve stepping near
``(1/bands) ** (1/rows)``.

:class:`LSHBlockCollection` subclasses
:class:`~repro.blocking.blocks.BlockCollection`, so that purge, growth-feed,
cache-invalidation and deep-copy snapshot semantics are inherited rather
than re-implemented.  Banded signature buckets *are* the blocks (the
:meth:`~LSHBlockCollection.profile_keys` hook returns bucket keys instead of
tokens), so every downstream consumer — the sweep kernel, CBS/ECBS/JS/ARCS
weighting, block ghosting, I-WNP, the I-PBS cardinality indexes — runs
unchanged over buckets.

Determinism contract: nothing here may depend on the interpreter hash seed
or the host.  Tokens are hashed with ``blake2b`` (not the built-in
``hash``), permutations are drawn from a seeded ``random.Random``, the
min() reductions are order-independent, and bucket keys are explicit
strings — so signatures, buckets, and therefore candidate streams are
bit-identical across hosts, PYTHONHASHSEED values, and checkpoint
restores.  All mutable state (signature cache, bucket tables, undrained
``blocking.lsh.*`` counter deltas) lives on the collection object, which
rides through :class:`~repro.resilience.checkpoint.EngineCheckpoint`
snapshots via ``copy.deepcopy`` of the owning system's ``collection``.
"""

from __future__ import annotations

import random
from hashlib import blake2b
from typing import Iterable

from repro.blocking.blocks import BlockCollection
from repro.core.profile import EntityProfile

__all__ = ["MinHasher", "LSHBlockCollection"]

#: Mersenne prime 2^61 - 1: the universal-hash modulus.  Larger than any
#: 61-bit token hash, so ``(a*h + b) % _PRIME`` is a proper permutation
#: family over the token-hash domain.
_PRIME = (1 << 61) - 1


def _token_hash(token: str) -> int:
    """A 61-bit integer hash of a token — hash-seed and host independent."""
    digest = blake2b(token.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") % _PRIME


class MinHasher:
    """Seeded MinHash signatures with banded bucket keys.

    ``bands * rows`` universal-hash permutations ``h_i(x) = (a_i*x + b_i)
    mod p`` are drawn once from ``random.Random(seed)``; a profile's
    signature is the per-permutation minimum over its token hashes.  Token
    base hashes are cached across profiles (the vocabulary repeats heavily
    within a dataset), and the cache is plain data, so the hasher deep-copies
    and pickles cleanly inside checkpoints.
    """

    __slots__ = ("bands", "rows", "seed", "_params", "_token_cache")

    def __init__(self, bands: int, rows: int, seed: int = 0) -> None:
        if bands < 1:
            raise ValueError(f"bands must be >= 1, got {bands}")
        if rows < 1:
            raise ValueError(f"rows must be >= 1, got {rows}")
        self.bands = bands
        self.rows = rows
        self.seed = seed
        rng = random.Random(seed)
        self._params = tuple(
            (rng.randrange(1, _PRIME), rng.randrange(0, _PRIME))
            for _ in range(bands * rows)
        )
        self._token_cache: dict[str, int] = {}

    def signature(self, tokens: Iterable[str]) -> tuple[int, ...]:
        """The MinHash signature of a token set (empty set → empty tuple).

        ``min`` is commutative, so the (hash-seed dependent) iteration
        order of a token frozenset cannot affect the result.
        """
        cache = self._token_cache
        hashes = []
        for token in tokens:
            value = cache.get(token)
            if value is None:
                value = _token_hash(token)
                cache[token] = value
            hashes.append(value)
        if not hashes:
            return ()
        return tuple(
            min((a * value + b) % _PRIME for value in hashes)
            for a, b in self._params
        )

    def bucket_keys(self, signature: tuple[int, ...]) -> tuple[str, ...]:
        """One bucket key per band: the band index plus its signature slice.

        Keys are explicit strings (no further hashing), so equal slices
        collide by construction and keys sort deterministically.
        """
        rows = self.rows
        return tuple(
            f"b{band}:" + ".".join(map(str, signature[band * rows : (band + 1) * rows]))
            for band in range(self.bands)
        )


class LSHBlockCollection(BlockCollection):
    """The MinHash-LSH blocking tier: buckets are the blocks.

    Only the key-derivation hook differs from token blocking — a profile
    lands in its ``bands`` banded bucket keys instead of its tokens.  All
    other semantics (cross-source member bookkeeping, ``max_block_size``
    purging of degenerate buckets, the sorted cached block tuples behind
    the sweep kernel) are inherited.  On top, the
    collection caches each profile's signature and buffers its
    ``blocking.lsh.*`` counter deltas until :meth:`drain_metrics`.
    """

    __slots__ = ("hasher", "_signatures", "_pending_metrics")

    def __init__(
        self,
        clean_clean: bool = False,
        max_block_size: int | None = 200,
        *,
        bands: int = 16,
        rows: int = 2,
        seed: int = 0,
    ) -> None:
        super().__init__(clean_clean=clean_clean, max_block_size=max_block_size)
        self.hasher = MinHasher(bands, rows, seed)
        #: pid → signature; computed once per profile and kept for the
        #: collection's lifetime (checkpoints carry it, restores reuse it).
        self._signatures: dict[int, tuple[int, ...]] = {}
        self._pending_metrics: dict[str, float] = {}

    def _count(self, name: str, value: float = 1) -> None:
        pending = self._pending_metrics
        pending[name] = pending.get(name, 0) + value

    def drain_metrics(self) -> dict[str, float]:
        if not self._pending_metrics:
            return {}
        pending = self._pending_metrics
        self._pending_metrics = {}
        return pending

    def signature_of(self, profile: EntityProfile) -> tuple[int, ...]:
        """The profile's cached MinHash signature (computed on first use)."""
        signature = self._signatures.get(profile.pid)
        if signature is None:
            signature = self.hasher.signature(profile.tokens())
            self._signatures[profile.pid] = signature
            if signature:
                self._count("blocking.lsh.signatures")
        return signature

    def signature_count(self) -> int:
        """Cached signatures (for tests and describe-style reporting)."""
        return len(self._signatures)

    def profile_keys(self, profile: EntityProfile) -> Iterable[str]:
        signature = self.signature_of(profile)
        if not signature:
            return ()
        keys = self.hasher.bucket_keys(signature)
        # A bucket seen before is live or purged (purged keys never return).
        blocks, purged = self._blocks, self._purged_keys
        fresh = sum(1 for key in keys if key not in blocks and key not in purged)
        if fresh:
            self._count("blocking.lsh.buckets", fresh)
        return keys
