"""Bloom filters for comparison deduplication.

I-PBS must not re-emit a comparison that was already generated from an
earlier block.  Following Gazzarri & Herschel (EDBT 2020 short paper), the
paper's redundancy check uses a *scalable* Bloom filter: a sequence of plain
Bloom filters of geometrically growing capacity and geometrically tightening
false-positive rate, so the compound error stays bounded while the stream
grows without a known size upfront.

Nothing in a run uses this module: :class:`~repro.pier.ipbs.IPBS` answers
the same question exactly, from sets it keeps anyway.  It stays as a data
structure with its own tests.

Hashing is deterministic (independent of ``PYTHONHASHSEED``): items are
canonical ``(int, int)`` pairs mixed with a splitmix64-style finalizer, and
the k indexes derive from two base hashes (Kirsch-Mitzenmacher).
"""

from __future__ import annotations

import math

__all__ = ["BloomFilter", "ScalableBloomFilter"]

_MASK64 = (1 << 64) - 1


def _splitmix64(value: int) -> int:
    value = (value + 0x9E3779B97F4A7C15) & _MASK64
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & _MASK64
    return value ^ (value >> 31)


def _pair_hashes(left: int, right: int) -> tuple[int, int]:
    """Two independent 64-bit hashes of a canonical pid pair."""
    mixed = _splitmix64((left << 32) ^ right)
    return mixed, _splitmix64(mixed ^ 0xD6E8FEB86659FD93)


class BloomFilter:
    """Plain Bloom filter over canonical pid pairs."""

    __slots__ = ("capacity", "error_rate", "num_bits", "num_hashes", "_bits", "count")

    def __init__(self, capacity: int, error_rate: float = 0.001) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if not 0.0 < error_rate < 1.0:
            raise ValueError("error_rate must be in (0, 1)")
        self.capacity = capacity
        self.error_rate = error_rate
        ln2 = math.log(2.0)
        self.num_bits = max(8, int(math.ceil(-capacity * math.log(error_rate) / (ln2 * ln2))))
        self.num_hashes = max(1, int(round(self.num_bits / capacity * ln2)))
        self._bits = bytearray((self.num_bits + 7) // 8)
        self.count = 0

    def _has(self, h1: int, h2: int) -> bool:
        """Whether every bit of the item hashed to ``(h1, h2)`` is set."""
        bits = self._bits
        num_bits = self.num_bits
        index = h1 % num_bits
        step = h2 % num_bits
        for _ in range(self.num_hashes):
            if not bits[index >> 3] & (1 << (index & 7)):
                return False
            index = (index + step) % num_bits
        return True

    def _set(self, h1: int, h2: int) -> None:
        """Set the bits ``(h1 + i * h2) % num_bits`` for ``i < num_hashes``."""
        bits = self._bits
        num_bits = self.num_bits
        index = h1 % num_bits
        step = h2 % num_bits
        for _ in range(self.num_hashes):
            bits[index >> 3] |= 1 << (index & 7)
            index = (index + step) % num_bits
        self.count += 1

    def add(self, left: int, right: int) -> None:
        self._set(*_pair_hashes(left, right))

    def __contains__(self, pair: tuple[int, int]) -> bool:
        return self._has(*_pair_hashes(*pair))

    @property
    def is_full(self) -> bool:
        return self.count >= self.capacity

    # -- checkpoint support ---------------------------------------------
    def snapshot_state(self) -> tuple:
        """Bit-exact filter state as immutable plain data."""
        return (self.capacity, self.error_rate, bytes(self._bits), self.count)

    @classmethod
    def from_state(cls, state: tuple) -> "BloomFilter":
        capacity, error_rate, bits, count = state
        filter_ = cls(capacity, error_rate)
        filter_._bits = bytearray(bits)
        filter_.count = count
        return filter_


class ScalableBloomFilter:
    """Scalable Bloom filter (Almeida et al.): stacked growing slices.

    Parameters
    ----------
    initial_capacity:
        Capacity of the first slice.
    error_rate:
        Compound target false-positive rate.
    growth:
        Capacity growth factor per slice.
    tightening:
        Error-rate tightening ratio per slice (< 1), so the series of slice
        errors sums below ``error_rate``.
    """

    __slots__ = ("initial_capacity", "error_rate", "growth", "tightening", "_slices")

    def __init__(
        self,
        initial_capacity: int = 1024,
        error_rate: float = 0.001,
        growth: int = 4,
        tightening: float = 0.5,
    ) -> None:
        if growth < 2:
            raise ValueError("growth must be >= 2")
        if not 0.0 < tightening < 1.0:
            raise ValueError("tightening must be in (0, 1)")
        self.initial_capacity = initial_capacity
        self.error_rate = error_rate
        self.growth = growth
        self.tightening = tightening
        first_error = error_rate * (1.0 - tightening)
        self._slices: list[BloomFilter] = [BloomFilter(initial_capacity, first_error)]

    def _has(self, h1: int, h2: int) -> bool:
        for slice_ in reversed(self._slices):
            if slice_._has(h1, h2):
                return True
        return False

    def _set(self, h1: int, h2: int) -> None:
        current = self._slices[-1]
        if current.is_full:
            current = BloomFilter(
                current.capacity * self.growth,
                current.error_rate * self.tightening,
            )
            self._slices.append(current)
        current._set(h1, h2)

    def add(self, left: int, right: int) -> None:
        self._set(*_pair_hashes(left, right))

    def add_if_absent(self, left: int, right: int) -> bool:
        """``contains`` then, when absent, ``add`` — on one hashing.

        Returns ``True`` when the pair was added.  Leaves the filter in
        exactly the state the two separate calls would.
        """
        h1, h2 = _pair_hashes(left, right)
        if self._has(h1, h2):
            return False
        self._set(h1, h2)
        return True

    def __contains__(self, pair: tuple[int, int]) -> bool:
        return self._has(*_pair_hashes(*pair))

    def contains(self, left: int, right: int) -> bool:
        return (left, right) in self

    @property
    def count(self) -> int:
        return sum(slice_.count for slice_ in self._slices)

    @property
    def num_slices(self) -> int:
        return len(self._slices)

    # -- checkpoint support ---------------------------------------------
    def snapshot_state(self) -> dict[str, object]:
        """Bit-exact state of every slice plus the growth parameters."""
        return {
            "params": (self.initial_capacity, self.error_rate, self.growth, self.tightening),
            "slices": [slice_.snapshot_state() for slice_ in self._slices],
        }

    def restore_state(self, state: dict[str, object]) -> None:
        (self.initial_capacity, self.error_rate, self.growth, self.tightening) = state["params"]
        self._slices = [BloomFilter.from_state(slice_state) for slice_state in state["slices"]]
