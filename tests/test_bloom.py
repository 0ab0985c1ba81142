"""Tests for Bloom filters: no false negatives, bounded false positives."""

from __future__ import annotations

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.priority.bloom import BloomFilter, ScalableBloomFilter, _pair_hashes

pairs = st.tuples(
    st.integers(min_value=0, max_value=10**6), st.integers(min_value=0, max_value=10**6)
)


class TestBloomFilter:
    def test_added_pairs_found(self):
        bloom = BloomFilter(capacity=100)
        bloom.add(1, 2)
        assert (1, 2) in bloom

    def test_validation(self):
        with pytest.raises(ValueError):
            BloomFilter(capacity=0)
        with pytest.raises(ValueError):
            BloomFilter(capacity=10, error_rate=1.5)

    def test_is_full(self):
        bloom = BloomFilter(capacity=2)
        assert not bloom.is_full
        bloom.add(1, 2)
        bloom.add(3, 4)
        assert bloom.is_full

    def test_false_positive_rate_roughly_bounded(self):
        bloom = BloomFilter(capacity=1000, error_rate=0.01)
        for i in range(1000):
            bloom.add(i, i + 1)
        false_positives = sum(1 for i in range(10_000, 20_000) if (i, i + 1) in bloom)
        assert false_positives < 400  # 4% — generous margin over the 1% design

    @given(st.lists(pairs, max_size=60))
    @settings(max_examples=50)
    def test_no_false_negatives(self, items):
        bloom = BloomFilter(capacity=max(len(items), 1))
        for left, right in items:
            bloom.add(left, right)
        for pair in items:
            assert pair in bloom

    def test_determinism_across_instances(self):
        a, b = BloomFilter(64), BloomFilter(64)
        a.add(10, 20)
        b.add(10, 20)
        assert a._bits == b._bits


class TestScalableBloomFilter:
    def test_grows_slices(self):
        bloom = ScalableBloomFilter(initial_capacity=8, growth=2)
        for i in range(100):
            bloom.add(i, i + 1)
        assert bloom.num_slices > 1
        assert bloom.count == 100

    def test_no_false_negatives_across_slices(self):
        bloom = ScalableBloomFilter(initial_capacity=4)
        items = [(i, i * 7 + 1) for i in range(500)]
        for left, right in items:
            bloom.add(left, right)
        assert all((left, right) in bloom for left, right in items)

    def test_contains_helper(self):
        bloom = ScalableBloomFilter()
        bloom.add(5, 9)
        assert bloom.contains(5, 9)

    def test_validation(self):
        with pytest.raises(ValueError):
            ScalableBloomFilter(growth=1)
        with pytest.raises(ValueError):
            ScalableBloomFilter(tightening=1.0)

    def test_compound_false_positive_rate(self):
        bloom = ScalableBloomFilter(initial_capacity=64, error_rate=0.01)
        for i in range(2000):
            bloom.add(i, i + 1)
        false_positives = sum(1 for i in range(10_000, 15_000) if (i, i + 1) in bloom)
        assert false_positives / 5000 < 0.05


def _pair_stream(n: int, seed: int) -> list[tuple[int, int]]:
    """Seeded pairs from a small universe, so many recur."""
    rng = random.Random(seed)
    return [(rng.randrange(40), rng.randrange(40, 80)) for _ in range(n)]


class TestAddIfAbsent:
    def test_bits_follow_the_kirsch_mitzenmacher_formula(self):
        """The stepping index arithmetic sets bits ``(h1 + i * h2) % m``."""
        bloom = BloomFilter(capacity=50, error_rate=0.01)
        expected = bytearray(len(bloom._bits))
        for left, right in _pair_stream(50, seed=4):
            bloom.add(left, right)
            h1, h2 = _pair_hashes(left, right)
            for i in range(bloom.num_hashes):
                index = (h1 + i * h2) % bloom.num_bits
                expected[index >> 3] |= 1 << (index & 7)
        assert bloom._bits == expected

    def test_same_state_as_contains_then_add(self):
        """Bytes, slice growth points and false positives, step by step."""
        two_calls = ScalableBloomFilter(initial_capacity=8, growth=2)
        one_call = ScalableBloomFilter(initial_capacity=8, growth=2)
        added = 0
        for left, right in _pair_stream(600, seed=9):
            absent = not two_calls.contains(left, right)
            if absent:
                two_calls.add(left, right)
            assert one_call.add_if_absent(left, right) is absent
            assert one_call.snapshot_state() == two_calls.snapshot_state()
            added += absent
        assert one_call.num_slices > 3  # the stream rolled slices over
        assert added < 600  # ... and repeated itself


_HASHSEED_SCRIPT = """
from repro.priority.bloom import ScalableBloomFilter

bloom = ScalableBloomFilter(initial_capacity=64)
for i in range(500):
    bloom.add((i * 31) % 1000, (i * 17) % 997)
bits = "".join(
    "1" if bloom.contains(i, i + 1) else "0" for i in range(2000)
)
print(bits)
print(bloom.num_slices)
"""


class TestHashSeedIndependence:
    """Bloom membership is identical across interpreter runs, whatever
    ``PYTHONHASHSEED`` says."""

    @staticmethod
    def _membership_under_seed(seed: str) -> str:
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = seed
        src_dir = str(Path(__file__).resolve().parent.parent / "src")
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = src_dir + (os.pathsep + existing if existing else "")
        proc = subprocess.run(
            [sys.executable, "-c", _HASHSEED_SCRIPT],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        return proc.stdout

    def test_membership_identical_across_hash_seeds(self):
        out_a = self._membership_under_seed("0")
        out_b = self._membership_under_seed("12345")
        assert out_a == out_b
        bits = out_a.splitlines()[0]
        assert len(bits) == 2000 and "1" in bits  # the probe saw real data
