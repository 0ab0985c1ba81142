"""Priority queues, Bloom filters, and rate-adaptive budget control."""

from repro.priority.bloom import BloomFilter, ScalableBloomFilter
from repro.priority.bounded_pq import BoundedPriorityQueue
from repro.priority.rates import AdaptiveK, RateEstimator

__all__ = [
    "AdaptiveK",
    "BloomFilter",
    "BoundedPriorityQueue",
    "RateEstimator",
    "ScalableBloomFilter",
]
