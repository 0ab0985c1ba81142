"""The bounded priority queue and rate-adaptive budget control."""

from repro.priority.bounded_pq import BoundedPriorityQueue
from repro.priority.rates import AdaptiveK, RateEstimator

__all__ = [
    "AdaptiveK",
    "BoundedPriorityQueue",
    "RateEstimator",
]
