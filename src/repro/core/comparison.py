"""Comparison candidates.

A comparison is an unordered pair of profile ids.  The pair is always stored
in canonical order (``left < right``) so that set membership and
deduplication behave consistently across all prioritization strategies.
"""

from __future__ import annotations

from typing import NamedTuple

__all__ = ["WeightedComparison", "canonical_pair"]


def canonical_pair(pid_x: int, pid_y: int) -> tuple[int, int]:
    """Return the pair ``(min, max)`` — the canonical identity of a comparison."""
    if pid_x == pid_y:
        raise ValueError(f"a profile cannot be compared with itself (pid={pid_x})")
    if pid_x < pid_y:
        return (pid_x, pid_y)
    return (pid_y, pid_x)


class WeightedComparison(NamedTuple):
    """A canonical comparison (``left < right``) with its meta-blocking
    weight, as I-WNP keeps it."""

    left: int
    right: int
    weight: float

    @property
    def pair(self) -> tuple[int, int]:
        return (self.left, self.right)
