"""Comparison candidates.

A comparison is an unordered pair of profile ids.  The pair is always stored
in canonical order (``left < right``) so that set membership and
deduplication behave consistently across all prioritization strategies.
"""

from __future__ import annotations

from typing import Any, NamedTuple

__all__ = ["Comparison", "WeightedComparison", "canonical_pair"]


def canonical_pair(pid_x: int, pid_y: int) -> tuple[int, int]:
    """Return the pair ``(min, max)`` — the canonical identity of a comparison."""
    if pid_x == pid_y:
        raise ValueError(f"a profile cannot be compared with itself (pid={pid_x})")
    if pid_x < pid_y:
        return (pid_x, pid_y)
    return (pid_y, pid_x)


class Comparison(NamedTuple):
    """An unweighted comparison candidate between two profiles."""

    left: int
    right: int

    @classmethod
    def of(cls, pid_x: int, pid_y: int) -> "Comparison":
        return cls(*canonical_pair(pid_x, pid_y))

    def involves(self, pid: int) -> bool:
        return pid == self.left or pid == self.right

    def other(self, pid: int) -> int:
        """Return the partner of ``pid`` in this comparison."""
        if pid == self.left:
            return self.right
        if pid == self.right:
            return self.left
        raise ValueError(f"profile {pid} is not part of comparison {self}")


class WeightedComparison(NamedTuple):
    """A comparison candidate annotated with a match-likelihood weight.

    ``weight`` is either a float (I-PCS, I-PES: a meta-blocking weight such
    as CBS) or any comparable key (I-PBS uses ``(-block_size, cbs)`` pairs so
    that smaller generating blocks win and CBS breaks ties).  Priority queues
    in this library order *descending* by weight.
    """

    left: int
    right: int
    weight: Any

    @classmethod
    def of(cls, pid_x: int, pid_y: int, weight: Any) -> "WeightedComparison":
        pair = canonical_pair(pid_x, pid_y)
        return cls(pair[0], pair[1], weight)

    @property
    def pair(self) -> tuple[int, int]:
        return (self.left, self.right)

    def comparison(self) -> Comparison:
        return Comparison(self.left, self.right)
