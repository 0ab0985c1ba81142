"""Shared comparison bookkeeping for every ER system.

Before this layer existed, the PIER framework and the incremental
baseline each held a private ``_executed`` set.  :class:`ComparisonStore`
is the one exactly-once execution registry.  A pair enters it the moment a
system *commits* to executing it (emission for PIER and the batch
baselines, enqueue for I-BASE), so redeliveries, refills and
re-prioritizations can never hand the same comparison to the matcher
twice.  Block-centric generation (I-PBS) reads it too: together with the
strategy's own still-queued pairs it is the exact answer to "was this pair
generated before?", where the paper settles for a Bloom filter.

The store is owned by the system (it shares the system's lifetime, like the
executed set it replaces) and snapshotted as one unit inside
``ERSystem.snapshot``, which is how engine checkpoints guarantee that no
comparison is double-credited after a crash-restore.
"""

from __future__ import annotations

from repro.core.comparison import canonical_pair

__all__ = ["ComparisonStore"]


class ComparisonStore:
    """The executed set: every comparison a system has committed to."""

    __slots__ = ("executed",)

    def __init__(self) -> None:
        self.executed: set[tuple[int, int]] = set()

    def was_executed(self, pid_x: int, pid_y: int) -> bool:
        return canonical_pair(pid_x, pid_y) in self.executed

    def mark_executed(self, pair: tuple[int, int]) -> bool:
        """Claim a canonical pair for execution; ``False`` if already claimed."""
        if pair in self.executed:
            return False
        self.executed.add(pair)
        return True

    # -- checkpoint support ---------------------------------------------
    def snapshot_state(self) -> dict[str, object]:
        return {"executed": set(self.executed)}

    def restore_state(self, state: dict[str, object]) -> None:
        """Rewind to a snapshot; only the key :meth:`snapshot_state` writes
        is read.  Snapshots of an older checkpoint layout never get here:
        ``TenantSnapshot.from_bytes`` refuses them by version."""
        self.executed = set(state["executed"])
