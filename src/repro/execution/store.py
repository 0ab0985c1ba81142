"""Shared comparison bookkeeping for every ER system.

Before this layer existed, each system kept its own private variant of the
same registries: the PIER framework and the incremental baseline each held
an ``_executed`` set, and the engines tracked quarantined pairs in run-local
sets.  :class:`ComparisonStore` centralizes them:

* **executed-set** — the exactly-once execution registry.  A pair enters it
  the moment a system *commits* to executing it (emission for PIER and the
  batch baselines, enqueue for I-BASE), so redeliveries, refills and
  re-prioritizations can never hand the same comparison to the matcher
  twice.  Block-centric generation (I-PBS) reads it too: together with the
  strategy's own still-queued pairs it is the exact answer to "was this
  pair generated before?", where the paper settles for a Bloom filter;
* **quarantine registry** — pairs the engine refused to execute (their
  estimate busts the cost ceiling).  Per-run state: cleared by
  :meth:`begin_run`, overwritten from the checkpoint on resume.

The store is owned by the system (it shares the system's lifetime, like the
executed set it replaces) and snapshotted as one unit inside
``ERSystem.snapshot``, which is how engine checkpoints guarantee that no
comparison is double-credited after a crash-restore.
"""

from __future__ import annotations

from repro.core.comparison import canonical_pair

__all__ = ["ComparisonStore"]


class ComparisonStore:
    """Executed-set and quarantine registry."""

    __slots__ = ("executed", "quarantined")

    def __init__(self) -> None:
        self.executed: set[tuple[int, int]] = set()
        self.quarantined: set[tuple[int, int]] = set()

    # -- executed-set (exactly-once execution) --------------------------
    def was_executed(self, pid_x: int, pid_y: int) -> bool:
        return canonical_pair(pid_x, pid_y) in self.executed

    def mark_executed(self, pair: tuple[int, int]) -> bool:
        """Claim a canonical pair for execution; ``False`` if already claimed."""
        if pair in self.executed:
            return False
        self.executed.add(pair)
        return True

    # -- quarantine registry --------------------------------------------
    def quarantine(self, pair: tuple[int, int]) -> None:
        """Register a pair the engine refused to execute."""
        self.quarantined.add(pair)

    def begin_run(self) -> None:
        """Reset the per-run registries at the start of a fresh (non-resume)
        run.  The executed set shares the *system's* lifetime and survives —
        it encodes which comparisons exist at all, not what one engine run
        did with them."""
        self.quarantined.clear()

    # -- checkpoint support ---------------------------------------------
    def snapshot_state(self) -> dict[str, object]:
        return {
            "executed": set(self.executed),
            "quarantined": set(self.quarantined),
        }

    def restore_state(self, state: dict[str, object]) -> None:
        """Rewind to a snapshot; only the two keys :meth:`snapshot_state`
        writes are read.  Snapshots of an older checkpoint layout never get
        here: ``TenantSnapshot.from_bytes`` refuses them by version."""
        self.executed = set(state["executed"])
        self.quarantined = set(state["quarantined"])
