"""Shared machinery for the batch progressive ER baselines.

PPS and PBS (Simonini et al., TKDE 2019) are *batch* algorithms: they run an
initialization phase over the full dataset (blocking + building of the
prioritization structures) and then an emission phase.  To compare them
against PIER under one simulation loop, they are packaged as
:class:`ERSystem` objects with *lazy* initialization:

* ``ingest`` indexes the increment's profiles and marks the prioritization
  state dirty;
* the next ``emit`` first (re)runs initialization — charging its full
  virtual cost, which produces the flat start of the PC curve — and only
  then emits comparison batches.

The same classes double as the paper's naive incremental adaptations:

* ``scope="all"`` re-initializes over *all* data seen so far on every
  increment (PPS-GLOBAL / PBS-GLOBAL) — correct but increasingly expensive;
* ``scope="last"`` resets state and considers only the newest increment
  (PPS-LOCAL) — cheap but blind to inter-increment matches.

When the estimated cost of a pending (re)initialization already exceeds the
remaining virtual budget, the system burns the remaining budget without
performing the (useless) work — behaviorally identical and keeps wall-clock
time bounded in the collapse regimes of Figures 2 and 7.
"""

from __future__ import annotations

from repro.blocking.blocks import BlockCollection
from repro.core.increments import Increment
from repro.streaming.system import EmitResult, ERSystem, PipelineStats

__all__ = ["BatchProgressiveSystem"]


class BatchProgressiveSystem(ERSystem):
    """Base class of PPS / PBS and their GLOBAL / LOCAL stream adaptations.

    Subclasses implement :meth:`_initialize` (build the prioritization
    state, return its virtual cost) and :meth:`_next_pairs` (produce up to
    ``n`` prioritized pairs, return them with their cost; no pairs means
    the emission order has been read to its end).
    """

    def __init__(
        self,
        clean_clean: bool = False,
        max_block_size: int | None = 200,
        scope: str = "all",
        chunk_size: int = 64,
    ) -> None:
        if scope not in ("all", "last"):
            raise ValueError("scope must be 'all' or 'last'")
        super().__init__(clean_clean, max_block_size)
        self.scope = scope
        self.chunk_size = chunk_size
        self._dirty = False
        # The whole emission order has been read (at first, the empty one):
        # nothing left to emit until the next increment.
        self._drained = True
        self._pending_init_cost = 0.0
        self.initializations = 0

    # ------------------------------------------------------------------
    # ERSystem interface
    # ------------------------------------------------------------------
    def ingest(self, increment: Increment) -> float:
        if increment.is_empty:
            return self.costs.per_round
        if self.scope == "last":
            # The collection starts over; the profile store keeps every
            # profile (pids are unique within a dataset), so pairs charged
            # before this increment still resolve when they are scored.
            collection = self.collection
            self.collection = BlockCollection(collection.clean_clean, collection.max_block_size)
        cost = self._index(increment)
        self._dirty = True
        self._drained = False
        # The batch algorithms reassess their prioritization for *every* new
        # increment (the paper's central criticism of the naive GLOBAL
        # adaptations).  Each increment therefore owes one full
        # (re)initialization at the current data size; the owed cost
        # accumulates and is charged when emission next runs.  Only the last
        # rebuild's structure is kept (intermediate ones are obsolete by
        # construction), so wall-clock work stays at one real build.
        self._pending_init_cost += self._estimate_init_cost()
        return cost

    def has_work(self) -> bool:
        return self._dirty or not self._drained

    def emit(self, stats: PipelineStats) -> EmitResult:
        if self._dirty:
            owed = max(self._pending_init_cost, self._estimate_init_cost())
            remaining = stats.remaining_budget
            if remaining is not None and owed > remaining:
                # (Re)initialization cannot finish within the budget: charge
                # the rest of the budget and skip the pointless work.
                self.metrics.count("batch.initializations_over_budget")
                return EmitResult(batch=(), cost=owed)
            cost = max(self._initialize(), owed)
            self._pending_init_cost = 0.0
            self._dirty = False
            self.initializations += 1
            self.metrics.count("batch.initializations")
            self.metrics.count("batch.initialization_cost_s", cost)
            return EmitResult(batch=(), cost=cost)
        # Read on past chunks whose pairs were all executed already (by an
        # earlier initialization's order): a round comes back empty only at
        # the end of the order.
        mark_executed = self.store.mark_executed
        fresh: list[tuple[int, int]] = []
        cost = self.costs.per_round
        while not fresh:
            pairs, chunk_cost = self._next_pairs(self.chunk_size)
            cost += chunk_cost
            if not pairs:
                self._drained = True
                break
            fresh = [pair for pair in pairs if mark_executed(pair)]
        return EmitResult(batch=tuple(fresh), cost=cost)

    def snapshot(self) -> dict[str, object]:
        state = super().snapshot()
        if self.scope == "last":
            # A checkpoint follows a join: no pair in flight needs an older profile.
            profiles, indexed = state["_profiles"], self.collection.is_indexed
            state["_profiles"] = {pid: profiles[pid] for pid in profiles if indexed(pid)}
        return state

    # ------------------------------------------------------------------
    # Hooks
    # ------------------------------------------------------------------
    def _initialize(self) -> float:
        raise NotImplementedError

    def _next_pairs(self, n: int) -> tuple[list[tuple[int, int]], float]:
        raise NotImplementedError

    def _estimate_init_cost(self) -> float:
        """Cheap upper-bound estimate of the pending initialization cost."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------
    def valid_pair(self, pid_x: int, pid_y: int) -> bool:
        """Whether two profiles may match: used by LS-PSN and GS-PSN, whose
        sorted profile array mixes sources and repeats profiles."""
        if pid_x == pid_y:
            return False
        if not self.collection.clean_clean:
            return True
        return self._profiles[pid_x].source != self._profiles[pid_y].source

    def gauges(self) -> dict[str, float]:
        return {
            "initializations": self.initializations,
            "profiles_indexed": self.collection.profiles_indexed(),
        }

    def describe(self) -> dict[str, object]:
        return {
            "name": self.name,
            "scope": self.scope,
            "profiles": self.collection.profiles_indexed(),
            "initializations": self.initializations,
        }
