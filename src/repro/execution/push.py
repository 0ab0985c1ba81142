"""Push-mode execution: feed increments as they arrive, drain on demand.

The classic entry point — ``engine.run(system, plan, ground_truth)`` —
commits to a complete :class:`~repro.core.increments.StreamPlan` before the
first virtual second elapses.  That shape fits the paper's experiments (the
stream is known up front) but not a long-lived service, where increments
arrive over a connection and the caller decides, continuously, how much
virtual budget the tenant may burn next.

:class:`PushRun` is the same run, inverted into a state machine:

* :meth:`PushRun.ingest` appends one increment of profiles (with its
  virtual arrival time) to the run's open-ended plan, numbered after every
  increment fed so far; :meth:`PushRun.feed` appends a prepared
  :class:`~repro.core.increments.Increment` with its own index;
* :meth:`PushRun.drain` advances the engine's virtual clock to an absolute
  *horizon* — the engine's ``_drive`` policy executes exactly as it would
  inside ``run()``, with the horizon playing the role of the budget
  deadline (deadline cuts at a horizon are real cuts: raising the horizon
  later does not un-cut them);
* :meth:`PushRun.results` finalizes the run into the usual
  :class:`~repro.execution.core.RunResult` and closes the push run.

``ExecutionCore.run`` is reimplemented as the degenerate push schedule —
feed the whole plan, drain once to the budget, collect results — which is
what makes push mode *semantics-neutral by construction*: every classic
run, including the engine-parity and checkpoint-fingerprint suites, already
executes through this surface.

Laziness contract: nothing stateful happens at construction.  The run
state (and any checkpoint restore) materializes on the first drain, after
the arrivals fed so far are known — so a resumed push run reproduces the
exact ``_setup`` ordering of a resumed classic run.
"""

from __future__ import annotations

import math
from contextlib import suppress
from typing import TYPE_CHECKING, Iterator, Sequence

from repro.core.increments import Increment
from repro.resilience.checkpoint import EngineCheckpoint

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.dataset import GroundTruth
    from repro.core.profile import EntityProfile
    from repro.execution.core import ExecutionCore, RunResult, RunState
    from repro.streaming.system import ERSystem

__all__ = ["PushPlan", "PushRun"]


class PushPlan:
    """An open-ended stream plan: the increments fed to a push run so far.

    Duck-types the slice of :class:`~repro.core.increments.StreamPlan` the
    execution core consumes (``increments``, ``arrival_times``, ``len``,
    iteration) but is mutable — the run state aliases these lists, so an
    append becomes visible to an in-flight run without copying.  Increment
    ids may repeat (at-least-once delivery); the engines deduplicate.
    """

    __slots__ = ("increments", "arrival_times", "rate", "allow_redelivery")

    def __init__(self) -> None:
        self.increments: list[Increment] = []
        self.arrival_times: list[float] = []
        self.rate: float | None = None
        self.allow_redelivery = True

    def __len__(self) -> int:
        return len(self.increments)

    def __iter__(self) -> Iterator[tuple[float, Increment]]:
        return iter(zip(self.arrival_times, self.increments))


class PushRun:
    """One engine run driven by explicit feed/drain calls.

    Parameters
    ----------
    engine:
        The :class:`~repro.execution.core.ExecutionCore` policy instance
        (serial or pipelined) executing this run.  The push run owns the
        engine's ``budget`` attribute for its lifetime: every drain sets it
        to the drain horizon.
    system / ground_truth:
        As in ``engine.run``.
    resume_from:
        Restore this checkpoint on the first drain, after the arrivals fed
        by then — the checkpoint's plan fingerprint must match them.
    adopt_checkpoint_budget:
        With ``True``, the restore adopts the checkpoint's budget as the
        engine budget (the service's tenant-migration mode, where drains
        move the horizon afterwards anyway).  The default keeps the
        engine's configured budget and therefore the classic strict
        budget-match check.
    """

    def __init__(
        self,
        engine: "ExecutionCore",
        system: "ERSystem",
        ground_truth: "GroundTruth",
        resume_from: EngineCheckpoint | None = None,
        adopt_checkpoint_budget: bool = False,
    ) -> None:
        self._engine = engine
        self._system = system
        self._ground_truth = ground_truth
        self._resume_from = resume_from
        self._adopt_checkpoint_budget = adopt_checkpoint_budget
        self.plan = PushPlan()
        self._state: "RunState | None" = None
        self._horizon: float | None = None
        self._result: "RunResult | None" = None
        self._next_index = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def started(self) -> bool:
        """Whether the first drain has materialized the run state."""
        return self._state is not None

    @property
    def finished(self) -> bool:
        """Whether :meth:`results` has finalized this run."""
        return self._result is not None

    @property
    def horizon(self) -> float | None:
        """The absolute virtual-time horizon of the last drain."""
        return self._horizon

    @property
    def clock(self) -> float:
        """The run's current virtual (match) clock."""
        if self._state is None:
            return self.plan.arrival_times[0] if self.plan.arrival_times else 0.0
        return self._state.clock

    @property
    def matches(self) -> frozenset[tuple[int, int]]:
        """Duplicates classified as matches so far (canonical pid pairs)."""
        if self._state is None:
            return frozenset()
        return frozenset(self._state.duplicates)

    @property
    def match_count(self) -> int:
        """``len(matches)`` without copying the set (one integer per reply)."""
        return 0 if self._state is None else len(self._state.duplicates)

    @property
    def comparisons_executed(self) -> int:
        if self._state is None:
            return 0
        return self._state.recorder.comparisons_executed

    @property
    def increments_fed(self) -> int:
        return len(self.plan)

    @property
    def increments_ingested(self) -> int:
        return 0 if self._state is None else self._state.ingested

    @property
    def backlog(self) -> int:
        """Increments fed but not yet consumed (ingested, shed or dropped)."""
        if self._state is None:
            return len(self.plan)
        return self._state.n_arrivals - self._state.next_arrival

    @property
    def work_exhausted(self) -> bool:
        return self._state is not None and self._state.work_exhausted

    @property
    def last_checkpoint(self) -> EngineCheckpoint | None:
        """The engine's latest checkpoint (``None`` before any)."""
        return self._engine.last_checkpoint

    # ------------------------------------------------------------------
    # Feeding
    # ------------------------------------------------------------------
    def ingest(self, profiles: "Sequence[EntityProfile]", at: float | None = None) -> float:
        """Feed one increment of ``profiles`` arriving at virtual time ``at``.

        The increment is numbered after the highest index fed so far (by
        either method), so callers never hand-number increments.  ``at``
        behaves as in :meth:`feed`; returns the arrival time recorded.
        """
        return self.feed(Increment(index=self._next_index, profiles=tuple(profiles)), at=at)

    def feed(self, increment: Increment, at: float | None = None) -> float:
        """Append one increment arriving at virtual time ``at``.

        ``at`` defaults to the latest of the last arrival and the current
        clock ("it arrives now"); explicit values must keep the arrival
        sequence non-decreasing, mirroring
        :class:`~repro.core.increments.StreamPlan` validation.  Returns the
        arrival time actually recorded.
        """
        self._require_unfinished("feed")
        times = self.plan.arrival_times
        if at is None:
            at = max(self.clock, times[-1] if times else 0.0)
        at = float(at)
        if not math.isfinite(at) or at < 0.0:
            raise ValueError(f"arrival time must be finite and non-negative, got {at}")
        if times and at < times[-1]:
            raise ValueError(
                f"arrival times must be non-decreasing: got {at} after {times[-1]}"
            )
        self.plan.increments.append(increment)
        times.append(at)
        self._next_index = max(self._next_index, increment.index + 1)
        state = self._state
        if state is not None:
            # The state aliases the plan lists; only the derived fields —
            # arrival count, exhaustion marker — must be refreshed for the
            # next drain to see the new work.  (The plan fingerprint is
            # computed where a checkpoint is taken or checked, not here:
            # it is O(plan), and this runs once per increment.)
            state.n_arrivals = len(times)
            state.work_exhausted = False
            state.consumed_at = None
        return at

    def feed_plan(self, plan) -> None:
        """Feed every increment of a prepared plan (classic-run adapter)."""
        for at, increment in plan:
            self.feed(increment, at=at)

    # ------------------------------------------------------------------
    # Draining
    # ------------------------------------------------------------------
    def drain(self, until: float) -> float:
        """Advance the run's virtual clock to the absolute horizon ``until``.

        The horizon is a hard virtual-time deadline, exactly like the
        classic budget: work that cannot finish by it is cut, not deferred.
        Horizons must be non-decreasing across drains; a drain to the
        current horizon (or behind the clock) is a no-op.  Returns the
        clock after draining.
        """
        self._require_unfinished("drain")
        if not until > 0.0:
            raise ValueError(f"drain horizon must be positive, got {until}")
        if self._horizon is not None and until < self._horizon:
            raise ValueError(
                f"drain horizons must be non-decreasing: got {until} after {self._horizon}"
            )
        state = self._ensure_state()
        self._horizon = until
        self._engine.budget = until
        # However the drive ends — horizon, exhaustion, a crash, an
        # interrupt — the scores it is still owed are collected before the
        # drain returns: a hand-off to the worker fleet never outlives it.
        try:
            self._engine._drive(state)
        except BaseException:
            # The drive's exception is the one to report: a join that fails
            # on top of it has still settled every charged pair.
            with suppress(Exception):
                self._engine._join(state)
            raise
        self._engine._join(state)
        return state.clock

    def start(self) -> None:
        """Materialize the run state now (applying any pending restore).

        Normally implicit in the first drain; explicit start exists for
        restores that must bind the checkpoint to the arrivals fed *so
        far* before any further feeds grow the plan (tenant migration).
        """
        self._require_unfinished("start")
        self._ensure_state()

    def _ensure_state(self) -> "RunState":
        if self._state is None:
            engine = self._engine
            resume_from = self._resume_from
            if resume_from is not None and self._adopt_checkpoint_budget:
                engine.budget = resume_from.budget
            self._state = engine._setup(
                self._system, self.plan, self._ground_truth, resume_from
            )
            self._resume_from = None
        return self._state

    # ------------------------------------------------------------------
    # Checkpoints
    # ------------------------------------------------------------------
    def checkpoint(self) -> EngineCheckpoint:
        """A consistent cut of the run, taken between drains.

        Drains always stop at the engine loop's top-of-iteration cut, so a
        checkpoint taken here has the same consistency guarantee as the
        cadence-driven ones: no comparison half-charged, no increment
        half-ingested.  The checkpoint's ``budget`` records the current
        drain horizon.
        """
        self._require_unfinished("checkpoint")
        state = self._ensure_state()
        return self._engine._take_checkpoint(state)

    # ------------------------------------------------------------------
    # Finalization
    # ------------------------------------------------------------------
    def results(self) -> "RunResult":
        """Finalize the run and return its :class:`RunResult`.

        Finalization is terminal: further feeds and drains raise, and
        repeated calls return the same result object.
        """
        if self._result is None:
            state = self._ensure_state()
            self._result = self._engine._finalize(state)
        return self._result

    def _require_unfinished(self, action: str) -> None:
        if self._result is not None:
            raise RuntimeError(
                f"cannot {action}: this push run was finalized by results()"
            )
