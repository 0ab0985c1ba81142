"""Two-stage pipelined engine: ingest and matching on concurrent clocks.

The paper's actual deployment (Scala / Akka Streams; Figure 3) is *task
parallel*: Incremental Blocking and Incremental Prioritization process new
increments while Incremental Classification is still executing comparisons
of earlier ones.  The serial :class:`~repro.streaming.engine.StreamingEngine`
charges all work to one clock; this engine models the dominant parallelism
with two virtual clocks:

* the **ingest clock** advances with blocking + prioritization work; an
  increment's ingestion starts at ``max(arrival, ingest_clock)``;
* the **match clock** advances with emission rounds and matcher
  evaluations.

Visibility rule (one-increment granularity): the match stage only emits
from system state whose ingests *started* at or before the current match
clock — the ingest stage is caught up to the match clock before every
emission round, and comparisons produced by ingests that complete during a
long match batch become visible at the next round, as they would in the
real pipeline.

The reported curve timestamps, budget, and stream-consumed marker use the
same conventions as the serial engine, so results are directly comparable;
under load, the pipelined engine consumes the stream strictly earlier
because ingestion no longer waits for the matcher.  The budget is a hard
deadline for *both* clocks: an ingest that cannot start before the deadline
is not performed (the run ends budget-bound), and the reported
``engine.ingest_clock_end`` gauge never exceeds the budget.

All policy-free machinery (budget clamping, quarantine, load shedding,
exactly-once dedup, checkpoint/restore, metrics, and the batched matching
kernel) is inherited from
:class:`~repro.execution.core.ExecutionCore`; this class contributes only
the two-clock step-ordering policy.
"""

from __future__ import annotations

from repro.execution.core import ExecutionCore, RunResult, RunState
from repro.streaming.engine import StreamingEngine  # noqa: F401  (re-export convenience)

__all__ = ["PipelinedStreamingEngine"]


class PipelinedStreamingEngine(ExecutionCore):
    """Runs an :class:`ERSystem` with concurrent ingest and match stages.

    See :class:`~repro.execution.core.ExecutionCore` for the constructor
    parameters (matcher, budget, resilience, workers, ...).
    """

    _KIND = "pipelined"
    _TRACKS_INGEST_CLOCK = True

    # ------------------------------------------------------------------
    def _drive(self, state: RunState) -> None:
        system = state.system
        metrics = state.metrics
        arrival_times = state.arrival_times
        budget = self.budget

        while state.clock < budget:
            # -- 0. resilience bookkeeping at the loop-top cut -----------
            self._loop_top(state)

            # -- 1. catch the ingest stage up to the match clock ---------
            while (
                state.next_arrival < state.n_arrivals
                and max(arrival_times[state.next_arrival], state.ingest_clock) <= state.clock
                and system.ready_for_ingest()
                and state.ingest_clock < budget
            ):
                self._ingest_step(state)

            # -- 2. one emission round on the match clock ----------------
            if system.has_work():
                self._emission_round(state)
                continue

            # -- 3. match stage starved: advance towards more input ------
            # (``on_idle`` only once the stream is consumed, unlike the
            # serial engine: see docs/architecture.md.)
            if state.next_arrival < state.n_arrivals:
                start = max(arrival_times[state.next_arrival], state.ingest_clock)
                if start >= budget:
                    # The next ingest cannot even start before the deadline:
                    # the run is budget-bound; charging work past the budget
                    # (and reporting clocks beyond it) would be wrong.
                    metrics.count(
                        "engine.ingests_cut_by_deadline",
                        state.n_arrivals - state.next_arrival,
                    )
                    state.clock = budget
                    break
                if system.ready_for_ingest():
                    # Run the next ingest (even if it starts after the match
                    # clock) and let the matcher wait for its completion.
                    self._ingest_step(state)
                    state.clock = min(max(state.clock, state.ingest_clock), budget)
                    continue
                # Back-pressured with no pending comparisons: force one
                # increment through to avoid a livelock.
                self._ingest_step(state, forced=True)
                state.clock = min(max(state.clock, state.ingest_clock), budget)
                continue
            with metrics.time_phase("idle") as idle_timer:
                idle_cost = system.on_idle(self._pipeline_stats(state))
                if idle_cost is not None:
                    state.clock += idle_cost
                    idle_timer.virtual += idle_cost
            if idle_cost is not None:
                metrics.count("engine.idle_rounds")
                continue
            state.work_exhausted = True
            break

    # ------------------------------------------------------------------
    def _ingest_step(self, state: RunState, forced: bool = False) -> None:
        """Consume the next arrival (dropping exactly-once redeliveries)."""
        if state.increments[state.next_arrival].index in state.seen_increments:
            self._drop_redelivered(state, state.ingest_clock)
            return
        with state.metrics.time_phase("ingest") as timer:
            self._ingest_one(state, timer, forced=forced)

    def _advance_ingest(self, state: RunState, arrival: float, cost: float) -> float:
        # Pipelined policy: ingestion starts when both the increment and the
        # ingest stage are available, and charges only the ingest clock.
        start = max(arrival, state.ingest_clock)
        state.ingest_clock = start + cost
        return state.ingest_clock

    def _ingest_clock_end(self, state: RunState, final_clock: float) -> float:
        return min(state.ingest_clock, self.budget)
