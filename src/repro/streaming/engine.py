"""The serial discrete-event streaming engine.

The engine drives one :class:`ERSystem` over a :class:`StreamPlan` on a
*virtual clock*: every pipeline action (ingesting an increment, updating the
comparison index, evaluating a comparison) advances the clock by its
reported virtual cost.  Increment arrivals are pinned to their plan times,
so the interplay the paper studies — idle time on slow streams, backlog and
back-pressure on fast streams, initialization stalls of the batch
adaptations, the adaptive budget of PIER — emerges deterministically and
reproducibly from one loop, independent of the host machine.

All policy-free machinery (budget clamping, quarantine, load shedding,
exactly-once dedup, checkpoint cadence, metrics, and the batched matching
kernel) lives in
:class:`~repro.execution.core.ExecutionCore`; this class contributes only
the *serial* step-ordering policy, one loop iteration being:

1. ingest every increment that has arrived by ``clock`` (subject to the
   system's back-pressure hook), charging ingestion costs;
2. if the system has work (``system.has_work()``), run one emission round
   and execute its batch through the matcher, recording each executed
   comparison against the ground truth;
3. otherwise: force one back-pressured increment through, or let the
   system manufacture idle work (the paper's "empty increment" trigger), or
   fast-forward to the next arrival, or stop when both the stream and the
   system are exhausted.

Because every stage charges the same clock, an expensive matcher delays
ingestion (and vice versa) — the fully sequential execution model.
"""

from __future__ import annotations

from repro.execution.core import ExecutionCore, RunResult, RunState

__all__ = ["RunResult", "StreamingEngine"]


class StreamingEngine(ExecutionCore):
    """Runs ER systems against stream plans on one shared virtual clock.

    See :class:`~repro.execution.core.ExecutionCore` for the constructor
    parameters (matcher, budget, resilience, workers, ...).
    """

    _KIND = "serial"
    _TRACKS_INGEST_CLOCK = False

    # ------------------------------------------------------------------
    def _drive(self, state: RunState) -> None:
        system = state.system
        metrics = state.metrics
        arrival_times = state.arrival_times
        budget = self.budget

        while state.clock < budget:
            # -- 0. resilience bookkeeping at the loop-top cut ----------
            self._loop_top(state)

            # -- 1. ingest all due increments ---------------------------
            with metrics.time_phase("ingest") as ingest_timer:
                while (
                    state.next_arrival < state.n_arrivals
                    and arrival_times[state.next_arrival] <= state.clock
                    and system.ready_for_ingest()
                ):
                    if state.increments[state.next_arrival].index in state.seen_increments:
                        self._drop_redelivered(state, state.clock)
                        continue
                    self._ingest_one(state, ingest_timer)
                    if state.clock >= budget:
                        break
            if state.clock >= budget:
                break

            # -- 2. one emission round, if the system has work ----------
            if system.has_work():
                self._emission_round(state)
                continue

            # -- 3. no work: idle handling ------------------------------
            if state.next_arrival < state.n_arrivals and arrival_times[state.next_arrival] <= state.clock:
                # Back-pressure refused ingestion but there is no work
                # either: force-feed one increment to avoid a livelock.
                if state.increments[state.next_arrival].index in state.seen_increments:
                    self._drop_redelivered(state, state.clock)
                    continue
                with metrics.time_phase("ingest") as ingest_timer:
                    self._ingest_one(state, ingest_timer, forced=True)
                continue
            with metrics.time_phase("idle") as idle_timer:
                idle_cost = system.on_idle(self._pipeline_stats(state))
                if idle_cost is not None:
                    state.clock += idle_cost
                    idle_timer.virtual += idle_cost
            if idle_cost is not None:
                metrics.count("engine.idle_rounds")
                continue
            if state.next_arrival < state.n_arrivals:
                gap = arrival_times[state.next_arrival] - state.clock
                state.clock = arrival_times[state.next_arrival]  # sleep until next arrival
                metrics.count("engine.fast_forwards")
                metrics.phase("sleep").add(gap)
                continue
            state.work_exhausted = True
            break

    # ------------------------------------------------------------------
    def _advance_ingest(self, state: RunState, arrival: float, cost: float) -> float:
        # Serial policy: ingestion charges the one shared clock.
        state.clock += cost
        return state.clock
