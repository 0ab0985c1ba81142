"""The serial discrete-event streaming engine.

The engine drives one :class:`ERSystem` over a :class:`StreamPlan` on a
*virtual clock*: every pipeline action (ingesting an increment, updating the
comparison index, evaluating a comparison) advances the clock by its
reported virtual cost.  Increment arrivals are pinned to their plan times,
so the interplay the paper studies — idle time on slow streams, backlog and
back-pressure on fast streams, initialization stalls of the batch
adaptations, the adaptive budget of PIER — emerges deterministically and
reproducibly from one loop, independent of the host machine.

The loop and all policy-free machinery (budget clamping, quarantine, load
shedding, exactly-once dedup, checkpoint cadence, metrics, and the batched
matching kernel) live in :class:`~repro.execution.core.ExecutionCore`
(see :meth:`~repro.execution.core.ExecutionCore._drive` for its steps);
this class contributes only the *serial* clock policy: an increment's
ingest starts at its arrival and charges the one shared clock.  Because
every stage charges the same clock, an expensive matcher delays ingestion
(and vice versa) — the fully sequential execution model.
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

    def _ingest_start(self, state: RunState) -> float:
        return state.arrival_times[state.next_arrival]

    def _advance_ingest(self, state: RunState, arrival: float, cost: float) -> float:
        # Serial policy: ingestion charges the one shared clock.
        state.clock += cost
        return state.clock
