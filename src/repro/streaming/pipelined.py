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
"""

from __future__ import annotations

from repro.execution.core import ExecutionCore, RunState

__all__ = ["PipelinedStreamingEngine"]


class PipelinedStreamingEngine(ExecutionCore):
    """Runs an :class:`ERSystem` with concurrent ingest and match stages.

    See :class:`~repro.execution.core.ExecutionCore` for the constructor
    parameters (matcher, budget, resilience, workers, ...).
    """

    _KIND = "pipelined"
    _TRACKS_INGEST_CLOCK = True

    def _ingest_start(self, state: RunState) -> float:
        return max(state.arrival_times[state.next_arrival], state.ingest_clock)

    def _advance_ingest(self, state: RunState, arrival: float, cost: float) -> float:
        # Pipelined policy: ingestion starts when both the increment and the
        # ingest stage are available, and charges only the ingest clock.
        start = max(arrival, state.ingest_clock)
        state.ingest_clock = start + cost
        return state.ingest_clock

    def _ingest_clock_end(self, state: RunState, final_clock: float) -> float:
        return min(state.ingest_clock, self.budget)
