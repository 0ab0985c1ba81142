"""Checkpoint/restore: consistent cuts of a running engine.

An :class:`EngineCheckpoint` captures everything a streaming engine needs to
resume a run exactly where it left off: the loop position (clocks, stream
cursor, round count, whether the run ran dry), the exactly-once
bookkeeping (seen increment ids, executed duplicates), and deep snapshots
of every stateful component — the ER system, the matcher, the progress
recorder, the arrival-rate estimator, and the metrics registry.

Checkpoints are taken at the *top* of the engine loop, so they are
consistent cuts: no comparison is half-charged, no increment half-ingested.
A run resumed from a checkpoint therefore produces byte-identical virtual
results (progress curve, duplicates, counters) to the uninterrupted run —
the property the crash-resume tests pin down (their crash injector lives in
``tests/reference/crash.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.increments import StreamPlan

__all__ = ["EngineCheckpoint", "plan_token"]


def plan_token(plan: StreamPlan) -> int:
    """Deterministic fingerprint of a stream plan.

    Restoring a checkpoint against a *different* plan would silently corrupt
    the stream cursor; the engines compare this token (arrival times and
    increment ids — both hash independently of ``PYTHONHASHSEED``) and
    refuse mismatched resumes.

    Accepts any plan-like with ``arrival_times``/``increments`` sequences —
    a frozen :class:`StreamPlan` or a push run's mutable
    :class:`~repro.execution.push.PushPlan` — and produces the same token
    for the same arrival/id content, so a push run fed a classic plan
    fingerprints identically to ``engine.run`` over that plan.
    """
    return hash(
        (
            tuple(plan.arrival_times),
            tuple(increment.index for increment in plan.increments),
        )
    )


@dataclass(frozen=True, slots=True)
class EngineCheckpoint:
    """A consistent cut of one engine run, taken at the top of the loop.

    ``clock`` is the single clock of the serial engine or the *match* clock
    of the pipelined engine; ``ingest_clock`` is ``None`` for serial runs.
    Component states (``*_state``) are opaque snapshots produced by the
    components' own ``snapshot``/``snapshot_state`` methods; restoring
    deep-copies them again, so one checkpoint can seed many resumes.
    """

    engine: str                                   # "serial" | "pipelined"
    budget: float
    plan_fingerprint: int
    clock: float
    ingest_clock: float | None
    next_arrival: int
    consumed_at: float | None
    work_exhausted: bool                          # ran dry: a drain has nothing to do
    rounds: int
    ingested: int
    shed: int
    duplicates_dropped: int
    seen_increments: frozenset[int]
    duplicates: frozenset[tuple[int, int]]
    system_state: dict
    matcher_state: dict
    recorder_state: dict
    estimator_state: tuple
    metrics_state: dict
