"""Checkpoint/restore: consistent cuts of a running engine.

An :class:`EngineCheckpoint` captures everything a streaming engine needs to
resume a run exactly where it left off: the loop position (clocks, stream
cursor, round count), the exactly-once bookkeeping (seen increment ids,
executed duplicates, quarantined pairs), and deep snapshots of every
stateful component — the ER system, the matcher, the progress recorder,
the arrival-rate estimator, and the metrics registry.

Checkpoints are taken at the *top* of the engine loop, so they are
consistent cuts: no comparison is half-charged, no increment half-ingested.
A run resumed from a checkpoint therefore produces byte-identical virtual
results (progress curve, duplicates, counters) to the uninterrupted run —
the property the crash-resume tests pin down.

:class:`SimulatedCrash` is the deterministic crash injector's exception; it
carries the latest checkpoint (or ``None`` if none was taken yet) so callers
can restart without any out-of-band state.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.increments import StreamPlan

__all__ = ["EngineCheckpoint", "SimulatedCrash", "plan_token"]


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
    rounds: int
    ingested: int
    shed: int
    duplicates_dropped: int
    seen_increments: frozenset[int]
    duplicates: frozenset[tuple[int, int]]
    quarantined: frozenset[tuple[int, int]]
    system_state: dict
    matcher_state: dict
    recorder_state: dict
    estimator_state: tuple
    metrics_state: dict


class SimulatedCrash(RuntimeError):
    """Raised by the deterministic crash injector (``crash_at``).

    Carries the latest :class:`EngineCheckpoint` (``None`` if the crash hit
    before the first checkpoint) and the virtual time of the crash, so a
    caller can resume with ``engine.run(..., resume_from=crash.checkpoint)``.
    """

    def __init__(self, checkpoint: EngineCheckpoint | None, clock: float) -> None:
        if checkpoint is None:
            detail = "no checkpoint taken"
        else:
            detail = f"latest checkpoint at t={checkpoint.clock:.6g}"
        super().__init__(f"simulated crash at virtual t={clock:.6g} ({detail})")
        self.checkpoint = checkpoint
        self.clock = clock
