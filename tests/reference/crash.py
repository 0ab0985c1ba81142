"""Deterministic crash injection for the checkpoint/resume tests.

Inside ``with crash_at(t):`` every engine raises :class:`SimulatedCrash` at
the first top of its loop whose virtual clock has reached ``t``, once that
loop top's bookkeeping (checkpoint cadence, shedding) is done — the cut
checkpoints are taken at.  The exception carries the engine's latest
checkpoint (``None`` when none was taken yet), so a test resumes with
``engine.run(..., resume_from=crash.checkpoint)`` and compares the result
with a run that was never interrupted.  The product has no crash knob:
the injector patches ``ExecutionCore._loop_top`` for the block and puts it
back on the way out.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

from repro.execution.core import ExecutionCore
from repro.resilience.checkpoint import EngineCheckpoint

__all__ = ["SimulatedCrash", "crash_at"]


class SimulatedCrash(RuntimeError):
    """The injected crash: the latest checkpoint and the clock it hit at."""

    def __init__(self, checkpoint: EngineCheckpoint | None, clock: float) -> None:
        if checkpoint is None:
            detail = "no checkpoint taken"
        else:
            detail = f"latest checkpoint at t={checkpoint.clock:.6g}"
        super().__init__(f"simulated crash at virtual t={clock:.6g} ({detail})")
        self.checkpoint = checkpoint
        self.clock = clock


@contextmanager
def crash_at(at: float) -> Iterator[None]:
    """Crash every engine run inside the block once its clock reaches ``at``."""
    loop_top = ExecutionCore._loop_top

    def crashing_loop_top(engine: ExecutionCore, state) -> None:
        loop_top(engine, state)
        if state.clock >= at:
            raise SimulatedCrash(engine.last_checkpoint, state.clock)

    ExecutionCore._loop_top = crashing_loop_top
    try:
        yield
    finally:
        ExecutionCore._loop_top = loop_top
