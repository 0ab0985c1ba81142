"""Engine-side fault-tolerance policies.

:class:`ResilienceConfig` bundles every resilience knob an engine accepts:
cost-ceiling quarantine (a pair whose estimated cost exceeds the ceiling is
counted, never executed), load shedding, checkpoint cadence and crash
injection.  The default configuration changes nothing about a run.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ResilienceConfig", "DEFAULT_RESILIENCE"]


@dataclass(frozen=True, slots=True)
class ResilienceConfig:
    """Every resilience knob of the streaming engines.

    Parameters
    ----------
    cost_ceiling:
        Quarantine any comparison whose *estimated* virtual cost exceeds
        this bound (pathological pairs must not starve the budget).
        ``None`` disables the ceiling.
    shed_watermark:
        Load shedding: when more than this many increments have arrived but
        are not yet ingested, the oldest due increments are dropped
        (counted as ``engine.shed_increments``).  ``None`` disables.
    checkpoint_every:
        Capture an :class:`~repro.resilience.checkpoint.EngineCheckpoint`
        whenever this many virtual seconds elapsed since the last one.
        ``None`` disables checkpointing.
    crash_at:
        Deterministic crash injection: raise
        :class:`~repro.resilience.checkpoint.SimulatedCrash` (carrying the
        latest checkpoint) once the clock reaches this virtual time.
    """

    cost_ceiling: float | None = None
    shed_watermark: int | None = None
    checkpoint_every: float | None = None
    crash_at: float | None = None

    def __post_init__(self) -> None:
        # ``not x > 0`` also refuses NaN, which passes ``x <= 0``.
        if self.cost_ceiling is not None and not self.cost_ceiling > 0:
            raise ValueError("cost_ceiling must be positive (or None)")
        watermark = self.shed_watermark
        if watermark is not None and (
            not isinstance(watermark, int) or isinstance(watermark, bool) or watermark < 0
        ):
            raise ValueError(f"shed_watermark must be an int >= 0 (or None), got {watermark!r}")
        if self.checkpoint_every is not None and not self.checkpoint_every > 0:
            raise ValueError("checkpoint_every must be positive (or None)")


DEFAULT_RESILIENCE = ResilienceConfig()
