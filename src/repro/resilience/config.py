"""Engine-side fault-tolerance policies.

:class:`ResilienceConfig` bundles the resilience knobs an engine accepts:
load shedding and checkpoint cadence.  The default configuration changes
nothing about a run.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ResilienceConfig", "DEFAULT_RESILIENCE"]


@dataclass(frozen=True, slots=True)
class ResilienceConfig:
    """Every resilience knob of the streaming engines.

    Parameters
    ----------
    shed_watermark:
        Load shedding: when more than this many increments have arrived but
        are not yet ingested, the oldest due increments are dropped
        (counted as ``engine.shed_increments``).  ``None`` disables.
    checkpoint_every:
        Capture an :class:`~repro.resilience.checkpoint.EngineCheckpoint`
        whenever this many virtual seconds elapsed since the last one.
        ``None`` disables checkpointing.
    """

    shed_watermark: int | None = None
    checkpoint_every: float | None = None

    def __post_init__(self) -> None:
        watermark = self.shed_watermark
        if watermark is not None and (
            not isinstance(watermark, int) or isinstance(watermark, bool) or watermark < 0
        ):
            raise ValueError(f"shed_watermark must be an int >= 0 (or None), got {watermark!r}")
        # ``not x > 0`` also refuses NaN, which passes ``x <= 0``.
        if self.checkpoint_every is not None and not self.checkpoint_every > 0:
            raise ValueError("checkpoint_every must be positive (or None)")


DEFAULT_RESILIENCE = ResilienceConfig()
