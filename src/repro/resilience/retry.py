"""Engine-side fault-tolerance policies.

:class:`RetryPolicy` describes how the engines react to
:class:`~repro.resilience.faults.TransientMatcherError`: up to
``max_attempts`` evaluations per comparison, separated by capped exponential
backoff *charged to the virtual clock* — resilience costs time, and the
progress curves show it.  A pair that exhausts its attempts is quarantined
(counted, never crashing the run), as is any pair whose estimated cost
exceeds the ``cost_ceiling``.

:class:`ResilienceConfig` bundles every resilience knob an engine accepts;
the default configuration changes nothing about a fault-free run.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["RetryPolicy", "ResilienceConfig", "DEFAULT_RESILIENCE"]


@dataclass(frozen=True, slots=True)
class RetryPolicy:
    """Capped exponential backoff for transient failures.

    Backoffs are charged to the virtual clock, so the same failures cost
    the same time, in the same order, on every host.
    """

    max_attempts: int = 3
    base_backoff: float = 1e-3
    backoff_factor: float = 2.0
    max_backoff: float = 0.1

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_backoff < 0:
            raise ValueError("base_backoff must be non-negative")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")
        if self.max_backoff < self.base_backoff:
            raise ValueError("max_backoff must be >= base_backoff")

    def backoff(self, attempt: int) -> float:
        """Seconds to wait after the ``attempt``-th failure (1-based): the
        capped exponential."""
        if attempt < 1:
            raise ValueError("attempt is 1-based")
        return min(self.base_backoff * self.backoff_factor ** (attempt - 1), self.max_backoff)


@dataclass(frozen=True, slots=True)
class ResilienceConfig:
    """Every resilience knob of the streaming engines.

    Parameters
    ----------
    retry:
        Policy for transient matcher failures.
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

    retry: RetryPolicy = RetryPolicy()
    cost_ceiling: float | None = None
    shed_watermark: int | None = None
    checkpoint_every: float | None = None
    crash_at: float | None = None

    def __post_init__(self) -> None:
        if self.cost_ceiling is not None and self.cost_ceiling <= 0:
            raise ValueError("cost_ceiling must be positive (or None)")
        if self.shed_watermark is not None and self.shed_watermark < 0:
            raise ValueError("shed_watermark must be >= 0 (or None)")
        if self.checkpoint_every is not None and self.checkpoint_every <= 0:
            raise ValueError("checkpoint_every must be positive (or None)")


DEFAULT_RESILIENCE = ResilienceConfig()
