"""Resilience layer: deterministic fault injection, retry, checkpoint/restore.

Real progressive ER deployments are judged on early quality *under* adverse
conditions: increments get dropped, duplicated, reordered or coalesced into
bursts by flaky upstream sources; match functions backed by remote services
fail transiently or exhibit latency spikes; processes crash and must resume
without double-counting work.  This package makes all of those conditions
first-class and — crucially — *deterministic*: every chaos experiment is
driven by explicit seeds on the virtual clock, so a failing run replays
bit-identically on any host.

Three modules:

* :mod:`repro.resilience.faults` — seeded stream perturbation
  (:func:`apply_faults` over a :class:`FaultSpec`) and the
  :class:`FaultyMatcher` wrapper injecting transient exceptions and latency
  spikes on a seeded schedule;
* :mod:`repro.resilience.retry` — :class:`RetryPolicy` (capped exponential
  backoff charged to the virtual clock) and :class:`ResilienceConfig`, the
  engine-side knob bundle (retry, cost-ceiling quarantine, load shedding,
  checkpoint cadence, crash injection);
* :mod:`repro.resilience.checkpoint` — :class:`EngineCheckpoint` (a
  consistent cut of engine + system + matcher + recorder + metrics state)
  and :class:`SimulatedCrash`.
"""

from __future__ import annotations

from repro.resilience.checkpoint import EngineCheckpoint, SimulatedCrash, plan_token
from repro.resilience.faults import (
    FaultReport,
    FaultSpec,
    FaultyMatcher,
    TransientMatcherError,
    apply_faults,
)
from repro.resilience.retry import DEFAULT_RESILIENCE, ResilienceConfig, RetryPolicy

__all__ = [
    "DEFAULT_RESILIENCE",
    "EngineCheckpoint",
    "FaultReport",
    "FaultSpec",
    "FaultyMatcher",
    "ResilienceConfig",
    "RetryPolicy",
    "SimulatedCrash",
    "TransientMatcherError",
    "apply_faults",
    "plan_token",
]
