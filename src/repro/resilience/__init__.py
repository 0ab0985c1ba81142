"""Resilience layer: quarantine, load shedding, checkpoint/restore.

Real progressive ER deployments are judged on early quality *under* adverse
conditions: increments get redelivered or pile up faster than they can be
ingested, some pairs are too expensive to afford, and processes crash and
must resume without double-counting work.  This package makes those
conditions first-class and — crucially — *deterministic*: every mechanism
runs on the virtual clock, so a run replays bit-identically on any host.

Two modules:

* :mod:`repro.resilience.config` — :class:`ResilienceConfig`, the
  engine-side knob bundle (cost-ceiling quarantine, load shedding,
  checkpoint cadence, crash injection);
* :mod:`repro.resilience.checkpoint` — :class:`EngineCheckpoint` (a
  consistent cut of engine + system + matcher + recorder + metrics state)
  and :class:`SimulatedCrash`.

Exactly-once delivery needs no knob: the engines drop a redelivered
increment by its id.  A seeded stream perturbation for tests (drops,
redeliveries, reorders, bursts, corruption) lives in
``tests/reference/stream_faults.py``.
"""

from __future__ import annotations

from repro.resilience.checkpoint import EngineCheckpoint, SimulatedCrash, plan_token
from repro.resilience.config import DEFAULT_RESILIENCE, ResilienceConfig

__all__ = [
    "DEFAULT_RESILIENCE",
    "EngineCheckpoint",
    "ResilienceConfig",
    "SimulatedCrash",
    "plan_token",
]
