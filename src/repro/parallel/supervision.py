"""Supervision policy for the matching fleet: deadlines, eviction, respawn.

The paper's progressive guarantee — best-possible partial result at any
budget cut-off — only survives production if the fleet survives process
failures.  This module holds the *policy* side of that story; the
mechanics live in :class:`repro.parallel.pool.WorkerPool`.

Per-worker state machine (slot states, see ``docs/resilience.md``)::

    alive ──(missed reply deadline)──▶ suspect ──(killed + chunk rescued)──▶ evicted
      ▲                                                                        │
      │                                 (backoff elapsed, respawn succeeds)    │
      └──────────────── respawning ◀───────────────────────────────────────────┘
                            │
                            └──(respawn budget exhausted)──▶ dead

* **alive** — handshaken, scoring chunks.
* **suspect** — a reply deadline or transport error fired; the slot is
  condemned within the same gather (its chunk is rescued in-process), so
  ``suspect`` is transient and never observable between hand-offs.
* **evicted** — process killed; a respawn is scheduled with capped
  exponential backoff (jittered, seeded — :class:`RetryPolicy` semantics).
* **respawning** — a replacement process is mid-handshake.
* **dead** — the slot's respawn budget (``max_respawns``) is exhausted;
  terminal for the slot.  When *every* slot is dead the pool itself turns
  ``broken`` — the pool-level terminal state.

The invariant the whole layer enforces: supervision changes *where* pairs
are scored, never *what* is scored.  Eviction, rescue, and respawn are
invisible in results, metrics-at-checkpoint, and checkpoint fingerprints.

Deadlines are wall-clock (real processes hang in real time); everything
they guard is virtual-clock deterministic.  Both deadlines are overridable
via environment (for slow CI hosts) and via
:class:`repro.api.EngineOptions`:

* ``REPRO_HANDSHAKE_TIMEOUT_S`` — fleet-wide startup/respawn handshake.
* ``REPRO_REPLY_TIMEOUT_S`` — fleet-wide compute-reply deadline per
  hand-off, running from its scatter (``0`` or ``inf`` disables it).
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.resilience.retry import RetryPolicy

__all__ = [
    "DEFAULT_SUPERVISION",
    "ALIVE",
    "SUSPECT",
    "EVICTED",
    "RESPAWNING",
    "DEAD",
    "DEFAULT_HANDSHAKE_TIMEOUT_S",
    "DEFAULT_REPLY_TIMEOUT_S",
    "DEFAULT_MAX_RESPAWNS",
    "DEFAULT_RESPAWN_BACKOFF",
    "SupervisionConfig",
    "default_handshake_timeout",
    "default_reply_timeout",
]

#: Slot states (strings, not an Enum: they print well in errors and logs).
ALIVE = "alive"
SUSPECT = "suspect"
EVICTED = "evicted"
RESPAWNING = "respawning"
DEAD = "dead"

#: How long the whole fleet gets to answer the startup ping — one shared
#: deadline, not per worker, so a hung fleet of N workers degrades after
#: 30 s instead of N×30 s.  Spawn on a loaded host takes O(seconds).
DEFAULT_HANDSHAKE_TIMEOUT_S = 30.0

#: How long the fleet gets to answer one compute scatter.  Generous by
#: default — scoring a chunk is O(ms..s) — because a false positive evicts
#: a healthy worker; chaos tests and benchmarks dial it down.
DEFAULT_REPLY_TIMEOUT_S = 60.0

#: Respawn attempts per worker slot before the slot is terminally dead.
DEFAULT_MAX_RESPAWNS = 3

#: Wall-clock backoff between respawn attempts of one slot: capped
#: exponential with seeded jitter (see :meth:`RetryPolicy.backoff`).
DEFAULT_RESPAWN_BACKOFF = RetryPolicy(
    base_backoff=0.05, backoff_factor=2.0, max_backoff=2.0, jitter=0.25
)


def _env_float(name: str, fallback: float) -> float:
    """``float(os.environ[name])`` with the fallback on absence/garbage."""
    raw = os.environ.get(name)
    if raw is None:
        return fallback
    try:
        return float(raw)
    except ValueError:
        return fallback


def default_handshake_timeout() -> float:
    """The handshake deadline: ``REPRO_HANDSHAKE_TIMEOUT_S`` or 30 s."""
    return _env_float("REPRO_HANDSHAKE_TIMEOUT_S", DEFAULT_HANDSHAKE_TIMEOUT_S)


def default_reply_timeout() -> float | None:
    """The compute-reply deadline: ``REPRO_REPLY_TIMEOUT_S`` or 60 s.

    ``0`` (or negative, or ``inf``) disables the deadline — returned as
    ``None`` so callers have a single "wait forever" spelling.
    """
    value = _env_float("REPRO_REPLY_TIMEOUT_S", DEFAULT_REPLY_TIMEOUT_S)
    if value <= 0 or value == float("inf"):
        return None
    return value


@dataclass(frozen=True, slots=True)
class SupervisionConfig:
    """Every supervision knob of the worker fleet, as one picklable value.

    ``None`` on a timeout field means "resolve from the environment (or
    the built-in default) when the pool starts" — which is what lets slow
    CI hosts raise the 30 s fleet handshake without touching code.
    """

    handshake_timeout_s: float | None = None
    reply_timeout_s: float | None = None
    max_respawns: int | None = None
    respawn_backoff: RetryPolicy = DEFAULT_RESPAWN_BACKOFF
    #: Seed of the respawn-backoff jitter stream (wall-clock scheduling
    #: only; results are invariant to it by the supervision invariant).
    respawn_seed: int = 0

    def __post_init__(self) -> None:
        if self.handshake_timeout_s is not None and self.handshake_timeout_s <= 0:
            raise ValueError("handshake_timeout_s must be positive (or None)")
        if self.max_respawns is not None and self.max_respawns < 0:
            raise ValueError("max_respawns must be >= 0 (or None)")

    def resolved_handshake_timeout(self) -> float:
        if self.handshake_timeout_s is not None:
            return self.handshake_timeout_s
        return default_handshake_timeout()

    def resolved_reply_timeout(self) -> float | None:
        if self.reply_timeout_s is not None:
            if self.reply_timeout_s <= 0 or self.reply_timeout_s == float("inf"):
                return None
            return self.reply_timeout_s
        return default_reply_timeout()

    def resolved_max_respawns(self) -> int:
        if self.max_respawns is not None:
            return self.max_respawns
        return DEFAULT_MAX_RESPAWNS


DEFAULT_SUPERVISION = SupervisionConfig()
