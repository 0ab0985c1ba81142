"""Zero-dependency run instrumentation: counters, phase timers, round log.

The streaming engines, the PIER strategies, the baselines and the matchers
all report into one :class:`MetricsRegistry` per run.  The registry is the
single source of truth for *what the pipeline actually did*: how much
virtual (and wall) time each phase consumed, how the adaptive ``K`` and the
ingestion backlog evolved round by round, and how many comparisons were
enqueued, executed, deduplicated or cut off by the budget deadline.

Design constraints (in order):

1. **Deterministic.**  Everything derived from the virtual clock is exactly
   reproducible across runs and hosts; wall-clock figures are clearly
   separated (``wall_s`` fields) so exports can strip them.
2. **Cheap.**  Recording a counter is one dict operation; the per-round log
   is bounded by deterministic stride doubling, so month-long virtual runs
   cannot exhaust memory.
3. **Dependency-free and schema-stable.**  :meth:`MetricsRegistry.snapshot`
   emits plain dicts/lists/scalars documented in ``docs/observability.md``
   and guarded by ``SCHEMA_VERSION``; the benchmark smoke harness fails on
   unannounced schema drift.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import reduce
from operator import add

__all__ = ["SCHEMA_VERSION", "PhaseTotals", "PhaseTimer", "RoundLog", "MetricsRegistry"]

#: Bump whenever the structure (not the values) of :meth:`snapshot` changes,
#: and update ``docs/observability.md`` plus the checked-in BENCH baselines.
SCHEMA_VERSION = 1


@dataclass(slots=True)
class PhaseTotals:
    """Accumulated time of one named pipeline phase."""

    virtual_s: float = 0.0
    wall_s: float = 0.0
    count: int = 0

    def add(self, virtual_s: float, wall_s: float = 0.0) -> None:
        self.virtual_s += virtual_s
        self.wall_s += wall_s
        self.count += 1


class RoundLog:
    """Bounded log of per-round gauge samples.

    Every emission round offers one sample (a flat ``str -> number | None``
    dict).  When the log exceeds ``max_samples``, every other retained
    sample is dropped and the sampling stride doubles — so the log always
    covers the whole run at uniform density, stays within a fixed memory
    bound, and behaves identically on every host (no randomness, no time).
    """

    __slots__ = ("max_samples", "stride", "_samples", "_offered")

    def __init__(self, max_samples: int = 512) -> None:
        if max_samples < 2:
            raise ValueError("max_samples must be >= 2")
        self.max_samples = max_samples
        self.stride = 1
        self._samples: list[dict[str, float | int | None]] = []
        self._offered = 0

    def offer(self, sample: dict[str, float | int | None]) -> None:
        """Record ``sample`` if the current stride selects this round."""
        if not self.keeps_next():
            self.skip()
            return
        self._offered += 1
        self._samples.append(sample)
        if len(self._samples) > self.max_samples:
            self._samples = self._samples[::2]
            self.stride *= 2

    def keeps_next(self) -> bool:
        """Whether the stride selects the next offer.

        Lets a caller whose sample is costly to build ask first, and
        :meth:`skip` the round instead of building a sample to be dropped.
        """
        return self._offered % self.stride == 0

    def skip(self) -> None:
        """Count an offer the stride drops (see :meth:`keeps_next`)."""
        self._offered += 1

    @property
    def offered(self) -> int:
        return self._offered

    @property
    def samples(self) -> list[dict[str, float | int | None]]:
        return list(self._samples)

    # -- checkpoint support ---------------------------------------------
    def dump_state(self) -> dict[str, object]:
        return {
            "max_samples": self.max_samples,
            "stride": self.stride,
            "offered": self._offered,
            "samples": [dict(sample) for sample in self._samples],
        }

    def load_state(self, state: dict[str, object]) -> None:
        self.max_samples = state["max_samples"]
        self.stride = state["stride"]
        self._offered = state["offered"]
        self._samples = [dict(sample) for sample in state["samples"]]


class MetricsRegistry:
    """Named counters, gauges, phase timers and the per-round log of one run."""

    __slots__ = ("_counters", "_gauges", "_phases", "rounds")

    def __init__(self, max_round_samples: int = 512) -> None:
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, float] = {}
        self._phases: dict[str, PhaseTotals] = {}
        self.rounds = RoundLog(max_samples=max_round_samples)

    # -- counters -------------------------------------------------------
    def count(self, name: str, amount: float = 1) -> None:
        """Add ``amount`` to the named monotone counter."""
        self._counters[name] = self._counters.get(name, 0) + amount

    def count_each(self, name: str, amounts: list[float]) -> None:
        """:meth:`count` every amount in turn, float additions in that order."""
        self._counters[name] = reduce(add, amounts, self._counters.get(name, 0))

    def counter(self, name: str) -> float:
        return self._counters.get(name, 0)

    # -- gauges ---------------------------------------------------------
    def gauge(self, name: str, value: float) -> None:
        """Set a last-value-wins gauge (e.g. ``engine.clock_end``)."""
        self._gauges[name] = value

    def gauge_value(self, name: str, default: float = 0) -> float:
        return self._gauges.get(name, default)

    # -- phase timers ---------------------------------------------------
    def phase(self, name: str) -> PhaseTotals:
        totals = self._phases.get(name)
        if totals is None:
            totals = self._phases[name] = PhaseTotals()
        return totals

    def time_phase(self, name: str) -> "_PhaseTimer":
        """Context manager charging wall time (and optional virtual time).

        Usage::

            with metrics.time_phase("match") as timer:
                ...
                timer.virtual += cost
        """
        return _PhaseTimer(self.phase(name))

    # -- per-round samples ---------------------------------------------
    def record_round(self, **sample: float | int | None) -> None:
        self.rounds.offer(sample)

    # -- checkpoint support ---------------------------------------------
    def dump_state(self) -> dict[str, object]:
        """Everything :meth:`load_state` needs to rebuild this registry.

        Unlike :meth:`snapshot` (the reporting export), the dump keeps wall
        times and the round log's internal cursor, so a restored registry
        continues accumulating exactly where the original stopped.
        """
        return {
            "counters": dict(self._counters),
            "gauges": dict(self._gauges),
            "phases": {
                name: (totals.virtual_s, totals.wall_s, totals.count)
                for name, totals in self._phases.items()
            },
            "rounds": self.rounds.dump_state(),
        }

    def load_state(self, state: dict[str, object]) -> None:
        self._counters = dict(state["counters"])
        self._gauges = dict(state["gauges"])
        self._phases = {
            name: PhaseTotals(virtual_s, wall_s, count)
            for name, (virtual_s, wall_s, count) in state["phases"].items()
        }
        self.rounds.load_state(state["rounds"])

    # -- export ---------------------------------------------------------
    def snapshot(self, include_wall: bool = True) -> dict[str, object]:
        """The run's metrics as a JSON-serializable dict.

        With ``include_wall=False`` every host-dependent field is dropped,
        so the result is byte-for-byte reproducible across machines — the
        form the benchmark baselines are stored in.
        """
        phases: dict[str, dict[str, float | int]] = {}
        for name in sorted(self._phases):
            totals = self._phases[name]
            entry: dict[str, float | int] = {
                "virtual_s": totals.virtual_s,
                "count": totals.count,
            }
            if include_wall:
                entry["wall_s"] = totals.wall_s
            phases[name] = entry
        return {
            "schema_version": SCHEMA_VERSION,
            "counters": {name: self._counters[name] for name in sorted(self._counters)},
            "gauges": {name: self._gauges[name] for name in sorted(self._gauges)},
            "phases": phases,
            "rounds": {
                "offered": self.rounds.offered,
                "stride": self.rounds.stride,
                "samples": self.rounds.samples,
            },
        }


class _PhaseTimer:
    """Context manager produced by :meth:`MetricsRegistry.time_phase`."""

    __slots__ = ("_totals", "virtual", "_start")

    def __init__(self, totals: PhaseTotals) -> None:
        self._totals = totals
        self.virtual = 0.0
        self._start = 0.0

    def __enter__(self) -> "_PhaseTimer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._totals.add(self.virtual, time.perf_counter() - self._start)


#: Public name for the phase-timer type: the execution core passes timers
#: into its ingestion/matching helpers, so the type is part of its API.
PhaseTimer = _PhaseTimer
