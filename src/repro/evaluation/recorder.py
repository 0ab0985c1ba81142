"""Progress recording: PC over (virtual) time and over executed comparisons.

Pair Completeness (PC) follows the paper's definition: the number of
ground-truth matches whose comparison has been *emitted* (and executed) by
the prioritization/blocking step, divided by the total number of existing
matches.  The match function's classification does not enter PC — it only
determines how much (virtual) time each comparison costs.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Sequence

from repro.core.comparison import canonical_pair
from repro.core.dataset import GroundTruth

__all__ = ["ProgressPoint", "ProgressRecorder", "ProgressCurve"]


@dataclass(frozen=True, slots=True)
class ProgressPoint:
    """One sample of the progress curve."""

    time: float
    comparisons: int
    matches: int


class ProgressRecorder:
    """Accumulates executed comparisons against the ground truth.

    The recorder samples a point on every ground-truth hit and (sparsely) on
    misses, so PC-over-time curves are exact at every step while remaining
    compact for long runs.
    """

    def __init__(self, ground_truth: GroundTruth, sample_every: int = 64) -> None:
        if sample_every < 1:
            raise ValueError("sample_every must be >= 1")
        self.ground_truth = ground_truth
        self.sample_every = sample_every
        self.comparisons_executed = 0
        self.matches_emitted = 0
        self._found_pairs: set[tuple[int, int]] = set()
        self._points: list[ProgressPoint] = [ProgressPoint(0.0, 0, 0)]
        self._match_events: list[tuple[float, tuple[int, int]]] = []

    # ------------------------------------------------------------------
    def record(self, pid_x: int, pid_y: int, time: float) -> bool:
        """Record one executed comparison at virtual ``time``.

        Returns ``True`` if the pair is a (new) ground-truth match.
        Re-executions of the same pair are counted as work but can never
        contribute a second match.
        """
        return self.record_batch(((pid_x, pid_y),), (time,)) == 1

    def record_batch(
        self, pairs: Sequence[tuple[int, int]], times: Sequence[float]
    ) -> int:
        """Record executed comparisons, ``pairs[i]`` finishing at ``times[i]``.

        Returns how many of them are (new) ground-truth matches.  Which
        pairs were executed is the systems' to know (each claims into its
        :class:`~repro.execution.store.ComparisonStore` before execution);
        the recorder only keeps the matches it has counted.
        """
        found = self._found_pairs
        truth = self.ground_truth.pairs  # canonical, as the probes below
        points = self._points
        sample_every = self.sample_every
        count = self.comparisons_executed
        matches = 0
        for pair, time in zip(pairs, times):
            if not pair[0] < pair[1]:
                pair = canonical_pair(*pair)
            count += 1
            if pair in truth and pair not in found:
                found.add(pair)
                matches += 1
                self.matches_emitted += 1
                self._match_events.append((time, pair))
                points.append(ProgressPoint(time, count, self.matches_emitted))
            elif count % sample_every == 0:  # misses are sampled sparsely
                points.append(ProgressPoint(time, count, self.matches_emitted))
        self.comparisons_executed = count
        return matches

    def mark(self, time: float) -> None:
        """Force a sample (e.g. at budget exhaustion or stream end)."""
        self._points.append(ProgressPoint(time, self.comparisons_executed, self.matches_emitted))

    # ------------------------------------------------------------------
    @property
    def pair_completeness(self) -> float:
        if not len(self.ground_truth):
            return 1.0
        return self.matches_emitted / len(self.ground_truth)

    def match_events(self) -> tuple[tuple[float, tuple[int, int]], ...]:
        """Each ground-truth hit as ``(time, pair)``, in emission order.

        This is what latency analyses need: when exactly was each true
        match surfaced, relative to when its profiles arrived.
        """
        return tuple(self._match_events)

    def curve(self) -> "ProgressCurve":
        return ProgressCurve(tuple(self._points), len(self.ground_truth))

    # -- checkpoint support ---------------------------------------------
    def snapshot_state(self) -> dict[str, object]:
        """All mutable progress state (the ground truth is shared, not copied)."""
        return {
            "sample_every": self.sample_every,
            "comparisons_executed": self.comparisons_executed,
            "matches_emitted": self.matches_emitted,
            "found_pairs": set(self._found_pairs),
            "points": list(self._points),
            "match_events": list(self._match_events),
        }

    def restore_state(self, state: dict[str, object]) -> None:
        self.sample_every = state["sample_every"]
        self.comparisons_executed = state["comparisons_executed"]
        self.matches_emitted = state["matches_emitted"]
        self._found_pairs = set(state["found_pairs"])
        self._points = list(state["points"])
        self._match_events = list(state["match_events"])


@dataclass(frozen=True, slots=True)
class ProgressCurve:
    """An immutable PC progress curve with interpolation-free lookups."""

    points: tuple[ProgressPoint, ...]
    total_matches: int
    _times: tuple[float, ...] = field(init=False, repr=False)
    _comparisons: tuple[int, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_times", tuple(p.time for p in self.points))
        object.__setattr__(self, "_comparisons", tuple(p.comparisons for p in self.points))

    def pc_at_time(self, time: float) -> float:
        """PC achieved at or before virtual ``time`` (step function)."""
        if not self.points or self.total_matches == 0:
            return 0.0 if self.total_matches else 1.0
        index = bisect.bisect_right(self._times, time) - 1
        if index < 0:
            return 0.0
        return self.points[index].matches / self.total_matches

    def pc_at_comparisons(self, comparisons: int) -> float:
        """PC achieved within the first ``comparisons`` executed comparisons."""
        if not self.points or self.total_matches == 0:
            return 0.0 if self.total_matches else 1.0
        index = bisect.bisect_right(self._comparisons, comparisons) - 1
        if index < 0:
            return 0.0
        return self.points[index].matches / self.total_matches

    @property
    def final_pc(self) -> float:
        if self.total_matches == 0:
            return 1.0
        if not self.points:
            return 0.0
        return self.points[-1].matches / self.total_matches

    @property
    def final_time(self) -> float:
        return self.points[-1].time if self.points else 0.0

    @property
    def final_comparisons(self) -> int:
        return self.points[-1].comparisons if self.points else 0

    def sample_times(self, times: list[float]) -> list[float]:
        """PC values at each requested time (for plotting/reporting)."""
        return [self.pc_at_time(t) for t in times]

    def time_to_pc(self, target: float) -> float | None:
        """Earliest virtual time at which PC reached ``target`` (or None).

        The scalar dual of :meth:`pc_at_time`: useful for "how long until
        90 % of matches" style reporting.
        """
        if not 0.0 <= target <= 1.0:
            raise ValueError("target must be in [0, 1]")
        if self.total_matches == 0:
            return 0.0
        needed = target * self.total_matches
        for point in self.points:
            if point.matches >= needed:
                return point.time
        return None

    def comparisons_to_pc(self, target: float) -> int | None:
        """Fewest executed comparisons at which PC reached ``target``."""
        if not 0.0 <= target <= 1.0:
            raise ValueError("target must be in [0, 1]")
        if self.total_matches == 0:
            return 0
        needed = target * self.total_matches
        for point in self.points:
            if point.matches >= needed:
                return point.comparisons
        return None

    def area_under_curve(self, horizon: float, samples: int = 200) -> float:
        """Normalized area under PC(t) up to ``horizon`` — the standard
        scalar summary of *early quality* (1.0 = all matches at t=0)."""
        if horizon <= 0 or samples < 1:
            raise ValueError("horizon and samples must be positive")
        step = horizon / samples
        total = sum(self.pc_at_time(step * (i + 1)) for i in range(samples))
        return total / samples
